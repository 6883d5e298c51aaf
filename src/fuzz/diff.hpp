/**
 * @file
 * The differential executor: runs one FuzzCase through the three backends —
 * the sequential reference VM (the golden model), the compiled pipeline in
 * sim::PipeSim, and the hXDP baseline's sequential execution engine — and
 * reports the first observable divergence in per-packet XDP verdicts,
 * rewritten packet bytes, redirect targets, or final map state.
 *
 * The pipeline claim under test is the paper's section 4.1 equivalence:
 * whatever hdl::compile accepts must be observationally equal to the VM.
 * Compiler rejections (fail-closed unsupported patterns) are reported as
 * non-divergent "rejected" results so the fuzzer can count and skip them.
 *
 * Cases carrying a host control-plane schedule (FuzzCase::ctl) exercise the
 * src/ctl subsystem instead of the plain drain: the schedule runs against
 * PipeSim and a sharded MultiPipeSim through CtlController, and the VM
 * reference comes from replaying the recorded apply log at the same packet
 * boundaries (ctl::replayScheduleOnVm) — verdicts, rewritten bytes, host
 * op results and final map state must all agree. The hXDP backend is
 * skipped for such cases (its sequential engine has no update timing).
 */

#ifndef EHDL_FUZZ_DIFF_HPP_
#define EHDL_FUZZ_DIFF_HPP_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ctl/channel.hpp"
#include "ctl/controller.hpp"
#include "fuzz/case.hpp"
#include "sim/pipe_sim.hpp"

namespace ehdl::fuzz {

/** One observed disagreement between a backend and the reference VM. */
struct Divergence
{
    std::string backend;  ///< "pipeline" or "hxdp"
    /** Packet on which the disagreement surfaced (0 for whole-run fields). */
    uint64_t packetId = 0;
    /**
     * "action", "bytes", "redirect", "trap", "maps", "completion",
     * "ctl-op", "host", "panic"
     */
    std::string field;
    std::string detail;

    std::string describe() const;
};

/** Outcome of running one case through the executor. */
struct CaseResult
{
    /** hdl::compileWithReport accepted the program. */
    bool compiled = false;
    /** Rendered diagnostics when !compiled. */
    std::string rejectReason;
    /**
     * Pass that rejected the program ("" when compiled). Structured
     * classification straight from the compiler's Diagnostics — the
     * fuzzer aggregates rejection counts per pass with it. The special
     * value "hxdp-frontend" marks rejections raised while building the
     * hXDP baseline before the pipeline compiler ever ran.
     */
    std::string rejectPass;

    std::optional<Divergence> divergence;

    /** Pipeline shape/behaviour statistics (when compiled). */
    size_t numStages = 0;
    uint64_t flushEvents = 0;
    /** Total instructions the reference VM executed over the workload. */
    uint64_t vmInsns = 0;
    /** Full counters of the single-pipeline backend run (when compiled). */
    sim::PipeSimStats pipeStats;
    /** Engine that actually ran the pipeline backend (after fallback). */
    sim::EngineInfo engineInfo;

    bool diverged() const { return divergence.has_value(); }
};

/** Executor knobs. */
struct RunOptions
{
    /** Also cross-check the hXDP baseline's execution engine. */
    bool runHxdp = true;
    /** Input queue depth for the pipeline simulator (large: no losses). */
    size_t inputQueueCapacity = 1u << 20;
    /**
     * Replica count of the MultiPipeSim (sharded maps) cross-check run
     * for cases carrying a ctl schedule; < 2 disables the multi-queue
     * backend for those cases.
     */
    unsigned ctlReplicas = 2;
    /** Mailbox timing for cases carrying a ctl schedule. */
    ctl::CtlChannelConfig ctlChannel;
    /**
     * Stage-execution engine for the pipeline backends (PipeSim and the
     * ctl MultiPipeSim cross-check). The differential contract is
     * engine-independent, so fuzzing under SimEngine::Aot checks the
     * specializer against the VM exactly like the interpreter is
     * checked; divergences shrink the same way.
     */
    sim::SimEngine engine = sim::SimEngine::Interp;
    /** Requested AOT backend when engine == SimEngine::Aot. */
    sim::AotBackend aotBackend = sim::AotBackend::Portable;
    /**
     * Cycle scheduling for the pipeline backends. Event-driven runs are
     * contracted to be bit-identical to dense ones, so fuzzing under
     * SchedMode::EventDriven differentially checks the teleport logic.
     */
    sim::SchedMode schedMode = sim::SchedMode::Dense;
    /** Cross-check the O(1) hazard summaries against the full scan. */
    bool paranoidChecks = false;
    /**
     * Attach a small-ring host DMA datapath (src/host) to every pipeline
     * backend. The host model is a pure retirement observer, so the
     * differential contract must hold unchanged with it attached; a
     * deliberately tiny ring keeps its backpressure paths hot. After the
     * drain, descriptor conservation (consumed + shellDrops == enqueued,
     * enqueued == PASS retirements) is checked and any violation is
     * reported as a divergence with field "host".
     */
    bool hostModel = false;
    /** RX/TX ring depth of the fuzz host model (small on purpose). */
    unsigned hostRingDepth = 16;
};

/**
 * Run @p c through all backends and compare. Deterministic: same case,
 * same result. Panics escaping a backend are converted into a divergence
 * with field "panic" rather than propagated.
 */
CaseResult runCase(const FuzzCase &c, const RunOptions &opts = {});

/**
 * Compare one replica's retirements (@p outcomes) and final maps against
 * the VM replay (ctl::replayScheduleOnVm) of its packet stream @p mine
 * and the ctl apply log, starting from @p vm_maps. Returns the first
 * divergence; adds the VM's executed instructions to @p vm_insns.
 */
std::optional<Divergence> compareCtlReplica(
    const std::string &backend, const ebpf::Program &prog,
    const std::map<std::string, const ebpf::Program *> &programs,
    ebpf::MapSet vm_maps, const std::vector<net::Packet> &mine,
    const ctl::CtlRunReport &report, unsigned replica,
    const std::vector<sim::PacketOutcome> &outcomes,
    const ebpf::MapSet &dev_maps, uint64_t *vm_insns = nullptr);

}  // namespace ehdl::fuzz

#endif  // EHDL_FUZZ_DIFF_HPP_
