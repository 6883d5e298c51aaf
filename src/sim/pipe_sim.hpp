/**
 * @file
 * Cycle-level simulator of a compiled eHDL pipeline.
 *
 * One simulated cycle advances every in-flight packet by one stage, exactly
 * like the generated hardware clocked at 250 MHz. The simulator executes
 * the real instruction semantics (via ebpf::ExecState) under the pipeline's
 * predication, WAR delay buffers, flush-evaluation blocks and atomic map
 * primitives, so it is both a performance model (throughput, latency,
 * flush counts — paper figures 9a/9b and table 2) and a correctness oracle
 * (its packet verdicts and final map state are differentially tested
 * against the sequential reference VM).
 */

#ifndef EHDL_SIM_PIPE_SIM_HPP_
#define EHDL_SIM_PIPE_SIM_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ebpf/maps.hpp"
#include "ebpf/xdp.hpp"
#include "hdl/pipeline.hpp"
#include "net/packet.hpp"

namespace ehdl::sim {

/**
 * Execution engine. Both engines share the cycle loop, the hazard
 * machinery and the StageOp walk, so timing, statistics and observable
 * behaviour are bit-identical by construction. The AOT engine
 * specializes *where* a flight executes (bursts, entry stages,
 * checkpoint elision) and can run stages as native code
 * (docs/PERFORMANCE.md, "AOT-specialized engine").
 */
enum class SimEngine : uint8_t {
    /** Per-cycle walk over the pipeline IR (the reference engine). */
    Interp,
    /** Per-program specialized cycle core built ahead of time. */
    Aot,
};

/** Backend of the AOT engine (ignored under SimEngine::Interp). */
enum class AotBackend : uint8_t {
    /**
     * The specialized cycle core running the interpreter's own StageOp
     * walk; needs no toolchain.
     */
    Portable,
    /**
     * Generated C++ compiled by the host toolchain and dlopen'ed;
     * falls back to Portable when unavailable (the fallback reason is
     * reported through EngineInfo).
     */
    Native,
};

/**
 * Cycle-scheduling mode. Both modes account cycles identically (every
 * counter and outcome is bit-identical); EventDriven merely refuses to
 * *spend host time* on cycles where provably nothing observable happens.
 */
enum class SchedMode : uint8_t {
    /** Tick every cycle (the reference scheduling). */
    Dense,
    /**
     * Generalized fast-forward: when no flight can execute, retire, or
     * stall, and no arrival lands, jump the clock to the next event and
     * teleport the in-flight packets the stages they would have drifted.
     * Engages only on hazard-quiet stretches (no replay, no reload
     * stall, no parked writes), so the flush machinery always runs
     * dense.
     */
    EventDriven,
};

/** Simulator configuration. */
struct PipeSimConfig
{
    /** Pipeline clock (the paper's designs close timing at 250 MHz). */
    uint64_t clockHz = 250'000'000;
    /** One pipeline cycle in nanoseconds (4 ns at 250 MHz). */
    double cycleNs() const { return 1e9 / static_cast<double>(clockHz); }
    /** Cycles lost reloading the pipeline after a flush (appendix A.1). */
    unsigned flushReloadCycles = 4;
    /** Input queue depth; arrivals beyond it are lost packets (table 2). */
    size_t inputQueueCapacity = 512;
    /** Stage-execution engine. */
    SimEngine engine = SimEngine::Interp;
    /** Requested AOT backend (engine == SimEngine::Aot only). */
    AotBackend aotBackend = AotBackend::Portable;
    /** Native-module cache dir ("" = $EHDL_AOT_CACHE, else aot-cache). */
    std::string aotCacheDir;
    /** Cycle scheduling (Dense is the reference; see SchedMode). */
    SchedMode schedMode = SchedMode::Dense;
    /**
     * Debug cross-check: run the full per-flight read scan alongside the
     * O(1) hazard summaries and panic if the summary would skip a slot
     * the scan finds a hazard in (a summary false negative, which would
     * silently change modeled behavior).
     */
    bool paranoidChecks = false;
    /** Accumulate per-phase host-time costs (PipeSim::phaseProfile). */
    bool profilePhases = false;
};

/**
 * Host-time cost of each phase of the cycle loop, accumulated when
 * PipeSimConfig::profilePhases is set (seconds of steady_clock time).
 * Execute excludes the nested hazard/flush/checkpoint/commit work, so
 * the six phases partition the instrumented cycle-loop cost.
 */
struct PipeSimPhaseProfile
{
    bool enabled = false;
    double executeSec = 0;        ///< stage execution sweep (both engines)
    double hazardSec = 0;         ///< flush-block hazard evaluation
    double checkpointSec = 0;     ///< elastic-buffer checkpoint capture
    double commitSec = 0;         ///< pending-write batch commits
    double advanceRetireSec = 0;  ///< retire + advance + inject bookkeeping
    double flushSec = 0;          ///< flush harvest + checkpoint restore
};

/** The engine actually running (tools report this in their stats). */
struct EngineInfo
{
    SimEngine engine = SimEngine::Interp;
    /** Active backend when engine == SimEngine::Aot. */
    AotBackend backend = AotBackend::Portable;
    /** A native module is loaded and executing stages. */
    bool nativeLoaded = false;
    /** Why a requested native backend fell back to portable. */
    std::string fallbackReason;

    /** "interp", "aot (portable)" or "aot (native)". */
    std::string
    describe() const
    {
        if (engine == SimEngine::Interp)
            return "interp";
        return backend == AotBackend::Native ? "aot (native)"
                                             : "aot (portable)";
    }
};

/**
 * Parse a tool-facing --engine spec into @p config: "interp", "aot"
 * (portable) or "aot-native" (host-compiled, falls back to portable).
 * Returns false on an unknown spec.
 */
bool parseEngineSpec(const std::string &spec, PipeSimConfig &config);

/**
 * Parse a tool-facing --sched spec into @p mode: "dense" or "event".
 * Returns false (leaving @p mode untouched) on an unknown spec.
 */
bool parseSchedSpec(const std::string &spec, SchedMode &mode);

/** Result of one packet's traversal. */
struct PacketOutcome
{
    uint64_t id = 0;
    ebpf::XdpAction action = ebpf::XdpAction::Aborted;
    uint32_t redirectIfindex = 0;
    bool trapped = false;
    std::string trapReason;
    uint64_t entryCycle = 0;
    uint64_t exitCycle = 0;
    std::vector<uint8_t> bytes;  ///< final packet contents
};

/**
 * Observer of the retirement stream, the only way a packet leaves the
 * simulator (which, like the hardware, keeps no record of it). A sink
 * cannot stall the pipeline or alter any contracted counter, so
 * attaching one never perturbs the bit-identical engine/sched contract.
 * Retirements arrive in order, at most one per simulated cycle, each
 * handed to every attached sink in attach order; the outcome reference
 * is valid only during the call.
 */
class RetireSink
{
  public:
    virtual ~RetireSink() = default;
    virtual void onRetire(uint64_t cycle, const PacketOutcome &out) = 0;
};

/** The recorder: a copy of every retirement, in retire order. */
struct OutcomeLog final : RetireSink
{
    OutcomeLog() = default;
    OutcomeLog(const OutcomeLog &) = delete;  // attached by address
    OutcomeLog &operator=(const OutcomeLog &) = delete;

    std::vector<PacketOutcome> outcomes;

    void
    onRetire(uint64_t, const PacketOutcome &out) override
    {
        outcomes.push_back(out);
    }
};

/** Aggregate counters. */
struct PipeSimStats
{
    uint64_t cycles = 0;
    uint64_t offered = 0;
    uint64_t accepted = 0;
    uint64_t lost = 0;           ///< input-queue overflow drops
    uint64_t completed = 0;
    uint64_t flushEvents = 0;
    uint64_t flushedPackets = 0;
    uint64_t replayedStages = 0;
    uint64_t stallCycles = 0;

    // Per-verdict retirement counters. Verdicts are part of the
    // bit-identical three-way contract, so these are contracted too:
    // they must match across engines, sched modes and the reference VM.
    uint64_t passPackets = 0;
    uint64_t dropPackets = 0;
    uint64_t txPackets = 0;
    uint64_t redirectPackets = 0;
    uint64_t abortedPackets = 0;

    // Incremental-core instrumentation. These do not alter modeled
    // behavior, and the hazard counters legitimately differ between the
    // interpreter and the AOT engine (the specializer prunes read
    // recording), so they are *not* part of the bit-identical parity
    // contract the three-way tests enforce over the counters above.
    uint64_t hazardChecks = 0;         ///< window slots examined
    uint64_t hazardSummarySkips = 0;   ///< slots cleared by the summary
    uint64_t hazardPreciseScans = 0;   ///< slots needing the full scan
    uint64_t commitBatches = 0;        ///< batched pending-write commits
    uint64_t committedWrites = 0;      ///< writes those batches applied
    uint64_t checkpointsTaken = 0;     ///< incremental checkpoints written
    uint64_t checkpointsMaterialized = 0;  ///< chain restores on flush
    uint64_t eventJumps = 0;           ///< event-driven clock jumps
    uint64_t eventSkippedCycles = 0;   ///< cycles those jumps covered

    /**
     * Add every counter of @p s except `cycles` into this one. Callers
     * combine `cycles` themselves: the maximum across concurrent
     * replicas, the sum across sequential runs.
     */
    void addCounters(const PipeSimStats &s);

    /** Achieved forwarding rate over the simulated interval. */
    double
    throughputMpps(uint64_t clock_hz) const
    {
        if (cycles == 0)
            return 0.0;
        const double seconds = static_cast<double>(cycles) /
                               static_cast<double>(clock_hz);
        return static_cast<double>(completed) / seconds / 1e6;
    }
};

/**
 * The simulator. Offer packets (in arrival order), then drain().
 */
class PipeSim
{
  public:
    /**
     * @param pipe The compiled pipeline (must outlive the simulator).
     * @param maps Runtime maps backing the eHDLmap blocks.
     */
    PipeSim(const hdl::Pipeline &pipe, ebpf::MapSet &maps,
            PipeSimConfig config = {});
    ~PipeSim();

    PipeSim(const PipeSim &) = delete;
    PipeSim &operator=(const PipeSim &) = delete;

    /**
     * Enqueue a packet (pkt.arrivalNs orders injection).
     * @return false when the input queue is full: the packet is lost.
     */
    bool offer(net::Packet pkt);

    /** Run until every accepted packet has exited. */
    void drain();

    /** Advance a single cycle. */
    void step();

    /** True when no packet is queued, in flight, or awaiting replay. */
    bool idle() const;

    // ------------------------------------------------------------------
    // Host control-plane hooks (src/ctl). The controller steps the
    // simulator cycle by cycle and uses these to realize packet-boundary
    // quiescence: injection is held, in-flight packets retire through
    // the attached sinks, queued arrivals wait unharmed, and host-side
    // map writes or a program swap apply against an empty pipeline.
    // ------------------------------------------------------------------

    /**
     * While held, step() admits no queued packet into stage 0; arrivals
     * keep accumulating in the input queue (the NIC keeps receiving).
     */
    void holdInjection(bool hold);
    bool injectionHeld() const;

    /**
     * True when no packet occupies a pipeline stage, awaits flush
     * replay, or holds a parked WAR write — i.e. every admitted packet
     * has retired and map state is architecturally settled. Queued
     * (not-yet-admitted) packets do not count: they have executed
     * nothing.
     */
    bool pipelineEmpty() const;

    /** Current simulated cycle (stats().cycles). */
    uint64_t cycle() const { return stats_.cycles; }

    /** Packets waiting in the input queue (admitted by offer()). */
    size_t queuedInput() const;

    /**
     * Cap the idle fast-forward: step() never jumps the cycle counter
     * past @p cycle_limit (it parks there instead of injecting), so a
     * controller with an event scheduled at that cycle observes it on
     * time. UINT64_MAX (the default) disables the cap.
     */
    void setFastForwardLimit(uint64_t cycle_limit);

    /**
     * Replace the compiled pipeline under the running simulator with
     * @p next, carrying over map contents (same MapSet), statistics,
     * attached retire sinks, and every queued input packet. The pipeline
     * must be empty (pipelineEmpty()) — the control plane drains
     * in-flight packets first — and @p next must declare maps identical
     * in shape to the current program's (the control plane checks
     * before submitting). @p next must outlive the simulator.
     */
    void swapPipeline(const hdl::Pipeline &next);

    /** The pipeline currently executing (changes across swapPipeline). */
    const hdl::Pipeline &pipeline() const;

    /**
     * Attach a retirement observer after those already attached (see
     * RetireSink for the call contract). Sinks survive swapPipeline and
     * must outlive the simulator.
     */
    void attachRetireSink(RetireSink *sink) { sinks_.push_back(sink); }

    const PipeSimStats &stats() const { return stats_; }
    const PipeSimConfig &config() const { return config_; }

    /**
     * The engine actually executing stages — after any native-backend
     * fallback, and refreshed when swapPipeline re-specializes.
     */
    const EngineInfo &engineInfo() const { return engineInfo_; }

    /** Average end-to-end latency over completed packets, in nanoseconds. */
    double avgLatencyNs() const;

    /**
     * Per-phase host-time breakdown; enabled only when the config set
     * profilePhases (all-zero otherwise).
     */
    PipeSimPhaseProfile phaseProfile() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    PipeSimConfig config_;
    EngineInfo engineInfo_;
    PipeSimStats stats_;
    /** Sum of exitCycle - entryCycle + 1 over retired packets. */
    uint64_t latencyCycles_ = 0;
    std::vector<RetireSink *> sinks_;
};

}  // namespace ehdl::sim

#endif  // EHDL_SIM_PIPE_SIM_HPP_
