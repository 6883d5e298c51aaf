#include "fuzz/diff.hpp"

#include <map>
#include <memory>
#include <sstream>

#include "common/logging.hpp"
#include "ctl/controller.hpp"
#include "ebpf/vm.hpp"
#include "hdl/compiler.hpp"
#include "host/host_dma.hpp"
#include "sim/baselines.hpp"
#include "sim/multi_pipe_sim.hpp"

namespace ehdl::fuzz {

namespace {

/** Per-packet reference record from the golden VM. */
struct RefOutcome
{
    ebpf::ExecResult result;
    std::vector<uint8_t> bytes;
};

std::string
hexPreview(const std::vector<uint8_t> &a, const std::vector<uint8_t> &b)
{
    std::ostringstream os;
    size_t first = 0;
    const size_t n = std::min(a.size(), b.size());
    while (first < n && a[first] == b[first])
        ++first;
    os << "len " << a.size() << " vs " << b.size();
    if (first < n) {
        os << ", first differing byte at offset " << first << " (0x"
           << std::hex << static_cast<int>(a[first]) << " vs 0x"
           << static_cast<int>(b[first]) << std::dec << ")";
    }
    return os.str();
}

std::optional<Divergence>
comparePacket(const std::string &backend, uint64_t id, const RefOutcome &ref,
              ebpf::XdpAction action, bool trapped, uint32_t redirect,
              const std::vector<uint8_t> &bytes)
{
    Divergence d;
    d.backend = backend;
    d.packetId = id;
    if (static_cast<uint32_t>(ref.result.action) !=
        static_cast<uint32_t>(action)) {
        d.field = "action";
        d.detail = "vm=" + std::to_string(
                       static_cast<uint32_t>(ref.result.action)) +
                   " " + backend + "=" +
                   std::to_string(static_cast<uint32_t>(action));
        return d;
    }
    if (ref.result.trapped != trapped) {
        d.field = "trap";
        d.detail = std::string("vm ") +
                   (ref.result.trapped ? "trapped" : "clean") + ", " +
                   backend + " " + (trapped ? "trapped" : "clean");
        return d;
    }
    if (ref.result.redirectIfindex != redirect) {
        d.field = "redirect";
        d.detail = "vm=" + std::to_string(ref.result.redirectIfindex) + " " +
                   backend + "=" + std::to_string(redirect);
        return d;
    }
    if (ref.bytes != bytes) {
        d.field = "bytes";
        d.detail = hexPreview(ref.bytes, bytes);
        return d;
    }
    return std::nullopt;
}

Divergence
wholeRun(const std::string &backend, const std::string &field,
         std::string detail)
{
    Divergence d;
    d.backend = backend;
    d.field = field;
    d.detail = std::move(detail);
    return d;
}

/** Simulator configuration of every pipeline backend. */
sim::PipeSimConfig
pipeConfig(const RunOptions &opts)
{
    sim::PipeSimConfig config;
    config.inputQueueCapacity = opts.inputQueueCapacity;
    config.engine = opts.engine;
    config.aotBackend = opts.aotBackend;
    config.schedMode = opts.schedMode;
    config.paranoidChecks = opts.paranoidChecks;
    return config;
}

/**
 * Fuzz-mode host datapath: a deliberately tiny ring so DMA batching,
 * coalescing, TX re-emit and FIFO backpressure all trigger on the short
 * fuzz workloads. The model only observes retirements, so the
 * differential contract is unaffected by attaching it.
 */
host::HostDmaConfig
fuzzHostConfig(const RunOptions &opts, unsigned queues)
{
    host::HostDmaConfig hc;
    hc.numQueues = queues;
    hc.ringDepth = opts.hostRingDepth;
    hc.shellFifoDepth = opts.hostRingDepth;
    hc.batchSize = 4;
    hc.coalesceCount = 4;
    hc.coalesceTimeoutCycles = 64;
    hc.txReinjectFraction = 0.25;
    return hc;
}

/**
 * Descriptor conservation on a drained host queue: every PASS retirement
 * was either consumed by the host or dropped at the shell FIFO, and
 * nothing is left in flight. Violations are executor bugs surfaced as a
 * divergence with field "host".
 */
std::optional<Divergence>
checkHostQueue(const std::string &backend, const host::HostQueue &q,
               uint64_t pass_packets)
{
    const host::HostQueueCounters &c = q.counters();
    if (c.enqueued != pass_packets)
        return wholeRun(backend, "host",
                        "queue " + std::to_string(q.index()) + " saw " +
                            std::to_string(c.enqueued) +
                            " PASS retirements, pipeline retired " +
                            std::to_string(pass_packets));
    if (c.consumed + c.shellDrops != c.enqueued ||
        c.fifoOccupancy != 0 || c.ringOccupancy != 0)
        return wholeRun(backend, "host",
                        "queue " + std::to_string(q.index()) +
                            " descriptor conservation: enqueued=" +
                            std::to_string(c.enqueued) + " consumed=" +
                            std::to_string(c.consumed) + " shellDrops=" +
                            std::to_string(c.shellDrops) + " fifo=" +
                            std::to_string(c.fifoOccupancy) + " ring=" +
                            std::to_string(c.ringOccupancy));
    return std::nullopt;
}

/** RefOutcome view of one VM-replay outcome (for comparePacket). */
RefOutcome
replayRef(const ctl::CtlVmOutcome &o)
{
    RefOutcome r;
    r.result.action = o.action;
    r.result.trapped = o.trapped;
    r.result.redirectIfindex = o.redirectIfindex;
    r.result.insnsExecuted = o.insnsExecuted;
    r.bytes = o.bytes;
    return r;
}

/**
 * The control-plane variant of the executor: the compiled pipeline runs
 * under PipeSim and a sharded MultiPipeSim with the case's ctl schedule
 * interleaved, each differentially checked against the VM replay of its
 * recorded apply log.
 */
void
runCtlBackends(const FuzzCase &c, const RunOptions &opts,
               const hdl::Pipeline &pipe,
               const std::vector<net::Packet> &packets, CaseResult &result)
{
    // Backend: single pipeline.
    {
        ebpf::MapSet pipe_maps(c.prog.maps);
        try {
            sim::OutcomeLog log;
            sim::PipeSim sim(pipe, pipe_maps, pipeConfig(opts));
            std::unique_ptr<host::HostDatapath> host;
            if (opts.hostModel) {
                host = std::make_unique<host::HostDatapath>(
                    fuzzHostConfig(opts, 1));
                host->attach(sim);
            }
            sim.attachRetireSink(&log);
            for (const net::Packet &pkt : packets)
                sim.offer(pkt);
            ctl::CtlController ctrl(sim, pipe_maps, opts.ctlChannel);
            const ctl::CtlRunReport report = ctrl.run(c.ctl);
            sim.drain();
            result.flushEvents = sim.stats().flushEvents;
            result.pipeStats = sim.stats();
            result.engineInfo = sim.engineInfo();
            if (auto d = compareCtlReplica(
                    "pipeline", c.prog, {}, ebpf::MapSet(c.prog.maps),
                    packets, report, 0, log.outcomes, pipe_maps,
                    &result.vmInsns)) {
                result.divergence = std::move(d);
                return;
            }
            if (host) {
                host->finishAll();
                if (auto d = checkHostQueue("pipeline", host->queue(0),
                                            sim.stats().passPackets)) {
                    result.divergence = std::move(d);
                    return;
                }
            }
        } catch (const PanicError &e) {
            result.divergence = wholeRun("pipeline", "panic", e.what());
            return;
        }
    }

    // Backend: multi-queue replication, sharded maps, mutations fanned
    // out to every replica at its own quiescence boundary.
    if (opts.ctlReplicas >= 2) {
        ebpf::MapSet seed_maps(c.prog.maps);
        sim::MultiPipeSimConfig mc;
        mc.numReplicas = opts.ctlReplicas;
        mc.mapMode = sim::MapMode::Sharded;
        mc.pipe = pipeConfig(opts);
        try {
            std::vector<sim::OutcomeLog> logs(mc.numReplicas);
            sim::MultiPipeSim multi(pipe, seed_maps, mc);
            std::unique_ptr<host::HostDatapath> host;
            if (opts.hostModel) {
                host = std::make_unique<host::HostDatapath>(
                    fuzzHostConfig(opts, mc.numReplicas));
                host->attach(multi);
            }
            for (unsigned r = 0; r < mc.numReplicas; ++r)
                multi.replica(r).attachRetireSink(&logs[r]);
            std::vector<std::vector<net::Packet>> streams(mc.numReplicas);
            for (const net::Packet &pkt : packets)
                streams[multi.dispatch(pkt)].push_back(pkt);
            for (const net::Packet &pkt : packets)
                multi.offer(pkt);
            ctl::CtlController ctrl(multi, opts.ctlChannel);
            const ctl::CtlRunReport report = ctrl.run(c.ctl);
            multi.drain();
            for (unsigned r = 0; r < mc.numReplicas; ++r) {
                if (auto d = compareCtlReplica(
                        "multi", c.prog, {}, ebpf::MapSet(c.prog.maps),
                        streams[r], report, r, logs[r].outcomes,
                        multi.replicaMaps(r))) {
                    result.divergence = std::move(d);
                    return;
                }
            }
            if (host) {
                host->finishAll();
                for (unsigned r = 0; r < mc.numReplicas; ++r) {
                    if (auto d = checkHostQueue(
                            "multi", host->queue(r),
                            multi.replica(r).stats().passPackets)) {
                        result.divergence = std::move(d);
                        return;
                    }
                }
            }
        } catch (const PanicError &e) {
            result.divergence = wholeRun("multi", "panic", e.what());
            return;
        }
    }
}

}  // namespace

std::string
Divergence::describe() const
{
    std::ostringstream os;
    os << backend << " diverges on " << field;
    if (packetId != 0)
        os << " (packet " << packetId << ")";
    if (!detail.empty())
        os << ": " << detail;
    return os.str();
}

std::optional<Divergence>
compareCtlReplica(const std::string &backend, const ebpf::Program &prog,
                  const std::map<std::string, const ebpf::Program *> &programs,
                  ebpf::MapSet vm_maps, const std::vector<net::Packet> &mine,
                  const ctl::CtlRunReport &report, unsigned replica,
                  const std::vector<sim::PacketOutcome> &outcomes,
                  const ebpf::MapSet &dev_maps, uint64_t *vm_insns)
{
    const ctl::CtlVmReplayResult replay = ctl::replayScheduleOnVm(
        prog, programs, mine, report, replica, vm_maps);

    if (outcomes.size() != mine.size())
        return wholeRun(backend, "completion",
                        std::to_string(outcomes.size()) + " of " +
                            std::to_string(mine.size()) +
                            " packets completed");
    // The pipeline retires in offer order, so outcomes align with the
    // replay positionally.
    for (size_t i = 0; i < mine.size(); ++i) {
        const ctl::CtlVmOutcome &ref = replay.outcomes[i];
        const sim::PacketOutcome &out = outcomes[i];
        if (vm_insns != nullptr)
            *vm_insns += ref.insnsExecuted;
        if (out.id != ref.id)
            return wholeRun(backend, "completion",
                            "retirement order: packet " +
                                std::to_string(out.id) + " where " +
                                std::to_string(ref.id) + " expected");
        if (auto d = comparePacket(backend, ref.id, replayRef(ref),
                                   out.action, out.trapped,
                                   out.redirectIfindex, out.bytes))
            return d;
    }
    for (size_t t = 0; t < report.txns.size(); ++t) {
        if (report.txns[t].results[replica] != replay.txnResults[t])
            return wholeRun(backend, "ctl-op",
                            "txn " + std::to_string(t) + " (" +
                                ctl::ctlOpKindName(report.txns[t].txn.kind) +
                                ") device and VM host-op results differ");
    }
    if (!ebpf::MapSet::equal(vm_maps, dev_maps))
        return wholeRun(backend, "maps",
                        "final map state differs\nvm:\n" +
                            vm_maps.dump().substr(0, 400) + "\ndevice:\n" +
                            dev_maps.dump().substr(0, 400));
    return std::nullopt;
}

CaseResult
runCase(const FuzzCase &c, const RunOptions &opts)
{
    CaseResult result;
    const std::vector<net::Packet> packets = c.materializePackets();

    // Cases with an interleaved control-plane schedule take the ctl
    // executor: the VM reference is the replay of the recorded apply log,
    // so the plain run-everything-first golden pass does not apply.
    if (!c.ctl.txns.empty()) {
        hdl::CompileResult compiled =
            hdl::compileWithReport(c.prog, c.options);
        if (!compiled.pipeline) {
            result.rejectReason = compiled.report.diags.render();
            const Diagnostic *first = compiled.report.diags.firstError();
            result.rejectPass = first != nullptr ? first->pass : "unknown";
            return result;
        }
        result.compiled = true;
        result.numStages = compiled.pipeline->numStages();
        runCtlBackends(c, opts, *compiled.pipeline, packets, result);
        return result;
    }

    // Golden model: the sequential VM, packets in arrival order.
    ebpf::MapSet vm_maps(c.prog.maps);
    std::map<uint64_t, RefOutcome> ref;
    {
        ebpf::Vm vm(c.prog, vm_maps);
        for (const net::Packet &pkt : packets) {
            net::Packet copy = pkt;
            RefOutcome r;
            r.result = vm.run(copy);
            r.bytes = copy.bytes();
            result.vmInsns += r.result.insnsExecuted;
            ref.emplace(pkt.id, std::move(r));
        }
    }

    // Backend 2: the hXDP baseline executes the same bytecode sequentially
    // on its VLIW processor model — semantically the VM over its own maps.
    if (opts.runHxdp) {
        ebpf::MapSet hx_maps(c.prog.maps);
        try {
            sim::HxdpModel model(c.prog);  // exercises VLIW scheduling
            (void)model;
            ebpf::Vm vm(c.prog, hx_maps);
            for (const net::Packet &pkt : packets) {
                net::Packet copy = pkt;
                const ebpf::ExecResult r = vm.run(copy);
                const RefOutcome &golden = ref.at(pkt.id);
                if (auto d = comparePacket("hxdp", pkt.id, golden, r.action,
                                           r.trapped, r.redirectIfindex,
                                           copy.bytes())) {
                    result.divergence = std::move(d);
                    return result;
                }
            }
            if (!ebpf::MapSet::equal(vm_maps, hx_maps)) {
                result.divergence =
                    wholeRun("hxdp", "maps", "final map state differs");
                return result;
            }
        } catch (const PanicError &e) {
            result.divergence = wholeRun("hxdp", "panic", e.what());
            return result;
        } catch (const FatalError &e) {
            // The baseline cannot build this program (same front end as
            // the pipeline compiler): fail-closed rejection.
            result.rejectReason = e.what();
            result.rejectPass = "hxdp-frontend";
            return result;
        }
    }

    // Backend 3: the compiled pipeline under cycle-level simulation.
    // Rejections come back as structured diagnostics (never process
    // death): the pass that raised the first error classifies the case.
    hdl::CompileResult compiled = hdl::compileWithReport(c.prog, c.options);
    if (!compiled.pipeline) {
        result.rejectReason = compiled.report.diags.render();
        const Diagnostic *first = compiled.report.diags.firstError();
        result.rejectPass = first != nullptr ? first->pass : "unknown";
        return result;  // fail-closed rejection, not a divergence
    }
    const hdl::Pipeline &pipe = *compiled.pipeline;
    result.compiled = true;
    result.numStages = pipe.numStages();

    ebpf::MapSet pipe_maps(c.prog.maps);
    try {
        sim::OutcomeLog log;
        sim::PipeSim sim(pipe, pipe_maps, pipeConfig(opts));
        std::unique_ptr<host::HostDatapath> host;
        if (opts.hostModel) {
            host = std::make_unique<host::HostDatapath>(
                fuzzHostConfig(opts, 1));
            host->attach(sim);
        }
        sim.attachRetireSink(&log);
        for (const net::Packet &pkt : packets)
            sim.offer(pkt);
        sim.drain();
        if (host) {
            host->finishAll();
            if (auto d = checkHostQueue("pipeline", host->queue(0),
                                        sim.stats().passPackets)) {
                result.divergence = std::move(d);
                return result;
            }
        }
        result.flushEvents = sim.stats().flushEvents;
        result.pipeStats = sim.stats();
        result.engineInfo = sim.engineInfo();

        if (log.outcomes.size() != packets.size()) {
            result.divergence = wholeRun(
                "pipeline", "completion",
                std::to_string(log.outcomes.size()) + " of " +
                    std::to_string(packets.size()) + " packets completed");
            return result;
        }
        std::map<uint64_t, const sim::PacketOutcome *> by_id;
        for (const sim::PacketOutcome &out : log.outcomes)
            by_id[out.id] = &out;
        for (const net::Packet &pkt : packets) {
            const auto it = by_id.find(pkt.id);
            if (it == by_id.end()) {
                result.divergence = wholeRun(
                    "pipeline", "completion",
                    "packet " + std::to_string(pkt.id) + " never exited");
                return result;
            }
            const sim::PacketOutcome &out = *it->second;
            if (auto d = comparePacket("pipeline", pkt.id, ref.at(pkt.id),
                                       out.action, out.trapped,
                                       out.redirectIfindex, out.bytes)) {
                result.divergence = std::move(d);
                return result;
            }
        }
        if (!ebpf::MapSet::equal(vm_maps, pipe_maps)) {
            result.divergence = wholeRun(
                "pipeline", "maps",
                "final map state differs\nvm:\n" +
                    vm_maps.dump().substr(0, 400) + "\npipeline:\n" +
                    pipe_maps.dump().substr(0, 400));
            return result;
        }
    } catch (const PanicError &e) {
        result.divergence = wholeRun("pipeline", "panic", e.what());
        return result;
    }
    return result;
}

}  // namespace ehdl::fuzz
