#include "ctl/controller.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "common/logging.hpp"
#include "ebpf/vm.hpp"

namespace ehdl::ctl {

namespace {

/** Steps a simulator until its clock reaches @p cycle. */
void
advanceTo(sim::PipeSim &s, uint64_t cycle)
{
    s.setFastForwardLimit(cycle);
    while (s.cycle() < cycle)
        s.step();
}

/** Holds injection and retires every in-flight packet. */
void
quiesce(sim::PipeSim &s)
{
    s.holdInjection(true);
    const uint64_t guard = s.cycle() + 1000000ULL +
                           2000ULL * s.pipeline().numStages();
    while (!s.pipelineEmpty()) {
        s.step();
        if (s.cycle() > guard)
            panic("ctl quiesce did not empty the pipeline (livelock?)");
    }
}

}  // namespace

void
applyHostTxn(ebpf::MapSet &maps, const CtlTxn &txn,
             std::vector<CtlOpResult> &results)
{
    results.clear();
    results.reserve(txn.ops.size());
    std::set<ebpf::Map *> touched;
    for (const CtlMapOp &op : txn.ops) {
        ebpf::Map *map = maps.byName(op.map);
        if (map == nullptr)
            fatal("ctl: unknown map '", op.map, "'");
        CtlOpResult res;
        switch (op.kind) {
          case CtlOpKind::MapLookup: {
              const auto value = map->hostLookup(op.key);
              res.hit = value.has_value();
              if (value)
                  res.value = *value;
              break;
          }
          case CtlOpKind::MapUpdate:
            res.rc = map->hostUpdate(op.key, op.value, op.flags);
            if (res.rc == 0)
                touched.insert(map);
            break;
          case CtlOpKind::MapDelete:
            res.rc = map->hostDelete(op.key);
            if (res.rc == 0)
                touched.insert(map);
            break;
          default:
            fatal("ctl: ", ctlOpKindName(op.kind),
                  " is not a map primitive");
        }
        results.push_back(std::move(res));
    }
    // One host write transaction = one new update epoch per touched map,
    // regardless of how many primitives the batch carried.
    for (ebpf::Map *map : touched)
        map->bumpGeneration();
}

CtlController::CtlController(sim::PipeSim &sim, ebpf::MapSet &maps,
                             CtlChannelConfig config)
    : channel_(config)
{
    sims_.push_back(&sim);
    maps_.push_back(&maps);
}

CtlController::CtlController(sim::MultiPipeSim &multi,
                             CtlChannelConfig config)
    : multi_(&multi), channel_(config)
{
    for (size_t r = 0; r < multi.numReplicas(); ++r) {
        sims_.push_back(&multi.replica(r));
        maps_.push_back(&multi.replicaMaps(r));
    }
}

void
CtlController::addProgram(const std::string &label, const hdl::Pipeline &pipe)
{
    programs_[label] = &pipe;
}

void
CtlController::validate(const CtlSchedule &sched) const
{
    uint64_t prev = 0;
    for (const CtlTxn &txn : sched.txns) {
        if (txn.cycle < prev)
            fatal("ctl schedule transactions must be in cycle order");
        prev = txn.cycle;
        switch (txn.kind) {
          case CtlOpKind::MapLookup:
          case CtlOpKind::MapUpdate:
          case CtlOpKind::MapDelete:
            if (txn.ops.size() != 1 || txn.ops[0].kind != txn.kind)
                fatal("ctl: ", ctlOpKindName(txn.kind),
                      " transaction must carry exactly its one op");
            break;
          case CtlOpKind::MapBatch:
            if (txn.ops.empty())
                fatal("ctl: empty map_batch");
            if (txn.ops.size() > channel_.config().maxBatchOps)
                fatal("ctl: map_batch of ", txn.ops.size(),
                      " ops exceeds the channel limit of ",
                      channel_.config().maxBatchOps);
            break;
          case CtlOpKind::SwapProgram:
            if (programs_.find(txn.program) == programs_.end())
                fatal("ctl: swap_program target '", txn.program,
                      "' is not registered");
            break;
          case CtlOpKind::StatsStream:
            if (txn.streamPeriod == 0 || txn.streamCount == 0)
                fatal("ctl: stats_stream needs a nonzero period and count");
            if (txn.streamCount > 65536)
                fatal("ctl: stats_stream of ", txn.streamCount,
                      " samples exceeds the limit of 65536");
            break;
          case CtlOpKind::StatsRead:
          case CtlOpKind::Drain:
            break;
        }
        for (const CtlMapOp &op : txn.ops)
            if (maps_[0]->byName(op.map) == nullptr)
                fatal("ctl: unknown map '", op.map, "'");
    }
}

void
CtlController::applyOnReplica(size_t r, const CtlTxn &txn,
                              uint64_t device_cycle, CtlTxnRecord &rec)
{
    sim::PipeSim &s = *sims_[r];
    advanceTo(s, device_cycle);
    if (txn.kind == CtlOpKind::StatsRead) {
        // Side-band register read: no quiescence, no datapath cost.
        rec.applyCycle[r] = s.cycle();
        rec.retiredBefore[r] = s.stats().completed;
        rec.statsSnapshot[r] = s.stats();
        return;
    }
    if (txn.kind == CtlOpKind::StatsStream) {
        // Device-side autonomous sampling: one mailbox transaction, the
        // device samples every streamPeriod cycles, streamCount times.
        // Side-band like stats_read — the datapath never quiesces — but
        // the mailbox stays busy until the last sample ships.
        std::vector<CtlStreamSample> &series = rec.streamSamples[r];
        series.reserve(txn.streamCount);
        for (uint64_t i = 0; i < txn.streamCount; ++i) {
            const uint64_t at = device_cycle + i * txn.streamPeriod;
            advanceTo(s, at);
            CtlStreamSample sample;
            sample.cycle = s.cycle();
            sample.stats = s.stats();
            if (host_ != nullptr && r < host_->numQueues()) {
                sample.hostValid = true;
                sample.host = host_->queue(static_cast<unsigned>(r))
                                  .sampleAt(sample.cycle);
            }
            series.push_back(std::move(sample));
        }
        rec.applyCycle[r] = s.cycle();
        rec.retiredBefore[r] = s.stats().completed;
        return;
    }
    if (txn.kind == CtlOpKind::Drain) {
        s.setFastForwardLimit(UINT64_MAX);
        s.drain();
        rec.applyCycle[r] = s.cycle();
        rec.retiredBefore[r] = s.stats().completed;
        return;
    }
    quiesce(s);
    rec.applyCycle[r] = s.cycle();
    rec.retiredBefore[r] = s.stats().completed;
    if (txn.kind == CtlOpKind::SwapProgram)
        s.swapPipeline(*programs_.at(txn.program));
    else
        applyHostTxn(*maps_[r], txn, rec.results[r]);
    s.holdInjection(false);
}

CtlRunReport
CtlController::run(const CtlSchedule &sched)
{
    validate(sched);
    const size_t replicas = sims_.size();
    CtlRunReport report;
    report.numReplicas = static_cast<unsigned>(replicas);
    report.txns.reserve(sched.txns.size());

    for (const CtlTxn &txn : sched.txns) {
        CtlTxnRecord rec;
        rec.txn = txn;
        rec.submitCycle = channel_.submit(txn.cycle);
        rec.deviceCycle = rec.submitCycle + channel_.upLatency();
        rec.applyCycle.assign(replicas, 0);
        rec.retiredBefore.assign(replicas, 0);
        rec.results.resize(replicas);
        if (txn.kind == CtlOpKind::StatsRead)
            rec.statsSnapshot.resize(replicas);
        // Preallocated before any worker runs: each threaded worker then
        // writes only its own replica's series.
        if (txn.kind == CtlOpKind::StatsStream)
            rec.streamSamples.resize(replicas);

        // Each call writes only its own replica's record slots, so the
        // threaded and sequential schedules record the same result; a
        // threaded simulator costs one barrier (the join) per transaction.
        const auto apply = [&](size_t r) {
            applyOnReplica(r, txn, rec.deviceCycle, rec);
        };
        if (multi_ != nullptr)
            multi_->forEachReplica(apply);
        else
            apply(0);

        const uint64_t apply_max = *std::max_element(rec.applyCycle.begin(),
                                                     rec.applyCycle.end());
        rec.completeCycle = channel_.complete(apply_max);
        report.txns.push_back(std::move(rec));
    }

    // Leave the simulator in a plain runnable state for the caller's
    // final drain.
    for (sim::PipeSim *s : sims_) {
        s->setFastForwardLimit(UINT64_MAX);
        s->holdInjection(false);
    }
    return report;
}

CtlVmReplayResult
replayScheduleOnVm(const ebpf::Program &prog,
                   const std::map<std::string, const ebpf::Program *> &programs,
                   const std::vector<net::Packet> &packets,
                   const CtlRunReport &report, unsigned replica,
                   ebpf::MapSet &maps)
{
    CtlVmReplayResult out;
    out.txnResults.resize(report.txns.size());
    const ebpf::Program *current = &prog;
    auto vm = std::make_unique<ebpf::Vm>(*current, maps);

    size_t next_txn = 0;
    const auto applyDue = [&](uint64_t boundary) {
        while (next_txn < report.txns.size() &&
               report.txns[next_txn].retiredBefore.at(replica) <= boundary) {
            const CtlTxnRecord &rec = report.txns[next_txn];
            switch (rec.txn.kind) {
              case CtlOpKind::StatsRead:
              case CtlOpKind::StatsStream:
              case CtlOpKind::Drain:
                break;  // timing-only: no architectural effect
              case CtlOpKind::SwapProgram: {
                  const auto it = programs.find(rec.txn.program);
                  if (it == programs.end())
                      fatal("ctl replay: swap target '", rec.txn.program,
                            "' has no registered program");
                  current = it->second;
                  vm = std::make_unique<ebpf::Vm>(*current, maps);
                  break;
              }
              default:
                applyHostTxn(maps, rec.txn, out.txnResults[next_txn]);
            }
            ++next_txn;
        }
    };

    for (size_t i = 0; i < packets.size(); ++i) {
        // A transaction recorded with retiredBefore == i applied after
        // packet i-1 retired and before packet i entered the pipeline.
        applyDue(i);
        net::Packet copy = packets[i];
        const ebpf::ExecResult r = vm->run(copy);
        CtlVmOutcome o;
        o.id = packets[i].id;
        o.action = r.action;
        o.trapped = r.trapped;
        o.redirectIfindex = r.redirectIfindex;
        o.insnsExecuted = r.insnsExecuted;
        o.bytes = copy.bytes();
        out.outcomes.push_back(std::move(o));
    }
    applyDue(UINT64_MAX);  // transactions after the last retirement
    return out;
}

}  // namespace ehdl::ctl
