#include "sim/aot/specialize.hpp"

#include "ebpf/helpers.hpp"

namespace ehdl::sim::aot {

using hdl::OpKind;
using hdl::Pipeline;
using hdl::StageOp;

bool
opTouchesMap(OpKind kind)
{
    switch (kind) {
      case OpKind::MapLoad:
      case OpKind::MapStore:
      case OpKind::MapAtomic:
      case OpKind::MapLookup:
      case OpKind::MapUpdate:
      case OpKind::MapDelete:
        return true;
      default:
        return false;
    }
}

namespace {

/** True when any op in the stage reads or writes map state. */
bool
stageTouchesMap(const hdl::Stage &stage)
{
    for (const StageOp &op : stage.ops) {
        if (opTouchesMap(op.kind))
            return true;
        if (op.kind == OpKind::Helper) {
            // Defense in depth: the primitive-map pass classifies map
            // helpers as Map{Lookup,Update,Delete}, so a Helper op is
            // packet-local by construction — but if that invariant ever
            // changes, treat a map-flavoured helper as a map op rather
            // than silently breaking burst correctness.
            const ebpf::HelperInfo *info = ebpf::helperInfo(op.helperId);
            if (info != nullptr && info->isMapOp)
                return true;
        }
    }
    return false;
}

}  // namespace

AotSpec
buildAotSpec(const Pipeline &pipe)
{
    AotSpec spec;
    spec.pipe = &pipe;
    spec.stages.resize(pipe.numStages());

    for (size_t s = 0; s < pipe.numStages(); ++s)
        spec.stages[s].touchesMap = stageTouchesMap(pipe.stages[s]);

    // Run-ahead bursts: walk backwards so each stage inherits the
    // map-free run that starts right behind it.
    const size_t n = pipe.numStages();
    if (n > 0) {
        spec.stages[n - 1].burstEnd = static_cast<uint32_t>(n - 1);
        for (size_t s = n - 1; s-- > 0;) {
            spec.stages[s].burstEnd = spec.stages[s + 1].touchesMap
                                          ? static_cast<uint32_t>(s)
                                          : spec.stages[s + 1].burstEnd;
        }
    }

    // Reads feed only flush-evaluation hazard scans; maps without a
    // flush block can never match one.
    size_t num_maps = pipe.prog.maps.size();
    spec.recordReads.assign(num_maps, 0);
    for (const hdl::FlushBlockPlan &plan : pipe.flushBlocks)
        if (plan.mapId < num_maps)
            spec.recordReads[plan.mapId] = 1;

    // A checkpoint is consumed only by restoreFlight for a flush plan
    // restarting at that buffer; every other elastic crossing would
    // checkpoint state nothing can read back.
    spec.checkpointNeeded.assign(pipe.elasticBuffers.size(), 0);
    for (const hdl::FlushBlockPlan &plan : pipe.flushBlocks) {
        if (plan.restartStage == 0)
            continue;  // restart-0 replays from the pipeline input
        for (size_t i = 0; i < pipe.elasticBuffers.size(); ++i)
            if (pipe.elasticBuffers[i] == plan.restartStage)
                spec.checkpointNeeded[i] = 1;
    }

    // Native fused segments: run until the burst ends or a live elastic
    // buffer needs its checkpoint taken between stages.
    std::vector<uint8_t> live_elastic(n, 0);
    for (size_t i = 0; i < pipe.elasticBuffers.size(); ++i)
        if (spec.checkpointNeeded[i])
            live_elastic[pipe.elasticBuffers[i]] = 1;
    for (size_t s = 0; s < n; ++s) {
        uint32_t e = static_cast<uint32_t>(s);
        while (e < spec.stages[s].burstEnd && !live_elastic[e])
            ++e;
        spec.stages[s].segEnd = e;
    }

    // Entry-stage closure: flights enter at stage 0 (injection and
    // restart-0 replay) or right after a flush restart buffer; from any
    // entry the next execution is right after that entry's burst.
    spec.entryStage.assign(n, 0);
    std::vector<size_t> worklist;
    const auto add_entry = [&](size_t s) {
        if (s < n && !spec.entryStage[s]) {
            spec.entryStage[s] = 1;
            worklist.push_back(s);
        }
    };
    add_entry(0);
    for (const hdl::FlushBlockPlan &plan : pipe.flushBlocks)
        add_entry(plan.restartStage == 0 ? 0 : plan.restartStage + 1);
    while (!worklist.empty()) {
        const size_t s = worklist.back();
        worklist.pop_back();
        add_entry(spec.stages[s].burstEnd + 1);
    }

    return spec;
}

}  // namespace ehdl::sim::aot
