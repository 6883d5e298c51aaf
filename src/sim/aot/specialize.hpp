/**
 * @file
 * AOT specializer: compiles an `hdl::Pipeline` into the per-program
 * cycle-core plan the AOT simulation engine runs (sim/pipe_sim.hpp with
 * `PipeSimConfig::engine == SimEngine::Aot`).
 *
 * The spec decides *where* a flight executes; the stage ops themselves
 * run either through the interpreter's own `hdl::StageOp` walk (the
 * portable backend) or through generated native code (sim/aot/native.hpp),
 * so the AOT engine has no op semantics of its own. Specialization happens
 * once at load time and buys four things the per-cycle interpreter pays
 * for on every stage of every cycle:
 *
 *  1. **Run-ahead bursts** — stages that touch no map (`burstEnd`) are
 *     provably independent of pipeline timing: every one of their
 *     effects (registers, stack, packet bytes, enable signals, even
 *     elastic-buffer checkpoints) is a function of the flight's own
 *     state. The engine executes the whole map-free run in one go the
 *     cycle its first stage is reached and marks the flight
 *     `lastExecuted = burstEnd`, so the cycles in between reduce to a
 *     skip test. Map-touching stages still execute exactly at the
 *     cycle the flight occupies their slot, which keeps hazard windows,
 *     WAR commit timing, flush statistics and store-to-load forwarding
 *     bit-identical to the interpreter.
 *
 *  2. **Flattened hazard bookkeeping** — reads are recorded only for
 *     maps that appear in some flush-evaluation block (`recordReads`);
 *     reads of other maps can never match a hazard scan, so recording
 *     them is dead work the specializer drops.
 *
 *  3. **Entry-stage closure** — because bursts always run through
 *     `burstEnd`, a flight can only *begin* executing at a statically
 *     known set of stages: stage 0, the stage after each burst end
 *     reachable from an entry, and the stage after each flush block's
 *     restart point. The engine's per-cycle sweep consults
 *     `entryStage` and skips every other slot without touching the
 *     flight record at all (`sim/pipe_sim.cpp`, stepOnce). Entry
 *     stages are also the only native *segment starts*: the engine
 *     walks an entry's burst one segment (`segEnd`) at a time, and a
 *     segment ends short of `burstEnd` only at a live elastic buffer —
 *     a flush restart point, whose successor is itself an entry. The
 *     native backend emits a function per entry stage only, so each
 *     stage's ops are generated once and module size is linear in
 *     program size.
 *
 *  4. **Checkpoint elision** — an elastic-buffer checkpoint is consumed
 *     only by a flush whose plan restarts at that buffer
 *     (`restoreFlight`). Buffers no flush block restarts from
 *     (`checkpointNeeded[i] == 0`) would checkpoint dead state every
 *     crossing; the AOT engine skips them. The interpreter keeps
 *     writing every checkpoint so it stays the unoptimized oracle.
 *
 * The interpreter remains the differential oracle: tests/test_aot.cpp
 * asserts bit-identical outcomes, statistics and map state across both
 * engines for every built-in app.
 */

#ifndef EHDL_SIM_AOT_SPECIALIZE_HPP_
#define EHDL_SIM_AOT_SPECIALIZE_HPP_

#include <cstdint>
#include <vector>

#include "hdl/pipeline.hpp"

namespace ehdl::sim::aot {

/** The specialized cycle-core plan for one compiled pipeline. */
struct AotSpec
{
    /** One specialized stage. */
    struct StageInfo
    {
        /**
         * Deepest stage e such that every stage in (this, e] is
         * map-free; the engine executes through e in one burst. Equals
         * the stage's own index when the next stage touches a map.
         */
        uint32_t burstEnd = 0;
        /**
         * End of the native fused segment starting here: the run
         * [stage, segEnd] contains no map-touching successor and no
         * live elastic buffer before segEnd, so the native backend
         * emits it as one straight-line function and the engine
         * checkpoints (at most) once per segment, at segEnd.
         */
        uint32_t segEnd = 0;
        /** Stage touches a map (executes only at its own cycle). */
        bool touchesMap = false;
    };

    const hdl::Pipeline *pipe = nullptr;
    std::vector<StageInfo> stages;
    /** Per map id: record reads for hazard scans (map has a flush block). */
    std::vector<uint8_t> recordReads;
    /**
     * Per stage: a flight can start executing here (stage 0, a stage
     * right after a reachable burst end, or the re-entry stage of a
     * flush restart). Every other slot is provably mid-burst — its
     * occupant always satisfies lastExecuted >= stage.
     */
    std::vector<uint8_t> entryStage;
    /**
     * Per elastic-buffer index (parallel to Pipeline::elasticBuffers):
     * some flush block restarts at this buffer, so its checkpoint can
     * actually be consumed. Dead buffers are skipped by the engine.
     */
    std::vector<uint8_t> checkpointNeeded;
};

/**
 * Build the specialized plan. The returned spec holds pointers into
 * @p pipe, which must outlive it.
 */
AotSpec buildAotSpec(const hdl::Pipeline &pipe);

/** True when @p kind reads or writes map state. */
bool opTouchesMap(hdl::OpKind kind);

}  // namespace ehdl::sim::aot

#endif  // EHDL_SIM_AOT_SPECIALIZE_HPP_
