/**
 * @file
 * Execution primitives of the native AOT backend.
 *
 * The AOT engine (docs/PERFORMANCE.md, "AOT-specialized engine") splits
 * a flight's execution in two. The spec (sim/aot/specialize.hpp) decides
 * *where* a flight executes: which stages run as one burst, where a
 * flight can enter, which checkpoints are live and which reads need
 * recording. What a stage *does* is decided either by the interpreter's
 * own `hdl::StageOp` walk (the portable backend, sim/pipe_sim.cpp) or by
 * generated native code (sim/aot/native.hpp).
 *
 * Generated modules include exactly this header: each stage op becomes
 * one call into the inline primitives below, with the instruction passed
 * as a literal. Every primitive delegates to the same `ebpf::ExecState`
 * instruction semantics the interpreter uses, so native code cannot
 * drift from the interpreter on instruction behaviour (including exact
 * trap reasons); the only thing it specializes away is dispatch.
 */

#ifndef EHDL_SIM_AOT_RUNTIME_HPP_
#define EHDL_SIM_AOT_RUNTIME_HPP_

#include <cstdint>
#include <vector>

#include "ebpf/exec.hpp"
#include "ebpf/isa.hpp"
#include "ebpf/xdp.hpp"

namespace ehdl::sim::aot {

/**
 * ABI version stamped into generated native modules and checked at
 * load time. Bump whenever AotCtx, the primitives below, or the
 * generated-code calling convention change shape.
 *
 * v2: table entries are fused *segment* functions — entry s executes
 * stages [s, AotSpec::stages[s].segEnd] in one call — rather than
 * single-stage functions.
 *
 * v3: ExecState (reached through AotCtx) grew copy-on-write dirty
 * tracking, changing its layout; modules built against v2 would update
 * state without marking it dirty and corrupt checkpoints.
 *
 * v4: block enable signals are a byte vector instead of vector<bool>,
 * so blockOn — executed before every generated instruction — is a
 * plain byte load rather than bit arithmetic through a proxy.
 *
 * v5: AotCtx lost its instruction-array pointer (generated code passes
 * every instruction as a literal), shifting the fields behind it.
 */
constexpr uint64_t kAotAbiVersion = 5;

/**
 * The per-flight execution context a specialized stage runs against.
 * All fields point into the simulator's Flight record, so a primitive's
 * side effects land exactly where the interpreter's would.
 */
struct AotCtx
{
    ebpf::ExecState *st = nullptr;
    /** Basic-block enable signals (predication, paper section 3.5). */
    std::vector<uint8_t> *enabled = nullptr;
    bool *exited = nullptr;
    ebpf::XdpAction *action = nullptr;
    uint32_t *redirectIfindex = nullptr;

    bool
    blockOn(uint32_t block) const
    {
        return (*enabled)[block] != 0;
    }
};

// --- Primitives -------------------------------------------------------------
// Each returns true when the packet latches its exit (remaining ops in
// the stage are dead, exactly like the interpreter's executeOp).
//
// Generated modules pass each instruction as a braced Insn literal.
// ExecState::execute/evalCond are header-inline (ebpf/exec_inline.hpp),
// so with every field a compile-time constant the host compiler folds
// the class/op/width dispatch, the operand selects and the memory-size
// switches down to straight-line code per instruction — while still
// running the interpreter's exact bodies.

/** Execute one non-control-flow instruction (ALU/load/store/call). */
inline bool
opExecInsn(AotCtx &c, const ebpf::Insn &insn)
{
    c.st->execute(insn);
    return false;
}

/** Conditional branch: drive the taken or fallthrough enable signal. */
inline bool
opBranchInsn(AotCtx &c, const ebpf::Insn &insn, uint32_t taken_block,
             uint32_t fall_block)
{
    (*c.enabled)[c.st->evalCond(insn) ? taken_block : fall_block] = true;
    return false;
}

/** Unconditional jump / fallthrough enable propagation. */
inline bool
opJump(AotCtx &c, uint32_t taken_block)
{
    (*c.enabled)[taken_block] = true;
    return false;
}

/** Latch the XDP action. */
inline bool
opExit(AotCtx &c)
{
    const uint32_t code = c.st->exitCode();
    *c.action = static_cast<ebpf::XdpAction>(code <= 4 ? code : 0);
    *c.redirectIfindex = c.st->redirectIfindex;
    *c.exited = true;
    return true;
}

// --- Native module interface ------------------------------------------------

/**
 * Signature of one generated segment function. Entry `s` of the module
 * table covers stages [s, segEnd(s)] as straight-line code; an exit op
 * returns out of the whole segment, exactly like the engine skipping
 * the remaining stages of an exited flight. Only entry stages
 * (AotSpec::entryStage) whose segment has ops get a function; every
 * other entry is null.
 */
using NativeStageFn = bool (*)(AotCtx &);

/**
 * The table a generated module exports through its single extern "C"
 * entry point `ehdl_aot_module`. `sourceHash` is the FNV-1a hash of the
 * generated source, which keys the on-disk cache and ties a loaded
 * module to the exact pipeline it specializes. `stages` is indexed by
 * stage (`numStages` entries) and is non-null only at entry stages.
 */
struct NativeModuleTable
{
    uint64_t abiVersion = 0;
    uint64_t sourceHash = 0;
    uint32_t numStages = 0;
    const NativeStageFn *stages = nullptr;
};

using NativeModuleEntry = const NativeModuleTable *(*)();

}  // namespace ehdl::sim::aot

#endif  // EHDL_SIM_AOT_RUNTIME_HPP_
