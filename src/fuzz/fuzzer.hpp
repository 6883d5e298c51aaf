/**
 * @file
 * The fuzzing loop: generate a random verifier-accepted XDP program,
 * generate a randomized collision-heavy workload for it, run the
 * differential executor, and on divergence shrink the case to a minimal
 * reproducer and (optionally) save it to a corpus directory.
 */

#ifndef EHDL_FUZZ_FUZZER_HPP_
#define EHDL_FUZZ_FUZZER_HPP_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "fuzz/case.hpp"
#include "fuzz/diff.hpp"
#include "fuzz/gen.hpp"
#include "fuzz/shrink.hpp"

namespace ehdl::fuzz {

/** Fuzzing-campaign configuration. */
struct FuzzOptions
{
    uint64_t seed = 1;
    uint64_t iterations = 1000;

    /** Workload size range (small workloads keep iterations fast while
     *  collision-heavy flow counts still trigger hazards). */
    unsigned minPackets = 24;
    unsigned maxPackets = 96;
    unsigned maxFlows = 6;

    /** Fault injection: compile pipelines with the named hazard machinery
     *  disabled, to prove the fuzzer detects that bug class. */
    bool injectWarBug = false;
    bool injectFlushBug = false;

    /**
     * Interleave a random host control-plane schedule (map updates,
     * deletes, lookups, batches, stats reads at random cycles) into every
     * case, cross-checking VM vs PipeSim vs sharded MultiPipeSim with the
     * src/ctl quiescence semantics.
     */
    bool ctl = false;
    /** Most transactions a generated ctl schedule may carry. */
    unsigned ctlMaxTxns = 8;

    bool shrink = true;
    /** Directory for shrunk reproducers ("" = don't save). */
    std::string corpusDir;
    bool stopAtFirstDivergence = true;

    GeneratorConfig gen;
    /** Run options for every case; shrinking reuses them. */
    RunOptions run;
};

/** One divergence the campaign found. */
struct DivergenceRecord
{
    uint64_t iteration = 0;
    FuzzCase original;     ///< as generated
    FuzzCase shrunk;       ///< after reduction (== original when !shrink)
    Divergence divergence; ///< what the shrunk case exhibits
    size_t shrinkRuns = 0;
    std::string savedPath; ///< corpus file ("" when not saved)
};

/** Aggregate campaign counters. */
struct FuzzStats
{
    uint64_t iterations = 0;
    uint64_t compiled = 0;
    uint64_t rejected = 0;   ///< fail-closed compiler rejections
    uint64_t divergences = 0;
    uint64_t packetsRun = 0;
    uint64_t vmInsns = 0;
    /**
     * Rejections classified by the compiler pass whose diagnostics
     * rejected the program (e.g. "verify", "hazards"); generator quality
     * is judged by this breakdown — a healthy generator should be
     * rejected almost exclusively by the hazard planner, not the
     * verifier.
     */
    std::map<std::string, uint64_t> rejectedByPass;
    std::vector<DivergenceRecord> records;
    /**
     * Summed pipeline-backend counters over every compiled case (cycles
     * here are totals, not a max — campaign runs are sequential), so a
     * campaign's --stats-out JSON reports the same counter vocabulary as
     * `ehdlc sim` and `ehdl-ctl`.
     */
    sim::PipeSimStats pipeAgg;
    /** Engine the pipeline backend ran (from the last compiled case). */
    sim::EngineInfo engineInfo;
};

/**
 * Build the deterministic case for campaign @p seed, iteration @p iter
 * (exposed so tests and the replay path can reconstruct exact inputs).
 */
FuzzCase makeCase(uint64_t seed, uint64_t iter, const FuzzOptions &opts);

/**
 * Run the campaign. Progress and divergence reports go to @p log when
 * non-null. Deterministic for a given FuzzOptions.
 */
FuzzStats runFuzz(const FuzzOptions &opts, std::ostream *log = nullptr);

}  // namespace ehdl::fuzz

#endif  // EHDL_FUZZ_FUZZER_HPP_
