#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <ostream>

#include "common/rng.hpp"
#include "sim/traffic.hpp"

namespace ehdl::fuzz {

namespace {

/** Distinct streams per iteration derived from the campaign seed. */
uint64_t
mix(uint64_t seed, uint64_t iter, uint64_t stream)
{
    uint64_t z = seed + iter * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Bytes that collide with datapath keys often: packet-derived keys are
 * dominated by small field values, so bias each byte toward [0, 4).
 */
std::vector<uint8_t>
smallBiasedBytes(Rng &rng, size_t n)
{
    std::vector<uint8_t> out(n);
    for (uint8_t &b : out)
        b = rng.chance(0.7) ? static_cast<uint8_t>(rng.below(4))
                            : static_cast<uint8_t>(rng.below(256));
    return out;
}

/** One random map primitive against a random declared map. */
ctl::CtlMapOp
randomMapOp(Rng &rng, const std::vector<ebpf::MapDef> &maps)
{
    const ebpf::MapDef &def = maps[rng.below(maps.size())];
    ctl::CtlMapOp op;
    op.map = def.name;
    op.key = smallBiasedBytes(rng, def.keySize);
    const uint64_t roll = rng.below(10);
    if (roll < 6) {
        op.kind = ctl::CtlOpKind::MapUpdate;
        op.value = smallBiasedBytes(rng, def.valueSize);
        op.flags = rng.chance(0.8)
                       ? ebpf::kBpfAny
                       : (rng.chance(0.5) ? ebpf::kBpfNoExist
                                          : ebpf::kBpfExist);
    } else if (roll < 8) {
        op.kind = ctl::CtlOpKind::MapDelete;
    } else {
        op.kind = ctl::CtlOpKind::MapLookup;
    }
    return op;
}

/**
 * A random timed control-plane schedule over the case's maps. Cycles span
 * the workload (arrivals are in nanoseconds, 4 ns per 250 MHz cycle) plus
 * slack past the last arrival so some transactions land on a draining or
 * empty pipeline.
 */
ctl::CtlSchedule
makeCtlSchedule(uint64_t seed, const FuzzCase &c, const FuzzOptions &opts)
{
    Rng rng(seed);
    const uint64_t last_ns =
        c.packets.empty() ? 0 : c.packets.back().arrivalNs;
    const uint64_t max_cycle = last_ns / 4 + 2000;
    ctl::CtlSchedule sched;
    const unsigned count =
        1 + static_cast<unsigned>(rng.below(opts.ctlMaxTxns));
    for (unsigned i = 0; i < count; ++i) {
        ctl::CtlTxn txn;
        txn.cycle = rng.below(max_cycle + 1);
        const uint64_t roll = rng.below(10);
        if (roll < 7) {
            txn.ops.push_back(randomMapOp(rng, c.prog.maps));
            txn.kind = txn.ops[0].kind;
        } else if (roll < 9) {
            txn.kind = ctl::CtlOpKind::MapBatch;
            const unsigned n = 2 + static_cast<unsigned>(rng.below(3));
            for (unsigned j = 0; j < n; ++j)
                txn.ops.push_back(randomMapOp(rng, c.prog.maps));
        } else {
            txn.kind = ctl::CtlOpKind::StatsRead;
        }
        sched.txns.push_back(std::move(txn));
    }
    std::stable_sort(sched.txns.begin(), sched.txns.end(),
                     [](const ctl::CtlTxn &a, const ctl::CtlTxn &b) {
                         return a.cycle < b.cycle;
                     });
    return sched;
}

}  // namespace

FuzzCase
makeCase(uint64_t seed, uint64_t iter, const FuzzOptions &opts)
{
    FuzzCase c;
    c.programSeed = mix(seed, iter, 1);
    c.trafficSeed = mix(seed, iter, 2);
    c.name = "fuzz-s" + std::to_string(seed) + "-i" + std::to_string(iter);
    c.prog = generateProgram(c.programSeed, opts.gen);

    // Collision-heavy workloads: few flows, and line rates up to 400 Gbps
    // so consecutive packets of 64B frames arrive nearly back-to-back
    // relative to the pipeline clock, maximizing hazard-window overlap.
    Rng rng(c.trafficSeed);
    sim::TrafficConfig tc;
    tc.numFlows = 1 + rng.below(opts.maxFlows);
    tc.zipfS = rng.chance(0.3) ? 1.1 : 0.0;
    tc.packetLen = 64 + 4 * static_cast<uint32_t>(rng.below(8));
    const double rates[] = {40.0, 100.0, 200.0, 400.0};
    tc.lineRateGbps = rates[rng.below(4)];
    tc.reverseFraction = rng.chance(0.25) ? 0.3 : 0.0;
    tc.seed = c.trafficSeed;
    sim::TrafficGen gen(tc);

    const unsigned span = opts.maxPackets - opts.minPackets + 1;
    const unsigned count =
        opts.minPackets + static_cast<unsigned>(rng.below(span));
    for (unsigned i = 0; i < count; ++i) {
        const net::Packet p = gen.next();
        CasePacket cp;
        cp.id = p.id;
        cp.arrivalNs = p.arrivalNs;
        cp.bytes = p.bytes();
        c.packets.push_back(std::move(cp));
    }

    c.options.unsafeDisableWarBuffers = opts.injectWarBug;
    c.options.unsafeDisableFlushBlocks = opts.injectFlushBug;
    if (opts.ctl && !c.prog.maps.empty())
        c.ctl = makeCtlSchedule(mix(seed, iter, 3), c, opts);
    c.expectDivergence = false;
    return c;
}

FuzzStats
runFuzz(const FuzzOptions &opts, std::ostream *log)
{
    FuzzStats stats;
    for (uint64_t iter = 0; iter < opts.iterations; ++iter) {
        const FuzzCase c = makeCase(opts.seed, iter, opts);
        const CaseResult r = runCase(c, opts.run);

        ++stats.iterations;
        stats.packetsRun += c.packets.size();
        stats.vmInsns += r.vmInsns;
        if (r.compiled) {
            ++stats.compiled;
            // Cases run one after another: their cycles add up.
            stats.pipeAgg.cycles += r.pipeStats.cycles;
            stats.pipeAgg.addCounters(r.pipeStats);
            stats.engineInfo = r.engineInfo;
        } else if (!r.diverged()) {
            ++stats.rejected;
            ++stats.rejectedByPass[r.rejectPass.empty() ? "unknown"
                                                        : r.rejectPass];
        }

        if (log && stats.iterations % 500 == 0) {
            *log << "[fuzz] " << stats.iterations << "/" << opts.iterations
                 << " iters, " << stats.compiled << " compiled, "
                 << stats.rejected << " rejected, " << stats.divergences
                 << " divergences\n";
        }
        if (!r.diverged())
            continue;

        ++stats.divergences;
        DivergenceRecord rec;
        rec.iteration = iter;
        rec.original = c;
        rec.divergence = *r.divergence;
        if (log) {
            *log << "[fuzz] iteration " << iter << ": "
                 << r.divergence->describe() << "\n";
        }

        if (opts.shrink) {
            // Shrink under the run options that found the divergence.
            const ShrinkResult s =
                shrinkCase(c, ShrinkOptions{.run = opts.run});
            rec.shrunk = s.best;
            rec.divergence = s.divergence;
            rec.shrinkRuns = s.runs;
            if (log) {
                *log << "[fuzz] shrunk " << s.initialInsns << " -> "
                     << s.finalInsns << " insns, " << s.initialPackets
                     << " -> " << s.finalPackets << " packets ("
                     << s.runs << " runs)\n";
            }
        } else {
            rec.shrunk = c;
            rec.shrunk.expectDivergence = true;
        }

        if (!opts.corpusDir.empty()) {
            rec.savedPath = opts.corpusDir + "/" + rec.shrunk.name +
                            ".ehdlcase";
            saveCase(rec.shrunk, rec.savedPath);
            if (log)
                *log << "[fuzz] reproducer saved to " << rec.savedPath
                     << "\n";
        }
        stats.records.push_back(std::move(rec));
        if (opts.stopAtFirstDivergence)
            break;
    }
    return stats;
}

}  // namespace ehdl::fuzz
