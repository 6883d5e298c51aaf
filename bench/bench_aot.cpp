/**
 * @file
 * AOT engine speedup: host-side simulation rate (simulated cycles per
 * CPU second) of the interpretive engine vs the AOT-specialized engine
 * (both backends) on a saturated single-queue run of each evaluation
 * application. Every AOT row carries a stats-parity bit — the run must
 * reproduce the interpreter's statistics, per-packet outcomes and final
 * map contents bit-for-bit, or the speedup does not count.
 *
 * Results are mirrored into BENCH_aot.json:
 *   rows[].interp_mcyc_per_s / aot_mcyc_per_s / speedup / stats_parity
 *   rows[].native_build_s / native_source_bytes: cold native module
 *     build (wall seconds to construct the simulator, host compile
 *     included, into a fresh private cache) and generated source size
 *   aot_available: the native backend loaded (false reports the reason)
 * EHDL_BENCH_QUICK=1 shrinks packet counts for the CI aot-smoke step.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "common/table.hpp"
#include "sim/aot/native.hpp"
#include "sim/pipe_sim.hpp"

using namespace ehdl;

namespace {

struct EngineRun
{
    sim::PipeSimStats stats;
    std::vector<sim::PacketOutcome> outcomes;
    ebpf::MapSet maps;
    sim::EngineInfo info;
    double cpuSeconds = 0;
    /** Wall time to construct the simulator (native: the module build). */
    double setupSeconds = 0;

    double
    mcycPerSec() const
    {
        return static_cast<double>(stats.cycles) / cpuSeconds / 1e6;
    }
};

/**
 * Saturated single-queue run of @p spec under the given engine; native
 * modules are built into (or loaded from) @p cache_dir.
 */
EngineRun
runEngine(const apps::AppSpec &spec, const hdl::Pipeline &pipe,
          sim::SimEngine engine, sim::AotBackend backend, int num_packets,
          const std::string &cache_dir = "")
{
    EngineRun out;
    out.maps = ebpf::MapSet(spec.prog.maps);
    spec.seedMaps(out.maps);

    sim::TrafficConfig traffic;
    traffic.numFlows = 10000;
    traffic.packetLen = 64;
    traffic.reverseFraction = spec.reverseFraction;
    traffic.ipProto = spec.ipProto;
    sim::TrafficGen gen(traffic);

    sim::PipeSimConfig config;
    config.inputQueueCapacity = 1u << 22;
    config.engine = engine;
    config.aotBackend = backend;
    config.aotCacheDir = cache_dir;
    sim::OutcomeLog log;
    const auto setup_t0 = std::chrono::steady_clock::now();
    sim::PipeSim sim(pipe, out.maps, config);
    out.setupSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - setup_t0)
                           .count();
    sim.attachRetireSink(&log);
    for (int i = 0; i < num_packets; ++i) {
        net::Packet pkt = gen.next();
        pkt.arrivalNs = 0;  // saturating offered load
        sim.offer(std::move(pkt));
    }
    const double t0 = bench::threadCpuSeconds();
    sim.drain();
    out.cpuSeconds = bench::threadCpuSeconds() - t0;
    out.stats = sim.stats();
    out.outcomes = std::move(log.outcomes);
    out.info = sim.engineInfo();
    return out;
}

bool
sameStats(const sim::PipeSimStats &a, const sim::PipeSimStats &b)
{
    return a.cycles == b.cycles && a.offered == b.offered &&
           a.accepted == b.accepted && a.lost == b.lost &&
           a.completed == b.completed && a.flushEvents == b.flushEvents &&
           a.flushedPackets == b.flushedPackets &&
           a.replayedStages == b.replayedStages &&
           a.stallCycles == b.stallCycles;
}

bool
sameOutcomes(const std::vector<sim::PacketOutcome> &a,
             const std::vector<sim::PacketOutcome> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const sim::PacketOutcome &x = a[i];
        const sim::PacketOutcome &y = b[i];
        if (x.id != y.id || x.action != y.action ||
            x.redirectIfindex != y.redirectIfindex ||
            x.trapped != y.trapped || x.entryCycle != y.entryCycle ||
            x.exitCycle != y.exitCycle || x.bytes != y.bytes)
            return false;
    }
    return true;
}

/** Full behavioural parity: stats, per-packet outcomes, map contents. */
bool
parity(const EngineRun &a, const EngineRun &b)
{
    return sameStats(a.stats, b.stats) &&
           sameOutcomes(a.outcomes, b.outcomes) &&
           ebpf::MapSet::equal(a.maps, b.maps);
}

}  // namespace

int
main()
{
    const bool quick = std::getenv("EHDL_BENCH_QUICK") != nullptr;
    const int num_packets = quick ? 20000 : 400000;

    bench::Json json;
    json.set("bench", bench::Json::str("aot"));
    json.set("quick", bench::Json::boolean(quick));

    std::printf("AOT engine speedup "
                "(%d back-to-back 64B packets, 10k flows, single queue)%s\n\n",
                num_packets, quick ? " [quick]" : "");
    TextTable table({"Program", "Interp Mcyc/s", "AOT Mcyc/s", "Speedup",
                     "Native Mcyc/s", "Native build s", "Parity"});

    // A fresh private module cache, so every native row pays (and
    // reports) the cold build a first run of the program pays.
    std::string cache_dir = bench::benchOutputPath("aot-cache.XXXXXX");
    if (mkdtemp(cache_dir.data()) == nullptr) {
        std::fprintf(stderr, "cannot create %s\n", cache_dir.c_str());
        return 1;
    }

    bool aot_available = false;
    std::string native_reason;
    bool all_parity = true;

    // Saturated aggregate rates across the apps (total simulated cycles
    // over total CPU seconds) — the figure the CI perf gate tracks.
    uint64_t agg_cycles = 0;
    double agg_interp_sec = 0, agg_aot_sec = 0, agg_native_sec = 0;

    bench::Json rows = bench::Json::array();
    for (bench::NamedApp &app : bench::paperApps()) {
        const hdl::Pipeline pipe = hdl::compile(app.spec.prog);
        const EngineRun interp =
            runEngine(app.spec, pipe, sim::SimEngine::Interp,
                      sim::AotBackend::Portable, num_packets);
        const EngineRun aot =
            runEngine(app.spec, pipe, sim::SimEngine::Aot,
                      sim::AotBackend::Portable, num_packets);
        const EngineRun native =
            runEngine(app.spec, pipe, sim::SimEngine::Aot,
                      sim::AotBackend::Native, num_packets, cache_dir);
        const size_t source_bytes =
            sim::aot::generateNativeSource(sim::aot::buildAotSpec(pipe))
                .size();

        const bool row_parity =
            parity(interp, aot) && parity(interp, native);
        all_parity = all_parity && row_parity;
        agg_cycles += interp.stats.cycles;
        agg_interp_sec += interp.cpuSeconds;
        agg_aot_sec += aot.cpuSeconds;
        agg_native_sec += native.cpuSeconds;
        if (native.info.nativeLoaded)
            aot_available = true;
        else if (native_reason.empty())
            native_reason = native.info.fallbackReason;

        // Report the faster of the two AOT backends as "the" AOT rate
        // only in the table; the JSON keeps them separate.
        const double speedup = aot.mcycPerSec() / interp.mcycPerSec();
        table.addRow({app.name, fmtF(interp.mcycPerSec(), 1),
                      fmtF(aot.mcycPerSec(), 1), fmtF(speedup, 2) + "x",
                      native.info.nativeLoaded
                          ? fmtF(native.mcycPerSec(), 1)
                          : "n/a",
                      native.info.nativeLoaded
                          ? fmtF(native.setupSeconds, 2)
                          : "n/a",
                      row_parity ? "yes" : "NO"});

        bench::Json row;
        row.set("program", bench::Json::str(app.name));
        row.set("sim_cycles", bench::Json::integer(interp.stats.cycles));
        row.set("packets", bench::Json::integer(num_packets));
        row.set("interp_mcyc_per_s",
                bench::Json::num(interp.mcycPerSec(), 2));
        row.set("aot_mcyc_per_s", bench::Json::num(aot.mcycPerSec(), 2));
        row.set("speedup", bench::Json::num(speedup, 3));
        row.set("native_loaded",
                bench::Json::boolean(native.info.nativeLoaded));
        if (native.info.nativeLoaded) {
            row.set("native_mcyc_per_s",
                    bench::Json::num(native.mcycPerSec(), 2));
            row.set("native_speedup",
                    bench::Json::num(
                        native.mcycPerSec() / interp.mcycPerSec(), 3));
            row.set("native_build_s",
                    bench::Json::num(native.setupSeconds, 3));
        }
        row.set("native_source_bytes", bench::Json::integer(source_bytes));
        row.set("stats_parity", bench::Json::boolean(row_parity));
        rows.push(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
    json.set("rows", std::move(rows));
    std::error_code ec;
    std::filesystem::remove_all(cache_dir, ec);
    {
        const double interp_rate =
            static_cast<double>(agg_cycles) / agg_interp_sec / 1e6;
        const double aot_rate =
            static_cast<double>(agg_cycles) / agg_aot_sec / 1e6;
        const double native_rate =
            static_cast<double>(agg_cycles) / agg_native_sec / 1e6;
        bench::Json agg;
        agg.set("sim_cycles", bench::Json::integer(agg_cycles))
            .set("interp_mcyc_per_s", bench::Json::num(interp_rate, 2))
            .set("aot_mcyc_per_s", bench::Json::num(aot_rate, 2))
            .set("native_mcyc_per_s", bench::Json::num(native_rate, 2))
            .set("native_vs_interp_ratio",
                 bench::Json::num(native_rate / interp_rate, 3));
        json.set("aggregate", std::move(agg));
        std::printf("aggregate: interp %.1f, aot %.1f, native %.1f Mcyc/s "
                    "(native/interp %.2fx)\n",
                    interp_rate, aot_rate, native_rate,
                    native_rate / interp_rate);
    }
    json.set("aot_available", bench::Json::boolean(aot_available));
    if (!aot_available)
        json.set("native_fallback_reason", bench::Json::str(native_reason));
    json.set("stats_parity", bench::Json::boolean(all_parity));

    if (!all_parity)
        std::printf("WARNING: AOT run diverged from the interpreter!\n");
    if (!aot_available)
        std::printf("native backend unavailable: %s\n",
                    native_reason.c_str());

    bench::writeBenchJson("aot", json);
    return all_parity ? 0 : 1;
}
