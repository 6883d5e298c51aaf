/**
 * @file
 * The repo benchmark program (see perfbench/README.md).
 *
 * One process runs one workload for one seed:
 *
 *   ehdl_perfbench --workload W --seed N --seconds S --trace 0|1
 *                  --aot-cache DIR [--setup-only] [--trace-out FILE]
 *   ehdl_perfbench --probe
 *
 * --setup-only builds the workload (compile, specialize, native AOT build
 * into DIR, map seeding) and exits; perfbench/run.py times such processes
 * for setup_s; --probe prints the host speed index that scales them.
 * Otherwise the workload's jobs run back to back for S
 * seconds, the first pass of jobs is checked against the reference VM,
 * and one JSON object with the metrics is printed as the last line.
 *
 * Every layer is observed from outside, by timing calls into its public
 * functions. With --trace 1 the run first measures untraced, then again
 * traced (phase profiling, per-call timers, tee retire sink), and reports
 * per-layer metrics; spans are kept in memory and written at exit.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "ctl/controller.hpp"
#include "ebpf/vm.hpp"
#include "fuzz/fuzzer.hpp"
#include "hdl/compiler.hpp"
#include "host/host_dma.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/traffic.hpp"

namespace {

using namespace ehdl;

constexpr uint64_t kClockHz = 250'000'000;
constexpr double kNsPerCycle = 1e9 / static_cast<double>(kClockHz);

// --- Workload shapes ---------------------------------------------------------

/** sat64_apps: packets per job and jobs per app in the checked pass. */
constexpr unsigned kSatJobPackets = 4096;
constexpr unsigned kSatJobsPerApp = 8;
/** caida_4q_host_ctl: packets per job, jobs in the checked pass. */
constexpr unsigned kCaidaJobPackets = 8192;
constexpr unsigned kCaidaPassJobs = 8;
constexpr unsigned kCaidaReplicas = 4;
constexpr double kCaidaHostFlowFraction = 0.3;
constexpr double kCaidaHostRateMpps = 1.8;  ///< per queue, below PASS load
constexpr unsigned kCaidaRingDepth = 64;
constexpr unsigned kCaidaShellFifo = 16;
/** fuzz_diff: cases whose model counters are reported (always run). */
constexpr uint64_t kFuzzModelCases = 1500;
/** fuzz_diff: cases between moves of the measuring thread. */
constexpr uint64_t kFuzzWindowCases = 250;
/**
 * Mean CPU time of one host-speed probe on the reference host, a 4-vCPU
 * KVM guest on a 2.0 GHz Xeon (Sapphire Rapids). Host times are reported
 * as if measured at this speed.
 */
constexpr double kProbeRefSec = 0.00045;
/** Job CPU time between two host-speed probes. */
constexpr double kSegmentSec = 0.004;
/** Probes behind one --probe figure, spread over the allowed CPUs. */
constexpr unsigned kStandaloneProbes = 200;
/**
 * Median probe time of --probe on the reference host. Back-to-back probes
 * run warmer than probes between jobs, hence a constant of their own.
 */
constexpr double kStandaloneRefSec = 0.00040;

const char *const kAppLabels[] = {"firewall", "router", "tunnel", "dnat",
                                  "suricata"};

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time of the calling thread (steal and preemption excluded). */
double
cpuSec()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t
mix(uint64_t seed, uint64_t a, uint64_t b)
{
    uint64_t z = seed + a * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Digest of one packet's observable result (verdict, redirect, trap, bytes). */
uint64_t
outcomeDigest(ebpf::XdpAction action, uint32_t redirect, bool trapped,
              const uint8_t *bytes, size_t len)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto put = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
        h ^= h >> 29;
    };
    put(static_cast<uint64_t>(action));
    put(redirect);
    put(trapped ? 1 : 0);
    put(len);
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t w;
        std::memcpy(&w, bytes + i, 8);
        put(w);
    }
    uint64_t tail = 0;
    if (len > i)
        std::memcpy(&tail, bytes + i, len - i);
    put(tail);
    return h;
}

uint64_t
foldDigest(uint64_t stream, uint64_t pkt)
{
    return mix(stream, pkt, 1);
}

/** Value at quantile @p q (0..1) of a cycle histogram. */
double
histQuantile(const std::vector<uint64_t> &hist, double q)
{
    uint64_t total = 0;
    for (uint64_t c : hist)
        total += c;
    if (total == 0)
        return 0;
    const uint64_t rank = static_cast<uint64_t>(std::ceil(q * total));
    uint64_t seen = 0;
    for (size_t i = 0; i < hist.size(); ++i) {
        seen += hist[i];
        if (seen >= std::max<uint64_t>(rank, 1))
            return static_cast<double>(i);
    }
    return static_cast<double>(hist.size() - 1);
}

/** Linear-interpolated quantile of @p v (sorted in place). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
phaseTotal(const sim::PipeSimPhaseProfile &p)
{
    return p.executeSec + p.hazardSec + p.checkpointSec + p.commitSec +
           p.advanceRetireSec + p.flushSec;
}

void
addPhases(sim::PipeSimPhaseProfile &acc, const sim::PipeSimPhaseProfile &p)
{
    acc.executeSec += p.executeSec;
    acc.hazardSec += p.hazardSec;
    acc.checkpointSec += p.checkpointSec;
    acc.commitSec += p.commitSec;
    acc.advanceRetireSec += p.advanceRetireSec;
    acc.flushSec += p.flushSec;
}

void
addStats(sim::PipeSimStats &acc, const sim::PipeSimStats &s)
{
    acc.cycles += s.cycles;
    acc.offered += s.offered;
    acc.completed += s.completed;
    acc.passPackets += s.passPackets;
    acc.lost += s.lost;
    acc.flushEvents += s.flushEvents;
    acc.replayedStages += s.replayedStages;
    acc.stallCycles += s.stallCycles;
    acc.hazardChecks += s.hazardChecks;
    acc.hazardSummarySkips += s.hazardSummarySkips;
    acc.checkpointsTaken += s.checkpointsTaken;
    acc.checkpointsMaterialized += s.checkpointsMaterialized;
    acc.eventSkippedCycles += s.eventSkippedCycles;
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

/**
 * Moves the measuring thread to the next allowed CPU at each pass of
 * jobs (or kFuzzWindowCases cases). On a shared VM the vCPUs can run at
 * visibly different speeds (one ~1.5x faster than the rest for minutes),
 * and a thread that stays where the scheduler put it makes whole runs
 * fast or slow. Rotating gives every run the same mix of CPUs.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&initial_);
        if (sched_getaffinity(0, sizeof initial_, &initial_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &initial_))
                cpus_.push_back(c);
    }

    ~CpuRotation() { sched_setaffinity(0, sizeof initial_, &initial_); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t initial_;
    std::vector<int> cpus_;
    size_t turn_ = 0;
};

/**
 * Scales job times to the reference host. On a shared VM the speed of a
 * vCPU flips between levels up to ~2x apart every few tens of ms, with
 * the load of other tenants on the same cores; CPU time does not see it
 * and the mix differs from run to run. A probe is fixed work that never
 * changes, so its time moves only with the host: independent multiply
 * chains, a byte-code switch over a 64 KiB table and a small sort. The
 * loops probe between jobs whenever kSegmentSec of job time has passed,
 * and each job's time is scaled by the mean of the two probes around it.
 */
class HostSpeed
{
  public:
    /** One probe; returns its CPU time. */
    static double
    probeOnce()
    {
        static std::vector<uint32_t> table(1u << 14);
        static std::vector<uint32_t> keys(512);
        static uint64_t sink = 0;
        const double t0 = cpuSec();
        uint64_t a = 1, b = 2, c = 3, d = 4, h = sink;
        for (unsigned i = 0; i < 50000; ++i) {
            a = a * 6364136223846793005ULL + 1;
            b = b * 2862933555777941757ULL + 3;
            c = c * 3202034522624059733ULL + 5;
            d = d * 3935559000370003845ULL + 7;
            h ^= (a >> 17) + (b >> 23) + (c >> 29) + (d >> 31);
        }
        uint64_t x = 0x9e3779b97f4a7c15ULL;
        uint32_t acc = static_cast<uint32_t>(h);
        for (unsigned i = 0; i < 10000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            uint32_t &slot = table[(x >> 32) & (table.size() - 1)];
            switch (x >> 61) {
              case 0: slot += acc; break;
              case 1: acc ^= slot >> 3; break;
              case 2: slot = slot * 33 + static_cast<uint32_t>(x); break;
              case 3: acc += slot & 0xff; break;
              case 4:
                if (slot & 1)
                    acc -= slot;
                else
                    slot ^= acc;
                break;
              case 5: acc = (acc << 5) | (acc >> 27); break;
              case 6: slot -= static_cast<uint32_t>(x >> 16); break;
              default: acc ^= static_cast<uint32_t>(x); break;
            }
        }
        for (int r = 0; r < 2; ++r) {
            for (uint32_t &k : keys) {
                x = x * 6364136223846793005ULL + 1;
                k = static_cast<uint32_t>(x >> 33);
            }
            std::sort(keys.begin(), keys.end());
        }
        sink = acc + keys[7];
        return cpuSec() - t0;
    }

    /** Probe now: ends the current segment, starts the next. */
    void
    probe()
    {
        probes_.push_back(probeOnce());
        sinceProbe_ = 0;
    }

    /** Record a job of @p cpu seconds; probes when the segment is full. */
    void
    addJob(double cpu)
    {
        jobs_.push_back(cpu);
        segment_.push_back(probes_.size() - 1);
        sinceProbe_ += cpu;
        if (sinceProbe_ >= kSegmentSec)
            probe();
    }

    /** Close the last segment (call once after the last job). */
    void
    finish()
    {
        if (sinceProbe_ > 0 || probes_.size() < 2)
            probe();
    }

    /** Each job's CPU time scaled to the reference host. */
    std::vector<double>
    refJobSec() const
    {
        std::vector<double> out(jobs_.size());
        for (size_t j = 0; j < jobs_.size(); ++j) {
            const size_t s = segment_[j];
            out[j] = jobs_[j] * 2 * kProbeRefSec /
                     (probes_[s] + probes_[s + 1]);
        }
        return out;
    }

    /** Host speed relative to the reference host (> 1 is faster). */
    double
    index() const
    {
        return probes_.empty() ? 1.0 : kProbeRefSec / quantile(probes_, 0.5);
    }

    double
    probeSec() const
    {
        double t = 0;
        for (double p : probes_)
            t += p;
        return t;
    }

  private:
    std::vector<double> probes_;
    std::vector<double> jobs_;
    std::vector<size_t> segment_;  ///< probe before each job
    double sinceProbe_ = 0;
};

// --- Tracing -----------------------------------------------------------------

/** One span around a call into a layer; per-packet calls are summed. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
};

/** In-memory span recorder (active only on the traced pass). */
class Tracer
{
  public:
    bool on = false;

    int
    begin(const std::string &name)
    {
        if (!on)
            return -1;
        spans_.push_back({name, nowSec(), 0, current_});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        spans_[id].end = nowSec();
        current_ = spans_[id].parent;
    }

    /** Add a summed per-call span (start..start+seconds) under the current. */
    void
    summed(const std::string &name, double start, double seconds)
    {
        if (on && seconds > 0)
            spans_.push_back({name, start, start + seconds, current_});
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return;
        out << "{\"spans\":[\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                          "\"end\":%.9f,\"parent\":%d}%s\n",
                          i, spans_[i].name.c_str(), spans_[i].start,
                          spans_[i].end, spans_[i].parent,
                          i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
    }

  private:
    std::vector<Span> spans_;
    int current_ = -1;
};

Tracer g_trace;

/** RAII span. */
class Scope
{
  public:
    explicit Scope(const std::string &name) : id_(g_trace.begin(name)) {}
    ~Scope() { g_trace.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id_;
};

/** Per-layer host time of one measured loop (wall seconds). */
struct LayerTimes
{
    double traffic = 0, offer = 0, lifecycle = 0, pipe = 0, host = 0,
           ctl = 0, multiDrain = 0, makeCase = 0, runCase = 0, probe = 0,
           speedProbe = 0;
    double hostFinish = 0, hostTee = 0, drain = 0, ctlRun = 0;
    uint64_t teeCalls = 0;
    double busySum = 0, drainWallSum = 0;  ///< for multi.busy_frac

    double
    covered() const
    {
        return traffic + offer + lifecycle + pipe + host + ctl + multiDrain +
               makeCase + runCase + probe + speedProbe;
    }
};

// --- Retire sink ---------------------------------------------------------------

/**
 * The benchmark's own retirement observer for one queue: modeled latency
 * histogram and per-packet result digests, forwarding to the host queue
 * when host rings are on. On the traced pass it also times the host call.
 */
class Recorder final : public sim::RetireSink
{
  public:
    host::HostQueue *host = nullptr;
    bool timeHost = false;
    double hostSec = 0;
    uint64_t hostCalls = 0;
    uint64_t stream = 0;
    std::vector<uint64_t> *perPacket = nullptr;  ///< checked pass only
    std::vector<uint64_t> latHist;

    void
    onRetire(uint64_t cycle, const sim::PacketOutcome &out) override
    {
        const uint64_t d =
            outcomeDigest(out.action, out.redirectIfindex, out.trapped,
                          out.bytes.data(), out.bytes.size());
        stream = foldDigest(stream, d);
        if (perPacket != nullptr)
            perPacket->push_back(d);
        const uint64_t lat = out.exitCycle - out.entryCycle;
        if (lat >= latHist.size())
            latHist.resize(lat + 1, 0);
        ++latHist[lat];
        if (host == nullptr)
            return;
        if (!timeHost) {
            host->onRetire(cycle, out);
            return;
        }
        const double t0 = nowSec();
        host->onRetire(cycle, out);
        hostSec += nowSec() - t0;
        ++hostCalls;
    }
};

// --- Workload plumbing -----------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;
    std::string aotCache = "aot-cache";
    std::string traceOut;
};

/** One compiled program ready to simulate. */
struct Rig
{
    apps::AppSpec spec;
    hdl::CompileReport report;
    std::unique_ptr<hdl::Pipeline> pipe;
    ebpf::MapSet seeded;
    double aotBuildSec = 0;
    sim::EngineInfo engine;
};

/** Observations of one job that the checks and model metrics need. */
struct JobRecord
{
    uint64_t packets = 0;
    uint64_t replicaCycles = 0;       ///< summed over replicas
    sim::PipeSimStats stats;          ///< summed over replicas
    std::vector<uint64_t> retired;    ///< per replica
    std::vector<uint64_t> passed;     ///< per replica XDP_PASS retirements
    std::vector<uint64_t> streams;    ///< per-replica result digests
    std::vector<std::vector<uint64_t>> perPacket;  ///< checked pass only
    ctl::CtlRunReport ctlReport;      ///< caida, checked pass only
    host::HostQueueCounters hostTotals;
    std::vector<host::HostQueueCounters> hostQueues;
    uint64_t hostDrainCycle = 0;
    unsigned ringOccP99 = 0;
    std::vector<uint64_t> latHist;
    bool nativeLoaded = true;
    std::string fallback;
};

/** A job's clock: from its first TrafficGen::next until its last call. */
struct JobClock
{
    double wall = 0;
    double cpu = 0;  ///< thread CPU time, what the host metrics use
};

/** Result of one measured loop. */
struct LoopResult
{
    double refSecSum = 0;    ///< summed job clocks, reference-host seconds
    double loopWall = 0;     ///< whole loop, construction included
    uint64_t jobs = 0;
    uint64_t packets = 0;    ///< simulated packets retired
    std::vector<double> jobSec;  ///< per-job reference-host seconds
    std::vector<uint8_t> jobApp; ///< sat64: app of each job
    HostSpeed speed;
    std::vector<double> appSec = std::vector<double>(5, 0);
    std::vector<uint64_t> appPackets = std::vector<uint64_t>(5, 0);
    uint64_t failed = 0;     ///< repeat-pass mismatches / divergences
    uint64_t attempted = 0;
    LayerTimes layers;
    sim::PipeSimPhaseProfile phases;
    double replicaCycles = 0;  ///< modeled replica cycles over the jobs
    uint64_t nativeMisses = 0;
    std::string fallback;

    /** After the last job: scale job times, fill the per-job sums. */
    void
    finishJobs()
    {
        speed.finish();
        jobSec = speed.refJobSec();
        for (size_t j = 0; j < jobSec.size(); ++j) {
            refSecSum += jobSec[j];
            if (j < jobApp.size())
                appSec[jobApp[j]] += jobSec[j];
        }
        layers.speedProbe = speed.probeSec();
    }
};

sim::PipeSimConfig
nativeConfig(const Options &o, sim::SchedMode sched, bool profile)
{
    sim::PipeSimConfig pc;
    pc.engine = sim::SimEngine::Aot;
    pc.aotBackend = sim::AotBackend::Native;
    pc.aotCacheDir = o.aotCache;
    pc.schedMode = sched;
    pc.inputQueueCapacity = 1u << 20;
    pc.profilePhases = profile;
    return pc;
}

/** Compile @p spec and build its native module (one setup step). */
std::unique_ptr<Rig>
makeRig(const Options &o, const std::string &label, apps::AppSpec spec,
        sim::SchedMode sched)
{
    auto rig = std::make_unique<Rig>();
    rig->spec = std::move(spec);
    hdl::CompileResult cr = hdl::compileWithReport(rig->spec.prog);
    if (!cr.pipeline)
        throw std::runtime_error(label + " failed to compile");
    rig->report = cr.report;
    rig->pipe = std::make_unique<hdl::Pipeline>(std::move(*cr.pipeline));
    rig->seeded = ebpf::MapSet(rig->spec.prog.maps);
    rig->spec.seedMaps(rig->seeded);
    // The first simulator built for the pipeline compiles its native
    // module into the (fresh) cache dir; later ones reuse it.
    ebpf::MapSet probe_maps(rig->spec.prog.maps);
    const double t1 = nowSec();
    sim::PipeSim probe(*rig->pipe, probe_maps, nativeConfig(o, sched, false));
    rig->aotBuildSec = nowSec() - t1;
    rig->engine = probe.engineInfo();
    return rig;
}

std::vector<std::unique_ptr<Rig>>
setupRigs(const Options &o)
{
    std::vector<std::unique_ptr<Rig>> rigs;
    if (o.workload == "sat64_apps") {
        std::vector<apps::AppSpec> specs = apps::paperApps();
        for (size_t a = 0; a < specs.size(); ++a)
            rigs.push_back(makeRig(o, kAppLabels[a], std::move(specs[a]),
                                   sim::SchedMode::Dense));
    } else if (o.workload == "caida_4q_host_ctl") {
        rigs.push_back(makeRig(o, "dnat", apps::makeDnat(),
                               sim::SchedMode::EventDriven));
    }
    return rigs;
}

// --- sat64_apps ---------------------------------------------------------------

sim::TrafficConfig
satTraffic(const apps::AppSpec &spec, uint64_t seed)
{
    sim::TrafficConfig tc;
    tc.numFlows = 10000;
    tc.packetLen = 64;
    tc.ipProto = spec.ipProto;
    tc.reverseFraction = spec.reverseFraction;
    tc.seed = seed;
    return tc;
}

/** Back-to-back frames: every packet is due at time 0 (saturating load). */
net::Packet
satPacket(sim::TrafficGen &gen)
{
    net::Packet p = gen.next();
    p.arrivalNs = 0;
    return p;
}

/** Run one sat64 job: app @p rig, traffic seed @p tseed. */
JobClock
runSatJob(const Options &o, Rig &rig, uint64_t tseed, bool traced,
          JobRecord &rec, LoopResult &lr)
{
    LayerTimes &lt = lr.layers;
    ebpf::MapSet maps(rig.spec.prog.maps);
    maps.copyContentsFrom(rig.seeded);
    sim::PipeSim sim(*rig.pipe, maps,
                     nativeConfig(o, sim::SchedMode::Dense, traced));
    Recorder sink;
    sink.perPacket = rec.perPacket.empty() ? nullptr : &rec.perPacket[0];
    sim.attachRetireSink(&sink);
    sim::TrafficGen gen(satTraffic(rig.spec, tseed));
    const double t0 = nowSec();
    const double c0 = cpuSec();

    if (traced) {
        double gen_s = 0, offer_s = 0;
        for (unsigned i = 0; i < kSatJobPackets; ++i) {
            const double a = nowSec();
            net::Packet p = satPacket(gen);
            const double b = nowSec();
            sim.offer(std::move(p));
            offer_s += nowSec() - b;
            gen_s += b - a;
        }
        g_trace.summed("traffic.next", t0, gen_s);
        g_trace.summed("pipe.offer", t0 + gen_s, offer_s);
        lt.traffic += gen_s;
        lt.offer += offer_s;
        const double d0 = nowSec();
        {
            Scope s("pipe.drain");
            sim.drain();
        }
        const double dw = nowSec() - d0;
        lt.drain += dw;
        lt.pipe += dw;
        addPhases(lr.phases, sim.phaseProfile());
    } else {
        for (unsigned i = 0; i < kSatJobPackets; ++i)
            sim.offer(satPacket(gen));
        sim.drain();
    }
    const JobClock clock{nowSec() - t0, cpuSec() - c0};

    rec.packets = sim.stats().completed;
    rec.stats = sim.stats();
    rec.replicaCycles = sim.stats().cycles;
    rec.retired = {sim.stats().completed};
    rec.streams = {sink.stream};
    rec.latHist = std::move(sink.latHist);
    rec.nativeLoaded = sim.engineInfo().nativeLoaded;
    rec.fallback = sim.engineInfo().fallbackReason;
    return clock;
}

// --- caida_4q_host_ctl ---------------------------------------------------------

sim::TrafficConfig
caidaTraffic(uint64_t seed)
{
    const sim::TraceProfile prof = sim::caidaProfile();
    sim::TrafficConfig tc;
    tc.numFlows = prof.flows;
    tc.zipfS = prof.zipfS;
    tc.packetLen = 0;
    tc.meanPacketLen = prof.meanPacketLen;
    tc.lineRateGbps = 100.0;
    tc.hostFlowFraction = kCaidaHostFlowFraction;
    tc.seed = seed;
    return tc;
}

host::HostDmaConfig
caidaHost()
{
    host::HostDmaConfig hc;
    hc.numQueues = kCaidaReplicas;
    hc.ringDepth = kCaidaRingDepth;
    hc.shellFifoDepth = kCaidaShellFifo;
    hc.hostRateMpps = kCaidaHostRateMpps;
    hc.clockHz = kClockHz;
    return hc;
}

/**
 * The fixed background control schedule over a job's modeled interval:
 * NAT-table updates alternating with lookups every 4000 cycles, and a
 * short counter stream (4 samples, 500 cycles apart) every 16000 cycles.
 */
ctl::CtlSchedule
caidaSchedule()
{
    ctl::CtlSchedule s;
    for (uint64_t j = 0; j < 5; ++j) {
        ctl::CtlTxn stream;
        stream.cycle = 4000 + 16000 * j;
        stream.kind = ctl::CtlOpKind::StatsStream;
        stream.streamPeriod = 500;
        stream.streamCount = 4;
        s.txns.push_back(stream);
    }
    for (uint64_t i = 0; i < 18; ++i) {
        ctl::CtlTxn t;
        t.cycle = 2000 + 4000 * i;
        const bool update = i % 2 == 0;
        t.kind = update ? ctl::CtlOpKind::MapUpdate : ctl::CtlOpKind::MapLookup;
        ctl::CtlMapOp op;
        op.kind = t.kind;
        op.map = "nat";
        op.key.assign(8, 0);
        const uint64_t k = mix(0x5eed, i / 2, 7);
        std::memcpy(op.key.data(), &k, 8);
        if (update) {
            op.value.assign(8, 0);
            const uint64_t v = mix(0x5eed, i / 2, 8);
            std::memcpy(op.value.data(), &v, 8);
        }
        t.ops.push_back(std::move(op));
        s.txns.push_back(std::move(t));
    }
    std::stable_sort(s.txns.begin(), s.txns.end(),
                     [](const ctl::CtlTxn &a, const ctl::CtlTxn &b) {
                         return a.cycle < b.cycle;
                     });
    return s;
}

JobClock
runCaidaJob(const Options &o, Rig &rig, const ctl::CtlSchedule &sched,
            uint64_t tseed, bool traced, bool keepReport, JobRecord &rec,
            LoopResult &lr)
{
    LayerTimes &lt = lr.layers;
    sim::MultiPipeSimConfig mc;
    mc.numReplicas = kCaidaReplicas;
    mc.mapMode = sim::MapMode::Sharded;
    // Sequential replicas: on a shared 4-vCPU host the threaded drain's
    // per-transaction thread barriers made throughput swing by 2-3x run
    // to run, far beyond any usable bound.
    mc.threaded = false;
    mc.pipe = nativeConfig(o, sim::SchedMode::EventDriven, traced);
    sim::MultiPipeSim multi(*rig.pipe, rig.seeded, mc);
    host::HostDatapath host(caidaHost());
    std::vector<Recorder> sinks(kCaidaReplicas);
    for (unsigned r = 0; r < kCaidaReplicas; ++r) {
        sinks[r].host = &host.queue(r);
        sinks[r].timeHost = traced;
        if (!rec.perPacket.empty())
            sinks[r].perPacket = &rec.perPacket[r];
        multi.replica(r).attachRetireSink(&sinks[r]);
    }
    ctl::CtlController ctrl(multi);
    ctrl.attachHost(&host);
    sim::TrafficGen gen(caidaTraffic(tseed));
    const double t0 = nowSec();
    const double c0 = cpuSec();

    ctl::CtlRunReport report;
    if (traced) {
        double gen_s = 0, offer_s = 0;
        for (unsigned i = 0; i < kCaidaJobPackets; ++i) {
            const double a = nowSec();
            net::Packet p = gen.next();
            const double b = nowSec();
            multi.offer(std::move(p));
            offer_s += nowSec() - b;
            gen_s += b - a;
        }
        g_trace.summed("traffic.next", t0, gen_s);
        g_trace.summed("multi.offer", t0 + gen_s, offer_s);
        lt.traffic += gen_s;
        lt.offer += offer_s;

        // The replicas run one after another inside ctl.run and drain, so
        // a region's wall splits into the replicas' cycle-loop time (host
        // calls made from it go to host, the rest to pipe) and the
        // region owner's own time.
        auto busy = [&]() {
            double b = 0, h = 0;
            for (unsigned r = 0; r < kCaidaReplicas; ++r) {
                b += phaseTotal(multi.replica(r).phaseProfile());
                h += sinks[r].hostSec;
            }
            return std::make_pair(b, h);
        };
        auto split = [&](double wall, std::pair<double, double> before,
                         double &owner) {
            const auto after = busy();
            const double b = std::min(wall, after.first - before.first);
            const double h = std::min(b, after.second - before.second);
            lt.pipe += b - h;
            lt.host += h;
            owner += wall - b;
            return b;
        };

        auto before = busy();
        double w0 = nowSec();
        {
            Scope s("ctl.run");
            report = ctrl.run(sched);
        }
        double wall = nowSec() - w0;
        lt.ctlRun += wall;
        split(wall, before, lt.ctl);

        before = busy();
        w0 = nowSec();
        {
            Scope s("multi.drain");
            multi.drain();
        }
        wall = nowSec() - w0;
        lt.drain += wall;
        lt.busySum += split(wall, before, lt.multiDrain);
        lt.drainWallSum += wall;

        w0 = nowSec();
        {
            Scope s("host.finish");
            rec.hostDrainCycle = host.finishAll();
        }
        const double fin = nowSec() - w0;
        lt.hostFinish += fin;
        lt.host += fin;
        for (const Recorder &s : sinks) {
            lt.hostTee += s.hostSec;
            lt.teeCalls += s.hostCalls;
        }
        addPhases(lr.phases, multi.phaseProfile());
    } else {
        for (unsigned i = 0; i < kCaidaJobPackets; ++i)
            multi.offer(gen.next());
        report = ctrl.run(sched);
        multi.drain();
        rec.hostDrainCycle = host.finishAll();
    }
    const JobClock clock{nowSec() - t0, cpuSec() - c0};

    rec.stats = {};
    rec.replicaCycles = 0;
    rec.retired.clear();
    rec.passed.clear();
    rec.streams.clear();
    rec.hostQueues.clear();
    rec.ringOccP99 = 0;
    for (unsigned r = 0; r < kCaidaReplicas; ++r) {
        const sim::PipeSimStats &s = multi.replica(r).stats();
        addStats(rec.stats, s);
        rec.replicaCycles += s.cycles;
        rec.retired.push_back(s.completed);
        rec.passed.push_back(s.passPackets);
        rec.streams.push_back(sinks[r].stream);
        rec.hostQueues.push_back(host.queue(r).counters());
        rec.ringOccP99 = std::max(rec.ringOccP99,
                                  host.queue(r).occupancyPercentile(0.99));
        for (size_t i = 0; i < sinks[r].latHist.size(); ++i) {
            if (i >= rec.latHist.size())
                rec.latHist.resize(i + 1, 0);
            rec.latHist[i] += sinks[r].latHist[i];
        }
    }
    // One modeled interval per job: the replicas run concurrently.
    rec.stats.cycles = multi.stats().cycles;
    rec.packets = rec.stats.completed;
    rec.hostTotals = host.totals();
    rec.nativeLoaded = multi.engineInfo().nativeLoaded;
    rec.fallback = multi.engineInfo().fallbackReason;
    if (keepReport)
        rec.ctlReport = std::move(report);
    return clock;
}

// --- Measured loops -----------------------------------------------------------

/** Deterministic per-job traffic seed. */
uint64_t
jobSeed(uint64_t seed, uint64_t job)
{
    return mix(seed, job, 42);
}

/** Compare a repeat of checked job @p first against its first run. */
bool
sameJob(const JobRecord &first, const JobRecord &again)
{
    return first.streams == again.streams &&
           first.stats.cycles == again.stats.cycles &&
           first.stats.flushEvents == again.stats.flushEvents &&
           first.hostTotals == again.hostTotals;
}

/**
 * Run the sim workload's jobs for @p seconds (at least one pass). When
 * @p checked is empty the first pass fills it (model metrics, VM check);
 * every other job repeats a checked one and must reproduce it exactly.
 */
LoopResult
runSimLoop(const Options &o, std::vector<std::unique_ptr<Rig>> &rigs,
           bool traced, std::vector<JobRecord> &checked)
{
    const bool sat = o.workload == "sat64_apps";
    const size_t pass_jobs = sat ? rigs.size() * kSatJobsPerApp : kCaidaPassJobs;
    const unsigned queues = sat ? 1 : kCaidaReplicas;
    const ctl::CtlSchedule sched = caidaSchedule();
    LoopResult lr;
    const bool fill_pass = checked.empty();
    if (fill_pass)
        checked.assign(pass_jobs, {});
    CpuRotation rotation;
    HostSpeed::probeOnce();  // warm-up
    const double start = nowSec();
    const int root = g_trace.begin("run");
    for (uint64_t job = 0;; ++job) {
        const size_t slot = job % pass_jobs;
        if (slot == 0) {
            rotation.next();
            lr.speed.probe();
        }
        const bool first = job < pass_jobs;
        if (!first && nowSec() - start >= o.seconds)
            break;
        const bool fill = first && fill_pass;
        JobRecord repeat;
        JobRecord &rec = fill ? checked[slot] : repeat;
        if (fill)
            rec.perPacket.assign(queues, {});
        const size_t app = sat ? slot % rigs.size() : 0;
        const uint64_t tseed = jobSeed(o.seed, slot);
        JobClock clock;
        const double w0 = nowSec();
        {
            Scope s("job");
            clock = sat ? runSatJob(o, *rigs[app], tseed, traced, rec, lr)
                        : runCaidaJob(o, *rigs[0], sched, tseed, traced,
                                      fill, rec, lr);
        }
        // Construction and teardown around the job clock.
        lr.layers.lifecycle += nowSec() - w0 - clock.wall;
        lr.speed.addJob(clock.cpu);
        lr.jobApp.push_back(static_cast<uint8_t>(app));
        lr.packets += rec.packets;
        lr.replicaCycles += static_cast<double>(rec.replicaCycles);
        lr.appPackets[app] += rec.packets;
        ++lr.jobs;
        lr.attempted += rec.packets;
        if (!rec.nativeLoaded) {
            ++lr.nativeMisses;
            lr.fallback = rec.fallback;
        }
        if (!fill && !sameJob(checked[slot], rec))
            lr.failed += rec.packets;
    }
    g_trace.end(root);
    lr.finishJobs();
    lr.loopWall = nowSec() - start;
    return lr;
}

/** Compare VM results against the kept per-packet digests. */
uint64_t
countMismatches(const std::vector<uint64_t> &sim,
                const std::vector<uint64_t> &vm)
{
    uint64_t bad = sim.size() > vm.size() ? sim.size() - vm.size()
                                          : vm.size() - sim.size();
    for (size_t i = 0; i < std::min(sim.size(), vm.size()); ++i)
        bad += sim[i] != vm[i];
    return bad;
}

struct OracleResult
{
    uint64_t failed = 0;
    uint64_t packets = 0;
    double vmSec = 0;
};

/**
 * Check every packet of the first pass against the reference VM, with
 * the same map seeding, regenerating the traffic from the seed.
 */
OracleResult
oracleSim(const Options &o, std::vector<std::unique_ptr<Rig>> &rigs,
          const std::vector<JobRecord> &checked)
{
    Scope scope("oracle");
    OracleResult res;
    const bool sat = o.workload == "sat64_apps";
    for (size_t slot = 0; slot < checked.size(); ++slot) {
        const JobRecord &rec = checked[slot];
        const uint64_t tseed = jobSeed(o.seed, slot);
        if (sat) {
            Rig &rig = *rigs[slot % rigs.size()];
            ebpf::MapSet maps(rig.spec.prog.maps);
            maps.copyContentsFrom(rig.seeded);
            ebpf::Vm vm(rig.spec.prog, maps);
            sim::TrafficGen gen(satTraffic(rig.spec, tseed));
            std::vector<uint64_t> digests;
            digests.reserve(kSatJobPackets);
            for (unsigned i = 0; i < kSatJobPackets; ++i) {
                net::Packet p = satPacket(gen);
                const double t0 = nowSec();
                const ebpf::ExecResult r = vm.run(p);
                res.vmSec += nowSec() - t0;
                digests.push_back(outcomeDigest(r.action, r.redirectIfindex,
                                                r.trapped, p.data(), p.size()));
            }
            res.packets += kSatJobPackets;
            res.failed += countMismatches(rec.perPacket[0], digests);
            continue;
        }
        Rig &rig = *rigs[0];
        sim::MultiPipeSimConfig mc;
        mc.numReplicas = kCaidaReplicas;
        ebpf::MapSet dispatch_maps(rig.spec.prog.maps);
        const sim::MultiPipeSim dispatcher(*rig.pipe, dispatch_maps, mc);
        std::vector<std::vector<net::Packet>> streams(kCaidaReplicas);
        sim::TrafficGen gen(caidaTraffic(tseed));
        for (unsigned i = 0; i < kCaidaJobPackets; ++i) {
            net::Packet p = gen.next();
            const size_t r = dispatcher.dispatch(p);
            p.rxQueueIndex = static_cast<uint32_t>(r);
            streams[r].push_back(std::move(p));
        }
        for (unsigned r = 0; r < kCaidaReplicas; ++r) {
            ebpf::MapSet maps(rig.spec.prog.maps);
            maps.copyContentsFrom(rig.seeded);
            const double t0 = nowSec();
            const ctl::CtlVmReplayResult replay = ctl::replayScheduleOnVm(
                rig.spec.prog, {}, streams[r], rec.ctlReport, r, maps);
            res.vmSec += nowSec() - t0;
            std::vector<uint64_t> digests;
            for (const ctl::CtlVmOutcome &vo : replay.outcomes)
                digests.push_back(outcomeDigest(vo.action, vo.redirectIfindex,
                                                vo.trapped, vo.bytes.data(),
                                                vo.bytes.size()));
            res.packets += streams[r].size();
            res.failed += countMismatches(rec.perPacket[r], digests);
            for (size_t t = 0; t < rec.ctlReport.txns.size(); ++t)
                if (rec.ctlReport.txns[t].results[r] != replay.txnResults[t])
                    ++res.failed;
            // Host descriptor conservation per queue.
            const host::HostQueueCounters &q = rec.hostQueues[r];
            if (q.consumed + q.shellDrops != q.enqueued ||
                q.enqueued != rec.passed[r])
                ++res.failed;
        }
    }
    return res;
}

// --- fuzz_diff ------------------------------------------------------------------

/** Model counters of the first kFuzzModelCases cases, plus campaign counts. */
struct FuzzTally
{
    sim::PipeSimStats model;
    uint64_t cases = 0;
    uint64_t compiled = 0;
    uint64_t vmInsns = 0;
    double makeSec = 0;
    double runSec = 0;
    double compileSec = 0;     ///< traced probe compiles
    uint64_t probeCompiles = 0;
    std::map<std::string, double> passSec;
    double vmSec = 0;          ///< traced VM probe
    uint64_t vmPackets = 0;
};

/**
 * A default ehdl-fuzz campaign: makeCase + runCase per iteration. On the
 * traced pass each accepted program is also compiled and VM-replayed once
 * more, outside the job clock, to split the case cost into layers.
 */
LoopResult
runFuzzLoop(const Options &o, bool traced, FuzzTally &tally)
{
    fuzz::FuzzOptions fo;
    fo.seed = o.seed;
    LoopResult lr;
    LayerTimes &lt = lr.layers;
    CpuRotation rotation;
    HostSpeed::probeOnce();  // warm-up
    const double start = nowSec();
    const int root = g_trace.begin("run");
    for (uint64_t iter = 0;; ++iter) {
        if (iter % kFuzzWindowCases == 0) {
            rotation.next();
            lr.speed.probe();
        }
        if (iter >= kFuzzModelCases && nowSec() - start >= o.seconds)
            break;
        const double c0 = cpuSec();
        const double t0 = nowSec();
        fuzz::FuzzCase c;
        {
            Scope s("fuzz.make_case");
            c = fuzz::makeCase(o.seed, iter, fo);
        }
        const double t1 = nowSec();
        fuzz::CaseResult r;
        {
            Scope s("fuzz.run_case");
            r = fuzz::runCase(c, fo.run);
        }
        const double t2 = nowSec();
        lr.speed.addJob(cpuSec() - c0);
        tally.makeSec += t1 - t0;
        tally.runSec += t2 - t1;
        ++lr.jobs;
        ++lr.attempted;
        lr.failed += r.diverged() ? 1 : 0;
        lr.packets += r.pipeStats.completed;
        ++tally.cases;
        tally.vmInsns += r.vmInsns;
        if (r.compiled) {
            ++tally.compiled;
            if (iter < kFuzzModelCases)
                addStats(tally.model, r.pipeStats);
        }
        if (!traced)
            continue;
        lt.makeCase += t1 - t0;
        lt.runCase += t2 - t1;
        if (!r.compiled)
            continue;
        const double p0 = nowSec();
        {
            Scope s("probe.hdl.compile");
            const hdl::CompileResult cr =
                hdl::compileWithReport(c.prog, c.options);
            tally.compileSec += cr.report.totalSeconds;
            for (const hdl::PassTiming &pt : cr.report.passes)
                tally.passSec[pt.name] += pt.seconds;
        }
        {
            Scope s("probe.vm");
            ebpf::MapSet maps(c.prog.maps);
            ebpf::Vm vm(c.prog, maps);
            for (net::Packet &p : c.materializePackets()) {
                const double v0 = nowSec();
                vm.run(p);
                tally.vmSec += nowSec() - v0;
                ++tally.vmPackets;
            }
        }
        ++tally.probeCompiles;
        lt.probe += nowSec() - p0;
    }
    g_trace.end(root);
    lr.finishJobs();
    lr.loopWall = nowSec() - start;
    return lr;
}

// --- Output ---------------------------------------------------------------------

/** Ordered metric list printed as the result's "metrics" object. */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> rows;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        rows.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (size_t i = 0; i < rows.size(); ++i) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", rows[i].first.c_str(),
                          rows[i].second.first, rows[i].second.second.c_str());
            out += buf;
        }
        return out + "}";
    }
};

double
peakRssMb()
{
    // VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so it
    // would report the launching process's footprint when that is larger.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Model metrics summed over the checked pass. */
struct ModelSums
{
    sim::PipeSimStats stats;
    uint64_t replicaCycles = 0;
    std::vector<uint64_t> latHist;
    host::HostQueueCounters host;
    uint64_t hostCycles = 0;
    std::vector<uint64_t> perReplica;
    double ringOccP99 = 0;
    std::vector<double> applyLag;
    std::vector<double> txnLatency;
    uint64_t txns = 0;
};

ModelSums
sumModel(const std::vector<JobRecord> &checked)
{
    ModelSums m;
    for (const JobRecord &rec : checked) {
        addStats(m.stats, rec.stats);
        m.replicaCycles += rec.replicaCycles;
        if (m.latHist.size() < rec.latHist.size())
            m.latHist.resize(rec.latHist.size(), 0);
        for (size_t i = 0; i < rec.latHist.size(); ++i)
            m.latHist[i] += rec.latHist[i];
        const host::HostQueueCounters &h = rec.hostTotals;
        m.host.enqueued += h.enqueued;
        m.host.shellDrops += h.shellDrops;
        m.host.consumed += h.consumed;
        m.host.dmaBursts += h.dmaBursts;
        m.host.dmaDescriptors += h.dmaDescriptors;
        m.host.interrupts += h.interrupts;
        m.hostCycles += std::max(rec.hostDrainCycle, rec.stats.cycles);
        if (m.perReplica.size() < rec.retired.size())
            m.perReplica.resize(rec.retired.size(), 0);
        for (size_t r = 0; r < rec.retired.size(); ++r)
            m.perReplica[r] += rec.retired[r];
        m.ringOccP99 += rec.ringOccP99 / static_cast<double>(checked.size());
        for (const ctl::CtlTxnRecord &t : rec.ctlReport.txns) {
            ++m.txns;
            m.txnLatency.push_back(
                static_cast<double>(t.completeCycle - t.submitCycle));
            for (uint64_t a : t.applyCycle)
                m.applyLag.push_back(static_cast<double>(a - t.deviceCycle));
        }
    }
    return m;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: ehdl_perfbench --workload sat64_apps|"
                 "caida_4q_host_ctl|fuzz_diff --seed N --seconds S "
                 "--trace 0|1 --aot-cache DIR [--setup-only] "
                 "[--trace-out FILE]\n"
                 "       ehdl_perfbench --probe\n");
    return 2;
}

int
run(const Options &o)
{
    const bool fuzz_wl = o.workload == "fuzz_diff";
    std::vector<std::unique_ptr<Rig>> rigs = setupRigs(o);
    bool native_ok = true;
    std::string fallback;
    for (const auto &rig : rigs) {
        if (!rig->engine.nativeLoaded) {
            native_ok = false;
            fallback = rig->engine.fallbackReason;
        }
    }

    if (o.setupOnly) {
        double compile = 0, build = 0;
        for (const auto &rig : rigs) {
            compile += rig->report.totalSeconds;
            build += rig->aotBuildSec;
        }
        std::printf("{\"programs\": %zu, \"compile_s\": %.9f, "
                    "\"aot_build_s\": %.9f, \"native_loaded\": %d}\n",
                    rigs.size(), compile, build, native_ok ? 1 : 0);
        return native_ok ? 0 : 3;
    }

    // Untraced measurement: the end-to-end numbers.
    std::vector<JobRecord> checked;
    FuzzTally tally;
    const LoopResult base = fuzz_wl ? runFuzzLoop(o, false, tally)
                                    : runSimLoop(o, rigs, false, checked);
    const FuzzTally model_tally = tally;

    // Traced measurement (per-layer numbers), same jobs again.
    LoopResult traced;
    FuzzTally traced_tally;
    if (o.trace) {
        g_trace.on = true;
        traced = fuzz_wl ? runFuzzLoop(o, true, traced_tally)
                         : runSimLoop(o, rigs, true, checked);
    }
    const double rss = peakRssMb();

    OracleResult oracle;
    if (!fuzz_wl)
        oracle = oracleSim(o, rigs, checked);

    uint64_t attempted = base.attempted + traced.attempted;
    uint64_t failed = base.failed + traced.failed + oracle.failed;
    const uint64_t misses = base.nativeMisses + traced.nativeMisses;
    if (!native_ok || misses > 0) {
        std::fprintf(stderr, "native AOT backend fell back: %s\n",
                     (fallback + base.fallback + traced.fallback).c_str());
        failed = attempted;
    }
    if (failed > 0)
        std::fprintf(stderr, "%llu failed operations\n",
                     static_cast<unsigned long long>(failed));

    Metrics m;
    const ModelSums ms = fuzz_wl ? ModelSums{} : sumModel(checked);
    const sim::PipeSimStats &model =
        fuzz_wl ? model_tally.model : ms.stats;
    // Whole-run ratios of job clocks scaled to the reference host (see
    // HostSpeed): the ratio of sums averages what the scaling leaves.
    const double speed = base.speed.index();
    std::fprintf(stderr, "host speed index %.4f\n", speed);
    const double kpps =
        ratio(static_cast<double>(base.packets), base.refSecSum) / 1e3;
    const double jobs_per_s =
        ratio(static_cast<double>(base.jobs), base.refSecSum);
    if (!o.trace) {
        m.add("sim_kpps", kpps, "kpkt/s");
        m.add("jobs_per_s", jobs_per_s, "1/s");
        m.add("job_ms_p50", quantile(base.jobSec, 0.50) * 1e3, "ms");
        // p90 keeps >= 10 jobs beyond it on caida (~250 jobs per run).
        m.add("job_ms_p90", quantile(base.jobSec, 0.90) * 1e3, "ms");
        m.add("peak_rss_mb", rss, "MB");
        m.add("modeled_mpps",
              ratio(static_cast<double>(model.completed) * kClockHz / 1e6,
                    static_cast<double>(model.cycles)),
              "Mpps");
    } else {
        const LayerTimes &lt = traced.layers;
        const double wall = traced.loopWall;
        const double tpkts = static_cast<double>(traced.packets);
        const double traced_rate =
            fuzz_wl ? ratio(static_cast<double>(traced.jobs),
                            traced.refSecSum)
                    : ratio(tpkts, traced.refSecSum) / 1e3;
        const double base_rate = fuzz_wl ? jobs_per_s : kpps;

        m.add("traffic.gen_ns_per_pkt", ratio(lt.traffic, tpkts) * 1e9, "ns");
        // Compiler: per compiled program (fuzz: the traced probe compile).
        double compile_s = 0;
        std::map<std::string, double> pass_s;
        double programs = 0;
        if (fuzz_wl) {
            compile_s = traced_tally.compileSec;
            pass_s = traced_tally.passSec;
            programs = static_cast<double>(traced_tally.probeCompiles);
        } else {
            for (const auto &rig : rigs) {
                compile_s += rig->report.totalSeconds;
                for (const hdl::PassTiming &pt : rig->report.passes)
                    pass_s[pt.name] += pt.seconds;
            }
            programs = static_cast<double>(rigs.size());
        }
        m.add("hdl.compile_ms", ratio(compile_s, programs) * 1e3, "ms");
        for (const std::string &pass : hdl::passNames())
            m.add("hdl.pass." + pass + "_ms",
                  ratio(pass_s[pass], programs) * 1e3, "ms");

        const bool sat = o.workload == "sat64_apps";
        m.add("pipe.drain_s", lt.drain, "s");
        m.add("pipe.ns_per_cycle",
              ratio(phaseTotal(traced.phases), traced.replicaCycles) * 1e9,
              "ns");
        for (size_t a = 0; a < 5; ++a)
            m.add(std::string("pipe.ns_per_pkt.") + kAppLabels[a],
                  sat ? ratio(base.appSec[a],
                              static_cast<double>(base.appPackets[a])) * 1e9
                      : 0.0,
                  "ns");
        const sim::PipeSimPhaseProfile &ph = traced.phases;
        m.add("pipe.phase.execute_s", ph.executeSec, "s");
        m.add("pipe.phase.hazard_s", ph.hazardSec, "s");
        m.add("pipe.phase.checkpoint_s", ph.checkpointSec, "s");
        m.add("pipe.phase.commit_s", ph.commitSec, "s");
        m.add("pipe.phase.advance_retire_s", ph.advanceRetireSec, "s");
        m.add("pipe.phase.flush_s", ph.flushSec, "s");
        m.add("pipe.offer_ns_per_pkt",
              sat ? ratio(lt.offer, tpkts) * 1e9 : 0.0, "ns");
        m.add("pipe.cycles", static_cast<double>(model.cycles), "count");
        m.add("pipe.flush_events", static_cast<double>(model.flushEvents),
              "count");
        m.add("pipe.replayed_stages",
              static_cast<double>(model.replayedStages), "count");
        m.add("pipe.stall_cycles", static_cast<double>(model.stallCycles),
              "count");
        m.add("pipe.hazard_summary_skip_ratio",
              ratio(static_cast<double>(model.hazardSummarySkips),
                    static_cast<double>(model.hazardChecks)),
              "ratio");
        m.add("pipe.checkpoint_materialize_ratio",
              ratio(static_cast<double>(model.checkpointsMaterialized),
                    static_cast<double>(model.checkpointsTaken)),
              "ratio");
        m.add("pipe.event_skip_ratio",
              ratio(static_cast<double>(model.eventSkippedCycles),
                    static_cast<double>(ms.replicaCycles)),
              "ratio");

        const bool multi = o.workload == "caida_4q_host_ctl";
        double imbalance = 0;
        if (multi && !ms.perReplica.empty()) {
            const uint64_t mx =
                *std::max_element(ms.perReplica.begin(), ms.perReplica.end());
            double mean = 0;
            for (uint64_t v : ms.perReplica)
                mean += static_cast<double>(v);
            imbalance = ratio(static_cast<double>(mx) * ms.perReplica.size(),
                              mean);
        }
        m.add("multi.offer_ns_per_pkt",
              multi ? ratio(lt.offer, tpkts) * 1e9 : 0.0, "ns");
        m.add("multi.replica_imbalance", imbalance, "ratio");
        m.add("multi.busy_frac", ratio(lt.busySum, lt.drainWallSum),
              "ratio");
        m.add("multi.drain_overhead_s", lt.multiDrain, "s");

        m.add("host.on_retire_ns_per_pkt",
              ratio(lt.hostTee, static_cast<double>(lt.teeCalls)) * 1e9,
              "ns");
        m.add("host.finish_ms",
              ratio(lt.hostFinish, static_cast<double>(traced.jobs)) * 1e3,
              "ms");
        m.add("host.descs_per_burst",
              ratio(static_cast<double>(ms.host.dmaDescriptors),
                    static_cast<double>(ms.host.dmaBursts)),
              "count");
        m.add("host.irqs_per_kpkt",
              ratio(static_cast<double>(ms.host.interrupts) * 1e3,
                    static_cast<double>(ms.host.enqueued)),
              "1/kpkt");
        m.add("host.ring_occ_p99", ms.ringOccP99, "count");

        m.add("ctl.run_s", lt.ctlRun, "s");
        m.add("ctl.self_s", lt.ctl, "s");
        m.add("ctl.txns", static_cast<double>(ms.txns), "count");
        m.add("ctl.apply_lag_cycles_p99", quantile(ms.applyLag, 0.99),
              "cycles");
        m.add("ctl.txn_latency_cycles_p99", quantile(ms.txnLatency, 0.99),
              "cycles");

        m.add("vm.ns_per_pkt",
              fuzz_wl ? ratio(traced_tally.vmSec,
                              static_cast<double>(traced_tally.vmPackets)) *
                            1e9
                      : ratio(oracle.vmSec,
                              static_cast<double>(oracle.packets)) * 1e9,
              "ns");

        const double cases = static_cast<double>(traced_tally.cases);
        m.add("fuzz.make_case_us", ratio(traced_tally.makeSec, cases) * 1e6,
              "us");
        m.add("fuzz.run_case_ms", ratio(traced_tally.runSec, cases) * 1e3,
              "ms");
        m.add("fuzz.accept_ratio",
              ratio(static_cast<double>(model_tally.compiled),
                    static_cast<double>(model_tally.cases)),
              "ratio");
        m.add("fuzz.vm_insns_per_case",
              ratio(static_cast<double>(model_tally.vmInsns),
                    static_cast<double>(model_tally.cases)),
              "count");

        m.add("model.flushes_per_mpkt",
              ratio(static_cast<double>(model.flushEvents) * 1e6,
                    static_cast<double>(model.completed)),
              "1/Mpkt");
        m.add("model.lat_ns_p50", histQuantile(ms.latHist, 0.50) * kNsPerCycle,
              "ns");
        m.add("model.lat_ns_p99", histQuantile(ms.latHist, 0.99) * kNsPerCycle,
              "ns");
        m.add("model.host_goodput_mpps",
              ratio(static_cast<double>(ms.host.consumed) * kClockHz / 1e6,
                    static_cast<double>(ms.hostCycles)),
              "Mpps");
        m.add("model.host_drop_pct",
              ratio(static_cast<double>(ms.host.shellDrops) * 100.0,
                    static_cast<double>(ms.host.enqueued)),
              "%");

        const std::pair<const char *, double> self[] = {
            {"lifecycle", lt.lifecycle}, {"traffic", lt.traffic},
            {"offer", lt.offer},         {"pipe", lt.pipe},
            {"host", lt.host},           {"ctl", lt.ctl},
            {"multi_drain", lt.multiDrain},     {"fuzz_make_case", lt.makeCase},
            {"fuzz_run_case", lt.runCase}, {"probe", lt.probe},
            {"speed_probe", lt.speedProbe},
        };
        for (const auto &[name, sec] : self)
            m.add(std::string("self_pct.") + name, ratio(sec, wall) * 100.0,
                  "%");
        m.add("trace.overhead_pct",
              (ratio(base_rate, traced_rate) - 1.0) * 100.0, "%");
        m.add("residual.unexplained_pct",
              ratio(wall - lt.covered(), wall) * 100.0, "%");
    }

    if (o.trace && !o.traceOut.empty())
        g_trace.write(o.traceOut);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), m.json().c_str());
    return 0;
}

}  // namespace

/** Print the host speed index, probed on every allowed CPU in turn. */
int
probeOnly()
{
    CpuRotation rotation;
    std::vector<double> probes;
    HostSpeed::probeOnce();  // warm-up
    for (unsigned i = 0; i < kStandaloneProbes; ++i) {
        if (i % 10 == 0)
            rotation.next();
        probes.push_back(HostSpeed::probeOnce());
    }
    std::printf("{\"host_speed\": %.9f}\n",
                kStandaloneRefSec / quantile(probes, 0.5));
    return 0;
}

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--probe")
        return probeOnly();
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = val();
            else if (a == "--seed")
                o.seed = std::stoull(val());
            else if (a == "--seconds")
                o.seconds = std::stod(val());
            else if (a == "--trace")
                o.trace = val() == "1";
            else if (a == "--aot-cache")
                o.aotCache = val();
            else if (a == "--trace-out")
                o.traceOut = val();
            else if (a == "--setup-only")
                o.setupOnly = true;
            else
                return usage();
        } catch (const std::exception &) {
            return usage();
        }
    }
    if (o.workload != "sat64_apps" && o.workload != "caida_4q_host_ctl" &&
        o.workload != "fuzz_diff")
        return usage();
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ehdl_perfbench: %s\n", e.what());
        return 1;
    }
}
