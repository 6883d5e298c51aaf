#include "sim/pipe_sim.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>

#include "common/logging.hpp"
#include "ebpf/exec.hpp"
#include "sim/aot/native.hpp"
#include "sim/aot/specialize.hpp"

namespace ehdl::sim {

using ebpf::ExecState;
using ebpf::MapDef;
using ebpf::MapSet;
using ebpf::VmTrap;
using ebpf::XdpAction;
using hdl::FlushBlockPlan;
using hdl::OpKind;
using hdl::Pipeline;
using hdl::StageOp;
using hdl::WarBufferPlan;

namespace {

uint64_t
hashKeyBytes(uint32_t map_id, const uint8_t *key, unsigned len)
{
    uint64_t h = 0xcbf29ce484222325ULL ^ (map_id * 0x9e3779b97f4a7c15ULL);
    for (unsigned i = 0; i < len; ++i) {
        h ^= key[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * One-bit Bloom signature of a hazard address. Per-flight digests OR
 * these bits together; a flush check first tests the written addresses'
 * bits against a flight's digest and only falls back to the precise
 * read scan on a hit. False positives cost a scan; false negatives are
 * impossible because both sides derive the bit from the same mix.
 */
uint64_t
readSigBit(uint32_t map_id, bool index_level, uint64_t addr)
{
    uint64_t h = addr * 0x9e3779b97f4a7c15ULL +
                 (static_cast<uint64_t>(map_id) << 1) +
                 (index_level ? 1 : 0);
    h ^= h >> 29;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
    return uint64_t{1} << (h & 63);
}

/** Per-map bit for the coarse map-id mask (all-ones past 64 maps). */
uint64_t
mapMaskBit(uint32_t map_id)
{
    return map_id < 64 ? uint64_t{1} << map_id : ~uint64_t{0};
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

}  // namespace

bool
parseEngineSpec(const std::string &spec, PipeSimConfig &config)
{
    if (spec == "interp") {
        config.engine = SimEngine::Interp;
    } else if (spec == "aot") {
        config.engine = SimEngine::Aot;
        config.aotBackend = AotBackend::Portable;
    } else if (spec == "aot-native") {
        config.engine = SimEngine::Aot;
        config.aotBackend = AotBackend::Native;
    } else {
        return false;
    }
    return true;
}

bool
parseSchedSpec(const std::string &spec, SchedMode &mode)
{
    if (spec == "dense")
        mode = SchedMode::Dense;
    else if (spec == "event")
        mode = SchedMode::EventDriven;
    else
        return false;
    return true;
}

void
PipeSimStats::addCounters(const PipeSimStats &s)
{
    offered += s.offered;
    accepted += s.accepted;
    lost += s.lost;
    completed += s.completed;
    flushEvents += s.flushEvents;
    flushedPackets += s.flushedPackets;
    replayedStages += s.replayedStages;
    stallCycles += s.stallCycles;
    passPackets += s.passPackets;
    dropPackets += s.dropPackets;
    txPackets += s.txPackets;
    redirectPackets += s.redirectPackets;
    abortedPackets += s.abortedPackets;
    hazardChecks += s.hazardChecks;
    hazardSummarySkips += s.hazardSummarySkips;
    hazardPreciseScans += s.hazardPreciseScans;
    commitBatches += s.commitBatches;
    committedWrites += s.committedWrites;
    checkpointsTaken += s.checkpointsTaken;
    checkpointsMaterialized += s.checkpointsMaterialized;
    eventJumps += s.eventJumps;
    eventSkippedCycles += s.eventSkippedCycles;
}

struct PipeSim::Impl
{
    /** Address read by an in-flight packet (for flush evaluation). */
    struct ReadRec
    {
        uint32_t mapId;
        bool indexLevel;
        uint64_t addr;
    };

    /** One in-flight packet. */
    struct Flight
    {
        uint64_t id = 0;
        uint64_t seq = 0;
        net::Packet pkt;
        std::vector<uint8_t> pristineBytes;
        uint64_t arrivalNs = 0;

        std::unique_ptr<ExecState> state;
        /** Per-block enable bytes (byte, not bit: blockOn is a single
         *  load on the native backend's hottest path). */
        std::vector<uint8_t> blockEnabled;
        bool exited = false;
        bool trapped = false;
        std::string trapReason;
        /** Deepest stage already executed (-1 = none); elastic-buffer
         *  stalls must not re-execute a stage's side effects. */
        int64_t lastExecuted = -1;
        XdpAction action = XdpAction::Aborted;
        uint32_t redirectIfindex = 0;
        uint64_t entryCycle = 0;

        std::vector<ReadRec> reads;
        /** Bloom digest over @c reads (readSigBit bits). */
        uint64_t readDigest = 0;
        /** Coarse per-map-id mask over @c reads (mapMaskBit bits). */
        uint64_t readMapMask = 0;

        /**
         * Physical ring slot currently holding this flight (SIZE_MAX
         * while it sits in a replay queue). Stable from placement to
         * retire/flush — advancing the pipeline rotates the ring head,
         * not the flights — so the commit path derives the stage on
         * demand (Impl::stageOf) instead of the advance loop writing a
         * stage field into every flight every cycle.
         */
        size_t ringPos = 0;

        /**
         * WAR-delayed writes parked by this flight (its arena), in
         * program order. Global commit order across flights is restored
         * from @c parkSeq.
         */
        struct ParkedWrite
        {
            MapSet::RawWrite raw;
            size_t issueStage;
            size_t commitStage;
            uint64_t parkSeq;
        };
        std::vector<ParkedWrite> warArena;

        /**
         * One elastic-buffer checkpoint slot. Storage is indexed by the
         * buffer's position in Pipeline::elasticBuffers and reused across
         * crossings and pooled-flight reuse, so the steady state performs
         * no allocation.
         *
         * Checkpoints are copy-on-write links in a chain: @c state holds
         * only the registers/stack slots written since the previous
         * checkpoint (ExecState::checkpointDirtyInto), @c pktBytes is
         * copied only when the packet changed since the last copy
         * (@c pktCopied), and the append-only read log is recorded as a
         * prefix length instead of a copy. A restore overlays the whole
         * valid chain up to the restart stage onto a reset state
         * (restoreFlight), materializing the full snapshot only when a
         * flush actually replays.
         */
        struct Checkpoint
        {
            bool valid = false;
            size_t stage = 0;
            ExecState::Checkpoint state;  ///< dirty∩live increment
            std::vector<uint8_t> pktBytes;
            bool pktCopied = false;  ///< pktBytes captured at this link
            std::vector<uint8_t> blockEnabled;
            bool exited = false;
            bool trapped = false;
            XdpAction action = XdpAction::Aborted;
            uint32_t redirectIfindex = 0;
            uint32_t readsLen = 0;  ///< reads prefix length at capture
            uint64_t readDigest = 0;
            uint64_t readMapMask = 0;
        };
        std::vector<Checkpoint> checkpoints;

        /**
         * AOT engine: the execution context handed to native stage
         * code, cached per flight. Every pointer targets a member whose
         * address is stable for the flight's pooled lifetime; refreshed
         * on acquire, when the flight may have just been allocated.
         */
        aot::AotCtx aotCtx;
    };

    /** MapIo interposing the hazard machinery on every map access. */
    class HazardMapIo : public ebpf::MapIo
    {
      public:
        explicit HazardMapIo(Impl &impl) : impl_(impl) {}

        int64_t
        lookup(uint32_t map_id, const uint8_t *key, unsigned port) override
        {
            (void)port;
            if (impl_.recordReads[map_id]) {
                const unsigned klen = impl_.maps.at(map_id).def().keySize;
                impl_.recordRead(map_id, true,
                                 hashKeyBytes(map_id, key, klen));
            }
            return impl_.maps.at(map_id).lookup(key);
        }

        int
        update(uint32_t map_id, const uint8_t *key, const uint8_t *value,
               uint64_t flags, unsigned port) override
        {
            const unsigned klen = impl_.maps.at(map_id).def().keySize;
            const uint64_t khash = hashKeyBytes(map_id, key, klen);
            const int rc = impl_.maps.at(map_id).update(key, value, flags);
            std::vector<std::pair<bool, uint64_t>> addrs;
            addrs.emplace_back(true, khash);
            if (rc == 0) {
                const int64_t entry = impl_.maps.at(map_id).lookup(key);
                if (entry >= 0)
                    addrs.emplace_back(false,
                                       static_cast<uint64_t>(entry));
            }
            impl_.evaluateFlush(map_id, port, addrs);
            return rc;
        }

        int
        erase(uint32_t map_id, const uint8_t *key, unsigned port) override
        {
            const unsigned klen = impl_.maps.at(map_id).def().keySize;
            const uint64_t khash = hashKeyBytes(map_id, key, klen);
            const int rc = impl_.maps.at(map_id).erase(key);
            impl_.evaluateFlush(map_id, port, {{true, khash}});
            return rc;
        }

        uint64_t
        readValue(uint32_t map_id, uint64_t entry, uint32_t off,
                  unsigned size, unsigned port) override
        {
            (void)port;
            if (impl_.recordReads[map_id])
                impl_.recordRead(map_id, false, entry);
            uint8_t buf[8];
            const uint8_t *base =
                impl_.maps.at(map_id).valueAt(entry) + off;
            std::memcpy(buf, base, size);
            if (impl_.pendingWriteCount == 0) {
                uint64_t direct = 0;
                std::memcpy(&direct, buf, size);
                return direct;
            }
            // Store-to-load forwarding from the speculation/WAR buffer:
            // a packet sees its own parked writes and those of *older*
            // packets (which are sequentially ordered before it). Older
            // packets never see younger parked writes - that is the WAR
            // protection of figure 6.
            //
            // Overlay in *sequential* order: writers ordered by seq,
            // and each writer's arena already holds program order
            // (overlapping stores are WAW-scheduled in order), which is
            // exactly the old global-buffer stable sort by writer seq.
            std::vector<Flight *> &fwd = impl_.fwdScratch;
            fwd.clear();
            for (Flight *w : impl_.pendingWriters) {
                if (w != impl_.cur && w->seq > impl_.cur->seq)
                    continue;
                fwd.push_back(w);
            }
            std::sort(fwd.begin(), fwd.end(),
                      [](const Flight *a, const Flight *b) {
                          return a->seq < b->seq;
                      });
            for (const Flight *w : fwd) {
                for (const Flight::ParkedWrite &pw : w->warArena) {
                    if (pw.raw.mapId != map_id || pw.raw.entry != entry)
                        continue;
                    const int64_t lo = std::max<int64_t>(pw.raw.off, off);
                    const int64_t hi = std::min<int64_t>(
                        pw.raw.off + pw.raw.size, off + size);
                    for (int64_t b = lo; b < hi; ++b)
                        buf[b - off] = static_cast<uint8_t>(
                            pw.raw.value >> (8 * (b - pw.raw.off)));
                }
            }
            uint64_t out = 0;
            std::memcpy(&out, buf, size);
            return out;
        }

        void
        writeValue(uint32_t map_id, uint64_t entry, uint32_t off,
                   unsigned size, uint64_t value, unsigned port) override
        {
            // Park the write if this port is covered by a WAR/speculation
            // buffer; flush evaluation then happens at commit time, when
            // the value actually becomes visible.
            for (const WarBufferPlan &buf : impl_.pipe.warBuffers) {
                if (buf.mapId == map_id && buf.writeStage == port) {
                    Flight *w = impl_.cur;
                    if (w->warArena.empty())
                        impl_.pendingWriters.push_back(w);
                    w->warArena.push_back(
                        {{map_id, entry, off, static_cast<uint32_t>(size),
                          value},
                         port, buf.lastReadStage, impl_.parkSeqCounter++});
                    ++impl_.pendingWriteCount;
                    // Issue-time evaluation catches readers already in the
                    // window; readers arriving while the write is parked
                    // are caught again at commit time.
                    impl_.evaluateFlush(map_id, port, {{false, entry}});
                    return;
                }
            }
            impl_.directWrite(map_id, entry, off, size, value);
            impl_.evaluateFlush(map_id, port, {{false, entry}});
        }

        uint64_t
        atomicAdd(uint32_t map_id, uint64_t entry, uint32_t off,
                  unsigned size, uint64_t value, unsigned port) override
        {
            // The atomic-update primitive performs the read-modify-write
            // in place within the map memory (section 4.1.2 "global
            // state"): no hazard machinery engages.
            (void)port;
            uint8_t *base = impl_.maps.at(map_id).valueAt(entry) + off;
            uint64_t old = 0;
            std::memcpy(&old, base, size);
            const uint64_t updated = old + value;
            std::memcpy(base, &updated, size);
            return old;
        }

      private:
        Impl &impl_;
    };

    Impl(const Pipeline &pipeline, MapSet &map_set, PipeSim &owner)
        : pipe(pipeline), maps(map_set), sim(owner), io(*this)
    {
        nStages = pipeline.numStages();
        ringCap = 1;
        while (ringCap < nStages)
            ringCap <<= 1;
        ringMask = ringCap - 1;
        ring.resize(ringCap);
        cycleNs = 1e9 / static_cast<double>(owner.config().clockHz);
        entryBlock = pipe.cfg.blockOf(0);
        // O(1) elastic-buffer lookup on the per-stage hot path.
        elasticIndex.assign(pipe.numStages(), -1);
        for (size_t i = 0; i < pipe.elasticBuffers.size(); ++i)
            elasticIndex[pipe.elasticBuffers[i]] = static_cast<int>(i);
        stageHasOps.resize(pipe.numStages());
        for (size_t s = 0; s < pipe.numStages(); ++s)
            stageHasOps[s] = !pipe.stages[s].ops.empty();
        // Resolve each elastic buffer's live stack bitset to a slot list
        // once, so checkpoints only copy the live 8-byte slots instead of
        // rescanning all 512 bits per packet.
        liveSlotsAfter.resize(pipe.elasticBuffers.size());
        for (size_t i = 0; i < pipe.elasticBuffers.size(); ++i) {
            const auto &bits = pipe.liveStackAfter(pipe.elasticBuffers[i]);
            for (unsigned slot = 0; slot < ebpf::kStackSize / 8; ++slot)
                for (unsigned b = 0; b < 8; ++b)
                    if (bits[slot * 8 + b]) {
                        liveSlotsAfter[i].push_back(
                            static_cast<uint16_t>(slot));
                        break;
                    }
        }
        // Flush-evaluation blocks indexed by write stage: most map writes
        // hit stages with no flush block and return immediately.
        flushAtStage.resize(pipe.numStages());
        for (size_t i = 0; i < pipe.flushBlocks.size(); ++i)
            flushAtStage[pipe.flushBlocks[i].writeStage].push_back(
                static_cast<uint16_t>(i));
        // Checkpoint-chain restores walk Flight::checkpoints in index
        // order and rely on it being stage-ascending.
        for (size_t i = 1; i < pipe.elasticBuffers.size(); ++i)
            if (pipe.elasticBuffers[i] <= pipe.elasticBuffers[i - 1])
                panic("elastic buffers not in ascending stage order");

        // Engine selection. The AOT specializer additionally prunes read
        // recording to maps with a flush block; the interpreter records
        // every read so it stays the unoptimized reference oracle.
        const PipeSimConfig &cfg = owner.config();
        EngineInfo info;
        info.engine = cfg.engine;
        if (cfg.engine == SimEngine::Aot) {
            aotSpec = aot::buildAotSpec(pipe);
            aotActive = true;
            recordReads = aotSpec.recordReads;
            if (cfg.aotBackend == AotBackend::Native) {
                aot::NativeLoadResult res =
                    aot::loadNativeModule(aotSpec, cfg.aotCacheDir);
                if (res) {
                    nativeMod = res.module;
                    nativeStages = nativeMod->stages();
                    info.backend = AotBackend::Native;
                    info.nativeLoaded = true;
                } else {
                    info.fallbackReason = res.error;
                }
            }
        } else {
            recordReads.assign(pipe.prog.maps.size(), 1);
        }
        sim.engineInfo_ = info;

        paranoid = cfg.paranoidChecks;
        eventDriven = cfg.schedMode == SchedMode::EventDriven;
        if (cfg.profilePhases)
            prof = std::make_unique<PipeSimPhaseProfile>();

        // Event-driven mode: per-stage "next stage with observable work"
        // tables, so the next-event computation is O(occupancy). A stage
        // is observable when the engine's sweep would do more than mark
        // it passed: for the interpreter any stage with ops or an
        // elastic buffer (exited flights still checkpoint at buffers);
        // for the AOT engine any entry stage (bursts run — and
        // checkpoint — from entry stages only).
        const size_t n = pipe.numStages();
        nextActiveLive.assign(n + 1, SIZE_MAX);
        nextActiveExited.assign(n + 1, SIZE_MAX);
        for (size_t s = n; s-- > 0;) {
            bool live, exited_active;
            if (aotActive) {
                live = exited_active = aotSpec.entryStage[s] != 0;
            } else {
                live = stageHasOps[s] || elasticIndex[s] >= 0;
                exited_active = elasticIndex[s] >= 0;
            }
            nextActiveLive[s] = live ? s : nextActiveLive[s + 1];
            nextActiveExited[s] =
                exited_active ? s : nextActiveExited[s + 1];
        }

        // AOT sweep order: the descending list of entry stages, so the
        // per-cycle sweep probes only the few slots where a burst can
        // begin instead of every occupied slot of a deep pipeline.
        if (aotActive)
            for (size_t s = n; s-- > 0;)
                if (aotSpec.entryStage[s])
                    aotEntryDesc.push_back(s);
    }

    // --- flight pooling ---------------------------------------------------

    /**
     * Fetch a recycled Flight (or build the first ones). The embedded
     * ExecState, packet buffer, checkpoint storage and bookkeeping vectors
     * retain their allocations across packets, so the steady-state cost of
     * admitting a packet is a few memcpys rather than a dozen mallocs.
     */
    std::unique_ptr<Flight>
    acquireFlight(net::Packet &&pkt)
    {
        std::unique_ptr<Flight> f;
        if (!flightPool.empty()) {
            f = std::move(flightPool.back());
            flightPool.pop_back();
        } else {
            f = std::make_unique<Flight>();
        }
        f->id = pkt.id;
        f->seq = nextSeq++;
        f->arrivalNs = pkt.arrivalNs;
        pkt.bytesInto(f->pristineBytes);
        f->pkt = std::move(pkt);
        if (!f->state) {
            // &f->pkt and &io are stable for the flight's pooled lifetime.
            f->state = std::make_unique<ExecState>(pipe.prog, &f->pkt, &io);
        } else {
            f->state->setPort(0);
            f->state->reset();
        }
        f->state->nowNs = f->arrivalNs;
        f->blockEnabled.assign(pipe.numBlocks(), false);
        f->blockEnabled[entryBlock] = true;
        f->exited = false;
        f->trapped = false;
        f->trapReason.clear();
        f->lastExecuted = -1;
        f->action = XdpAction::Aborted;
        f->redirectIfindex = 0;
        f->entryCycle = 0;
        f->reads.clear();
        f->readDigest = 0;
        f->readMapMask = 0;
        f->ringPos = 0;
        f->warArena.clear();
        f->checkpoints.resize(pipe.elasticBuffers.size());
        for (Flight::Checkpoint &cp : f->checkpoints)
            cp.valid = false;
        if (aotActive) {
            f->aotCtx.st = f->state.get();
            f->aotCtx.enabled = &f->blockEnabled;
            f->aotCtx.exited = &f->exited;
            f->aotCtx.action = &f->action;
            f->aotCtx.redirectIfindex = &f->redirectIfindex;
        }
        return f;
    }

    void
    releaseFlight(std::unique_ptr<Flight> f)
    {
        flightPool.push_back(std::move(f));
    }

    // --- map plumbing ---------------------------------------------------

    /** Record one hazard-relevant read of the current flight. */
    void
    recordRead(uint32_t map_id, bool index_level, uint64_t addr)
    {
        cur->reads.push_back({map_id, index_level, addr});
        cur->readDigest |= readSigBit(map_id, index_level, addr);
        cur->readMapMask |= mapMaskBit(map_id);
    }

    void
    directWrite(uint32_t map_id, uint64_t entry, uint32_t off,
                unsigned size, uint64_t value)
    {
        maps.applyRaw({map_id, entry, off, size, value});
    }

    /** Drop @p w from the active-writers list once its arena empties. */
    void
    retireWriter(Flight *w)
    {
        pendingWriters.erase(
            std::find(pendingWriters.begin(), pendingWriters.end(), w));
    }

    /**
     * Per-cycle batch commit: every parked write whose writer has
     * reached (or passed — SIZE_MAX marks a flushed writer in a replay
     * queue) its commit stage lands now, in global park order, through
     * the MapSet batch path. Younger readers saw these values already
     * via forwarding, so the commit itself raises no hazard.
     */
    void
    commitPendingWrites()
    {
        const auto t0 =
            prof ? std::chrono::steady_clock::now()
                 : std::chrono::steady_clock::time_point{};
        commitScratch.clear();
        for (size_t wi = 0; wi < pendingWriters.size();) {
            Flight *w = pendingWriters[wi];
            const size_t wstage = stageOf(*w);
            std::vector<Flight::ParkedWrite> &arena = w->warArena;
            size_t kept = 0;
            for (Flight::ParkedWrite &pw : arena) {
                if (wstage != SIZE_MAX && wstage < pw.commitStage)
                    arena[kept++] = pw;
                else
                    commitScratch.push_back(pw);
            }
            if (kept == arena.size()) {
                ++wi;
                continue;
            }
            arena.resize(kept);
            if (arena.empty())
                pendingWriters.erase(pendingWriters.begin() + wi);
            else
                ++wi;
        }
        if (!commitScratch.empty()) {
            // Restore the global park (insertion) order across writers.
            std::sort(commitScratch.begin(), commitScratch.end(),
                      [](const Flight::ParkedWrite &a,
                         const Flight::ParkedWrite &b) {
                          return a.parkSeq < b.parkSeq;
                      });
            rawScratch.clear();
            for (const Flight::ParkedWrite &pw : commitScratch)
                rawScratch.push_back(pw.raw);
            maps.commitBatch(rawScratch.data(), rawScratch.size());
            pendingWriteCount -= rawScratch.size();
            sim.stats_.commitBatches++;
            sim.stats_.committedWrites += rawScratch.size();
        }
        if (prof)
            prof->commitSec += secondsSince(t0);
    }

    /**
     * Release @p flight's parked writes whose delay buffer drains at or
     * before @p stage. The buffer empties as the packet *enters* the
     * commit stage, logically ahead of that stage's own operations: a
     * later write by the same packet at the commit stage (WAW, scheduled
     * deeper precisely because it conflicts) must land after the parked
     * one or the two stores would commit in reverse program order.
     */
    void
    commitPendingWritesFor(Flight &flight, size_t stage)
    {
        std::vector<Flight::ParkedWrite> &arena = flight.warArena;
        if (arena.empty())
            return;
        const auto t0 =
            prof ? std::chrono::steady_clock::now()
                 : std::chrono::steady_clock::time_point{};
        rawScratch.clear();
        size_t kept = 0;
        for (Flight::ParkedWrite &pw : arena) {
            if (pw.commitStage > stage)
                arena[kept++] = pw;
            else
                rawScratch.push_back(pw.raw);
        }
        if (!rawScratch.empty()) {
            arena.resize(kept);
            maps.commitBatch(rawScratch.data(), rawScratch.size());
            pendingWriteCount -= rawScratch.size();
            sim.stats_.commitBatches++;
            sim.stats_.committedWrites += rawScratch.size();
            if (arena.empty())
                retireWriter(&flight);
        }
        if (prof)
            prof->commitSec += secondsSince(t0);
    }

    /** Full read scan of one flight against the written addresses. */
    bool
    preciseHazardScan(const Flight *f, uint32_t map_id,
                      const std::vector<std::pair<bool, uint64_t>> &addrs)
        const
    {
        for (const ReadRec &rec : f->reads) {
            if (rec.mapId != map_id)
                continue;
            for (const auto &[index_level, addr] : addrs)
                if (rec.indexLevel == index_level && rec.addr == addr)
                    return true;
        }
        return false;
    }

    /**
     * Flush-evaluation block: called when the packet currently executing
     * stage @p stage writes the given addresses on @p map_id.
     */
    void
    evaluateFlush(uint32_t map_id, size_t stage,
                  const std::vector<std::pair<bool, uint64_t>> &addrs)
    {
        const FlushBlockPlan *plan = nullptr;
        for (const uint16_t idx : flushAtStage[stage])
            if (pipe.flushBlocks[idx].mapId == map_id)
                plan = &pipe.flushBlocks[idx];
        if (plan == nullptr)
            return;

        auto t0 = prof ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{};

        // Any younger packet inside the hazard window holding a matching
        // unconfirmed read triggers a flush of the whole window. A
        // restart-0 window includes stage 0: its occupant has no reads
        // yet, but it must re-queue behind the replayed older packets or
        // packet order (and with it sequential map semantics) inverts.
        //
        // Each slot is first tested against the flight's O(1) read
        // summary (map mask + Bloom digest); only a summary hit runs
        // the precise scan, which remains the decider — a digest false
        // positive costs a scan, never a spurious flush.
        const size_t window_first =
            plan->restartStage == 0 ? 0 : plan->restartStage + 1;
        uint64_t addr_sig = 0;
        for (const auto &[index_level, addr] : addrs)
            addr_sig |= readSigBit(map_id, index_level, addr);
        const uint64_t map_bit = mapMaskBit(map_id);
        bool hazard = false;
        for (size_t s = window_first; s < plan->writeStage && !hazard; ++s) {
            const Flight *f = slotAt(s).get();
            if (f == nullptr || f == cur)
                continue;
            sim.stats_.hazardChecks++;
            if (!(f->readMapMask & map_bit) ||
                !(f->readDigest & addr_sig)) {
                sim.stats_.hazardSummarySkips++;
                if (paranoid && preciseHazardScan(f, map_id, addrs))
                    panic("paranoid hazard cross-check: summary skipped "
                          "a flight whose read scan finds a hazard (map ",
                          map_id, ", slot ", s, ")");
                continue;
            }
            sim.stats_.hazardPreciseScans++;
            hazard = preciseHazardScan(f, map_id, addrs);
        }
        if (!hazard) {
            if (prof)
                prof->hazardSec += secondsSince(t0);
            return;
        }
        if (prof) {
            prof->hazardSec += secondsSince(t0);
            t0 = std::chrono::steady_clock::now();
        }

        // Flush: every packet between the elastic buffer (restart stage)
        // and the write stage replays from its checkpoint.
        sim.stats_.flushEvents++;
        // Harvest deepest-first: deeper flights are older (smaller seq),
        // so the replay queue comes out oldest-first without sorting.
        for (size_t s = plan->writeStage; s-- > window_first;) {
            std::unique_ptr<Flight> f = std::move(slotAt(s));
            if (!f || f.get() == cur) {
                slotAt(s) = std::move(f);
                continue;
            }
            sim.stats_.flushedPackets++;
            sim.stats_.replayedStages += s - plan->restartStage;
            // Un-commit the flushed packet's parked WAR writes from the
            // replayed stages: the replay re-executes those store
            // instructions. Writes parked at or before the restart point
            // are architecturally issued (their stage is not re-run) and
            // must stay parked or they would be lost.
            if (!f->warArena.empty()) {
                std::vector<Flight::ParkedWrite> &arena = f->warArena;
                const size_t before = arena.size();
                arena.erase(
                    std::remove_if(arena.begin(), arena.end(),
                                   [window_first](
                                       const Flight::ParkedWrite &pw) {
                                       return pw.issueStage >= window_first;
                                   }),
                    arena.end());
                pendingWriteCount -= before - arena.size();
                if (arena.empty())
                    retireWriter(f.get());
            }
            f->ringPos = SIZE_MAX;  // replay-queued: writes commit freely
            restoreFlight(*f, plan->restartStage);
            replayQueues[plan->restartStage].push_back(std::move(f));
            --occupiedSlots;
            ++replayCount;
        }
        // Keep replay order deterministic: oldest first. The window was
        // harvested oldest-first, so the queue is already sorted unless
        // it held earlier flushes, and the check is cheaper than an
        // unconditional sort.
        auto &queue = replayQueues[plan->restartStage];
        const auto by_seq = [](const auto &a, const auto &b) {
            return a->seq < b->seq;
        };
        if (!std::is_sorted(queue.begin(), queue.end(), by_seq))
            std::sort(queue.begin(), queue.end(), by_seq);
        reloadStall = sim.config_.flushReloadCycles;
        if (prof)
            prof->flushSec += secondsSince(t0);
    }

    void
    restoreFlight(Flight &flight, size_t restart_stage)
    {
        if (restart_stage == 0) {
            // Full replay from the pipeline input. Reset the pooled
            // ExecState in place instead of constructing a fresh one.
            flight.pkt.assignBytes(flight.pristineBytes);
            flight.pkt.id = flight.id;
            flight.pkt.arrivalNs = flight.arrivalNs;
            flight.pkt.ingressIfindex = 1;
            flight.state->reset();
            flight.state->nowNs = flight.arrivalNs;
            flight.blockEnabled.assign(pipe.numBlocks(), false);
            flight.blockEnabled[entryBlock] = true;
            flight.exited = false;
            flight.trapped = false;
            flight.trapReason.clear();
            flight.lastExecuted = -1;
            flight.reads.clear();
            flight.readDigest = 0;
            flight.readMapMask = 0;
            for (Flight::Checkpoint &cp : flight.checkpoints)
                cp.valid = false;
            return;
        }
        const int idx = elasticIndex[restart_stage];
        if (idx < 0 || !flight.checkpoints[idx].valid)
            panic("flush restart without checkpoint at stage ",
                  restart_stage);
        const Flight::Checkpoint &cp = flight.checkpoints[idx];
        // Materialize the copy-on-write chain: packet bytes come from
        // the deepest link at or before the restart that captured them
        // (nothing wrote the packet between that link and the restart,
        // or a deeper link would have captured it) ...
        const Flight::Checkpoint *pkt_src = nullptr;
        for (int i = idx; i >= 0; --i) {
            const Flight::Checkpoint &c = flight.checkpoints[i];
            if (c.valid && c.stage <= restart_stage && c.pktCopied) {
                pkt_src = &c;
                break;
            }
        }
        if (pkt_src == nullptr)
            panic("checkpoint chain lost its packet snapshot");
        flight.pkt.assignBytes(pkt_src->pktBytes);
        flight.pkt.id = flight.id;
        flight.pkt.arrivalNs = flight.arrivalNs;
        flight.pkt.ingressIfindex = 1;
        // ... and registers/stack come from overlaying every valid link
        // up to the restart, oldest first, onto a deterministic reset
        // state. Each link holds exactly what was written since its
        // predecessor, so the overlay reproduces the state the old
        // eager snapshot recorded; slots a link recorded but that died
        // before the restart may surface stale values, which is sound
        // because dead-at-restart state is rewritten before any read.
        flight.state->reset();
        flight.state->nowNs = flight.arrivalNs;
        for (int i = 0; i <= idx; ++i) {
            const Flight::Checkpoint &c = flight.checkpoints[i];
            if (c.valid && c.stage <= restart_stage)
                flight.state->restore(c.state);
        }
        // The chain now *is* the state: nothing is dirty relative to it.
        flight.state->clearDirty();
        flight.blockEnabled = cp.blockEnabled;
        flight.exited = cp.exited;
        flight.trapped = cp.trapped;
        flight.action = cp.action;
        flight.redirectIfindex = cp.redirectIfindex;
        // The read log is append-only, so the log at checkpoint time is
        // a prefix of the current log: truncate instead of copying.
        flight.reads.resize(cp.readsLen);
        flight.readDigest = cp.readDigest;
        flight.readMapMask = cp.readMapMask;
        flight.lastExecuted = static_cast<int64_t>(restart_stage);
        // Checkpoints deeper than the restart point are stale.
        for (Flight::Checkpoint &deep : flight.checkpoints)
            if (deep.valid && deep.stage > restart_stage)
                deep.valid = false;
        sim.stats_.checkpointsMaterialized++;
    }

    // --- stage execution -------------------------------------------------

    /**
     * Elastic buffers checkpoint the pipeline registers (appendix A.2).
     * Only the liveness-pruned state entering the next stage is saved,
     * mirroring the pruned registers the hardware buffer carries, and
     * the per-buffer storage slot is reused so no allocation happens
     * once its vectors have grown.
     */
    void
    checkpointAt(Flight &flight, size_t stage_idx, int eb)
    {
        std::chrono::steady_clock::time_point t0;
        if (prof)
            t0 = std::chrono::steady_clock::now();
        Flight::Checkpoint &cp = flight.checkpoints[eb];
        cp.valid = true;
        cp.stage = stage_idx;
        // Copy-on-write: record only what changed since the previous
        // checkpoint (the dirty ∩ live state) and clear the dirty bits —
        // restoreFlight materializes the full state by overlaying the
        // chain of links in stage order.
        flight.state->checkpointDirtyInto(cp.state,
                                          pipe.liveRegsAfter(stage_idx),
                                          liveSlotsAfter[eb]);
        cp.pktCopied = flight.state->pktDirty();
        if (cp.pktCopied) {
            flight.pkt.bytesInto(cp.pktBytes);
            flight.state->setPktDirty(false);
        }
        cp.blockEnabled = flight.blockEnabled;
        cp.exited = flight.exited;
        cp.trapped = flight.trapped;
        cp.action = flight.action;
        cp.redirectIfindex = flight.redirectIfindex;
        // The read log only grows, so its length (plus the summary pair)
        // is enough to restore it by truncation.
        cp.readsLen = static_cast<uint32_t>(flight.reads.size());
        cp.readDigest = flight.readDigest;
        cp.readMapMask = flight.readMapMask;
        sim.stats_.checkpointsTaken++;
        if (prof)
            prof->checkpointSec += secondsSince(t0);
    }

    /** Interpreter: execute one stage (the generic sweep's only call). */
    void
    executeStage(Flight &flight, size_t stage_idx)
    {
        const hdl::Stage &stage = pipe.stages[stage_idx];
        // (Stages with nothing to do are skipped by the sweep in
        // stepOnce, which inlines that fast path.)
        // Drain this packet's due delay buffers before the stage executes
        // (older packets ran their deeper stages earlier this cycle, so
        // every protected reader has already gone past).
        if (!flight.warArena.empty())
            commitPendingWritesFor(flight, stage_idx);
        cur = &flight;
        if (!flight.exited && !stage.ops.empty()) {
            flight.state->setPort(static_cast<unsigned>(stage_idx));
            runStageOps(flight, stage);
        }
        const int eb = elasticIndex[stage_idx];
        if (eb >= 0)
            checkpointAt(flight, stage_idx, eb);
        flight.lastExecuted = static_cast<int64_t>(stage_idx);
        cur = nullptr;
    }

    /**
     * AOT engine: execute stage @p stage_idx and burst through the
     * map-free run behind it (sim/aot/specialize.hpp). Parked delay
     * buffers drain only for the entry stage — later commit stages
     * inside the burst are handled by the per-cycle commitPendingWrites
     * pass at their architectural cycle, and the burst stages themselves
     * touch no map, so they cannot observe the difference. Elastic
     * buffers crossed mid-burst checkpoint packet-local state that is
     * identical whenever it is computed — and only buffers some flush
     * block actually restarts from are checkpointed at all
     * (AotSpec::checkpointNeeded); the rest hold state nothing reads.
     *
     * The hazard port is set once for the entry stage: every deeper
     * stage of the burst is map-free, so no other access can observe
     * the port. Traps latch the abort exactly like the interpreter;
     * later segments of the burst are skipped via `exited` while any
     * remaining live checkpoint still records the post-trap state.
     *
     * The entry-stage sweep in stepOnce is the only caller, so
     * @p stage_idx is always an entry stage, and so is every stage the
     * segment walk below lands on (sim/aot/specialize.hpp, item 3):
     * entry stages are the complete set of native functions.
     */
    void
    executeStageAot(Flight &flight, size_t stage_idx)
    {
        if (!flight.warArena.empty())
            commitPendingWritesFor(flight, stage_idx);
        cur = &flight;
        const size_t burst_end = aotSpec.stages[stage_idx].burstEnd;
        flight.state->setPort(static_cast<unsigned>(stage_idx));
        if (nativeStages != nullptr) {
            // Native modules fuse each map-and-checkpoint-free run into
            // one straight-line segment function; walk the burst one
            // segment at a time.
            for (size_t k = stage_idx; k <= burst_end;) {
                const size_t seg_end = aotSpec.stages[k].segEnd;
                if (!flight.exited) {
                    if (const aot::NativeStageFn fn = nativeStages[k]) {
                        try {
                            fn(flight.aotCtx);
                        } catch (const VmTrap &trap) {
                            latchTrap(flight, trap);
                        }
                    }
                }
                const int eb = elasticIndex[seg_end];
                if (eb >= 0 && aotSpec.checkpointNeeded[eb])
                    checkpointAt(flight, seg_end, eb);
                k = seg_end + 1;
            }
        } else {
            for (size_t k = stage_idx; k <= burst_end; ++k) {
                if (!flight.exited)
                    runStageOps(flight, pipe.stages[k]);
                const int eb = elasticIndex[k];
                if (eb >= 0 && aotSpec.checkpointNeeded[eb])
                    checkpointAt(flight, k, eb);
            }
        }
        flight.lastExecuted = static_cast<int64_t>(burst_end);
        cur = nullptr;
    }

    /**
     * The one StageOp walk: execute @p stage's ops under predication
     * until the packet exits. Both the interpreter and the portable AOT
     * backend run stages through here, so they share op semantics by
     * construction; a trap latches the abort (latchTrap).
     */
    void
    runStageOps(Flight &flight, const hdl::Stage &stage)
    {
        try {
            for (const StageOp &op : stage.ops) {
                if (!flight.blockEnabled[op.blockId])
                    continue;
                if (executeOp(flight, op))
                    break;  // exit latched
            }
        } catch (const VmTrap &trap) {
            latchTrap(flight, trap);
        }
    }

    /** A trapping instruction aborts the packet (every engine). */
    static void
    latchTrap(Flight &flight, const VmTrap &trap)
    {
        flight.trapped = true;
        flight.exited = true;
        flight.action = XdpAction::Aborted;
        flight.trapReason = trap.reason;
    }

    /** Execute one op; returns true when the packet exits. */
    bool
    executeOp(Flight &flight, const StageOp &op)
    {
        switch (op.kind) {
          case OpKind::Branch: {
            const ebpf::Insn &insn = pipe.prog.insns[op.pcs.front()];
            const bool taken = flight.state->evalCond(insn);
            flight.blockEnabled[taken ? op.takenBlock : op.fallBlock] =
                true;
            return false;
          }
          case OpKind::Jump:
            flight.blockEnabled[op.takenBlock] = true;
            return false;
          case OpKind::Exit: {
            const uint32_t code = flight.state->exitCode();
            flight.action =
                static_cast<XdpAction>(code <= 4 ? code : 0);
            flight.redirectIfindex = flight.state->redirectIfindex;
            flight.exited = true;
            return true;
          }
          default:
            for (size_t pc : op.pcs)
                flight.state->execute(pipe.prog.insns[pc]);
            return false;
        }
    }

    // --- cycle loop --------------------------------------------------------

    /**
     * Deepest stage held by a pending replay: a replay at elastic buffer r
     * holds stages <= r so the buffer can re-feed stage r+1 (restart 0
     * re-enters through the pipeline input instead, so it stalls nothing).
     * Computed once per cycle instead of per slot.
     */
    int64_t
    stallBound() const
    {
        int64_t bound = -1;
        for (const auto &[restart, queue] : replayQueues)
            if (!queue.empty() && restart > 0)
                bound = std::max(bound, static_cast<int64_t>(restart));
        return bound;
    }

    /** Admit the head-of-queue packet into stage 0. */
    void
    injectFront()
    {
        std::unique_ptr<Flight> f =
            acquireFlight(std::move(inputQueue.front()));
        inputQueue.pop_front();
        f->entryCycle = sim.stats_.cycles;
        f->ringPos = head;
        slotAt(0) = std::move(f);
        ++occupiedSlots;
        sweepBound = std::max<int64_t>(sweepBound, 0);
    }

    /**
     * Event-driven scheduling (SchedMode::EventDriven): generalize the
     * idle fast-forward to a *partially occupied* pipeline. When no
     * hazard machinery is armed (no replay, no reload stall, no parked
     * writes), a dense cycle in which no flight reaches an active stage,
     * no flight retires, and no arrival lands is pure drift: every
     * occupant shifts down one slot and the clock ticks. Compute the
     * distance to the nearest such event across all occupants and the
     * input queue, and teleport — shift every occupant by `skip` slots
     * and add `skip` to the cycle counter — which reproduces the skipped
     * dense cycles bit-for-bit (including the interpreter sweep's
     * lastExecuted marking on inactive stages). Runs before ++cycles so
     * the following dense step lands exactly on the event cycle.
     */
    void
    eventSkip()
    {
        if (occupiedSlots == 0 || replayCount != 0 || reloadStall != 0 ||
            pendingWriteCount != 0)
            return;
        const uint64_t T = sim.stats_.cycles;
        const size_t n = nStages;
        uint64_t dmin = UINT64_MAX;
        size_t seen = 0;
        const int64_t top = std::min<int64_t>(
            static_cast<int64_t>(n) - 1, sweepBound + 1);
        for (int64_t s = top; s >= 0 && seen < occupiedSlots; --s) {
            const Flight *const f = slotAt(s).get();
            if (f == nullptr)
                continue;
            ++seen;
            // Retire: the occupant of slot s reaches the last stage in
            // n - s cycles.
            dmin = std::min(dmin, static_cast<uint64_t>(n) -
                                      static_cast<uint64_t>(s));
            // Execute: the next stage at which this flight does anything
            // observable (ops / elastic checkpoint under the interpreter,
            // burst entry under AOT), at or past both its slot and its
            // already-executed prefix.
            const size_t m0 = static_cast<size_t>(std::max<int64_t>(
                f->lastExecuted + 1, s));
            const size_t m = f->exited
                                 ? nextActiveExited[std::min(m0, n)]
                                 : nextActiveLive[std::min(m0, n)];
            if (m != SIZE_MAX)
                dmin = std::min(
                    dmin, static_cast<uint64_t>(m - s) + 1);
        }
        // Arrival: the first cycle whose timestamp covers the queue head
        // (same rounding as the idle fast path), never before T + 1.
        if (!injectHold && !inputQueue.empty()) {
            const uint64_t arrival = inputQueue.front().arrivalNs;
            uint64_t c = T + 1;
            if (static_cast<uint64_t>(c * cycleNs) < arrival) {
                uint64_t est = static_cast<uint64_t>(arrival / cycleNs);
                est = est > 0 ? est - 1 : 0;
                c = std::max(c, est);
                while (static_cast<uint64_t>(c * cycleNs) < arrival)
                    ++c;
            }
            dmin = std::min(dmin, c - T);
        }
        uint64_t skip = dmin - 1;
        // Never jump past an armed control-plane cap: the cycle at the
        // cap must be observed by a dense step.
        if (ffLimit != UINT64_MAX && ffLimit > T)
            skip = std::min(skip, ffLimit - T - 1);
        if (skip == 0)
            return;
        // Teleport: a uniform shift is one ring-head rotation — no slot
        // moves (skip < n by the retire bound, so no occupied stage
        // rotates past the end). Only the interpreter needs a per-flight
        // touch: its dense sweep marks each skipped inactive stage as
        // executed in passing; AOT leaves lastExecuted at the burst end.
        if (!aotActive) {
            seen = 0;
            for (int64_t s = top; s >= 0 && seen < occupiedSlots; --s) {
                Flight *const f = slotAt(s).get();
                if (f == nullptr)
                    continue;
                ++seen;
                f->lastExecuted = std::max<int64_t>(
                    f->lastExecuted,
                    s + static_cast<int64_t>(skip) - 1);
            }
        }
        head = (head + ringCap - skip) & ringMask;
        sweepBound = std::min<int64_t>(sweepBound + skip,
                                       static_cast<int64_t>(n) - 1);
        sim.stats_.cycles += skip;
        sim.stats_.eventJumps++;
        sim.stats_.eventSkippedCycles += skip;
    }

    void
    stepOnce()
    {
        if (eventDriven)
            eventSkip();
        ++sim.stats_.cycles;

        // Fast path: an empty pipeline only waits for the next arrival,
        // so the clock can advance without sweeping any stage slot — and
        // when the next arrival is still in the future, jump straight to
        // its cycle in O(1) instead of idling one cycle per call.
        if (occupiedSlots == 0 && replayCount == 0 &&
            pendingWriteCount == 0) {
            if (reloadStall > 0) {
                --reloadStall;
                sim.stats_.stallCycles++;
                return;
            }
            if (nStages == 0)
                return;
            if (inputQueue.empty() || injectHold) {
                // Nothing can enter the pipeline before the fast-forward
                // cap, so an armed cap is reached directly — the control
                // plane advances an idle (or held) pipeline to its next
                // mailbox event this way in O(1).
                if (ffLimit != UINT64_MAX && ffLimit > sim.stats_.cycles)
                    sim.stats_.cycles = ffLimit;
                return;
            }
            const uint64_t arrival = inputQueue.front().arrivalNs;
            uint64_t c = sim.stats_.cycles;
            if (static_cast<uint64_t>(c * cycleNs) < arrival) {
                // Find the first cycle whose timestamp covers the arrival,
                // reproducing the exact rounding of the one-cycle loop
                // (the estimate starts one cycle early to be immune to
                // floating-point rounding of the division).
                uint64_t est = static_cast<uint64_t>(arrival / cycleNs);
                est = est > 0 ? est - 1 : 0;
                c = std::max(c, est);
                while (static_cast<uint64_t>(c * cycleNs) < arrival)
                    ++c;
                // A control-plane event sits between now and the arrival:
                // park at the cap instead of jumping past it, without
                // injecting (the packet is still in the future). Stale
                // caps at or before the current cycle are inert.
                if (c > ffLimit && ffLimit > sim.stats_.cycles) {
                    sim.stats_.cycles = ffLimit;
                    return;
                }
                sim.stats_.cycles = c;
            }
            injectFront();
            return;
        }

        const uint64_t now_ns =
            static_cast<uint64_t>(sim.stats_.cycles * cycleNs);

        // 1. Execute, deepest stage first (older packets act earlier).
        // A flight held in place by an elastic-buffer stall has already
        // executed its stage and must not repeat its side effects.
        //
        // The sweep is bounded on both ends: it starts just past the
        // deepest slot that could be occupied (flights advance at most
        // one stage per cycle) and stops once every occupied slot has
        // been visited, so a sparse pipeline — e.g. right after a flush
        // drained it into the replay queues — costs O(occupancy), not
        // O(stages). The fast path for stages with nothing to do — no
        // ops (padding, or the packet already exited), no elastic buffer
        // to checkpoint into, no parked writes to drain — is inlined to
        // spare the call; hoisting the parked-write check out of the
        // loop is safe because writes parked mid-sweep belong to deeper
        // (older) flights, never to the flight being skipped.
        const bool no_pending = pendingWriteCount == 0;
        std::chrono::steady_clock::time_point sweep_t0;
        double nested0 = 0;
        if (prof) {
            sweep_t0 = std::chrono::steady_clock::now();
            nested0 = prof->hazardSec + prof->flushSec +
                      prof->checkpointSec + prof->commitSec;
        }
        const int64_t sweep_top = std::min<int64_t>(
            static_cast<int64_t>(nStages) - 1, sweepBound + 1);
        int64_t deepest = -1;
        size_t seen = 0;
        if (aotActive) {
            // AOT sweep: bursts always run through burstEnd, so a flight
            // can only be due for execution at a statically known entry
            // stage (AotSpec::entryStage); everywhere else its occupant
            // provably satisfies lastExecuted >= stage and the sweep
            // need not even touch the slot at all — it walks the (short,
            // descending) entry-stage list rather than every occupied
            // slot of a deep pipeline, the dominant cost of the generic
            // sweep. sweepBound stays the conservative one-step growth
            // (it is only ever used as an upper bound).
            for (const size_t es : aotEntryDesc) {
                const int64_t s = static_cast<int64_t>(es);
                if (s > sweep_top)
                    continue;
                Flight *const f = slotAt(s).get();
                if (f == nullptr || f->lastExecuted >= s)
                    continue;  // empty, or stall-held at an entry stage
                executeStageAot(*f, es);
            }
            deepest = occupiedSlots > 0 ? sweep_top : -1;
        } else {
            for (int64_t s = sweep_top; s >= 0 && seen < occupiedSlots;
                 --s) {
                Flight *const f = slotAt(s).get();
                if (f == nullptr)
                    continue;
                ++seen;
                if (deepest < 0)
                    deepest = s;
                if (f->lastExecuted >= s)
                    continue;
                if ((f->exited || !stageHasOps[s]) &&
                    elasticIndex[s] < 0 && no_pending) {
                    f->lastExecuted = s;
                    continue;
                }
                executeStage(*f, static_cast<size_t>(s));
            }
        }
        sweepBound = deepest;
        if (prof) {
            // Execute cost excludes the hazard/flush/checkpoint/commit
            // work nested inside the sweep, so the phases partition.
            const double nested1 = prof->hazardSec + prof->flushSec +
                                   prof->checkpointSec + prof->commitSec;
            prof->executeSec +=
                secondsSince(sweep_t0) - (nested1 - nested0);
        }

        // 2. Commit WAR-delayed writes whose writer cleared the window.
        if (pendingWriteCount != 0)
            commitPendingWrites();

        std::chrono::steady_clock::time_point ar_t0;
        if (prof)
            ar_t0 = std::chrono::steady_clock::now();

        // 3. Retire from the last stage.
        if (nStages != 0 && slotAt(nStages - 1)) {
            Flight &f = *slotAt(nStages - 1);
            // A packet that never reached an exit op aborts.
            PacketOutcome &out = retired;
            out.id = f.id;
            out.action = f.exited ? f.action : XdpAction::Aborted;
            out.redirectIfindex = f.redirectIfindex;
            out.trapped = f.trapped || !f.exited;
            out.trapReason = f.exited ? f.trapReason : "no exit reached";
            out.entryCycle = f.entryCycle;
            out.exitCycle = sim.stats_.cycles;
            f.pkt.bytesInto(out.bytes);
            sim.stats_.completed++;
            sim.latencyCycles_ += out.exitCycle - out.entryCycle + 1;
            switch (out.action) {
            case XdpAction::Pass: sim.stats_.passPackets++; break;
            case XdpAction::Drop: sim.stats_.dropPackets++; break;
            case XdpAction::Tx: sim.stats_.txPackets++; break;
            case XdpAction::Redirect: sim.stats_.redirectPackets++; break;
            case XdpAction::Aborted: sim.stats_.abortedPackets++; break;
            }
            for (RetireSink *sink : sim.sinks_)
                sink->onRetire(sim.stats_.cycles, out);
            // Orphan any pending writes (should have committed already).
            if (!f.warArena.empty())
                panic("pending WAR write outlived its writer");
            releaseFlight(std::move(slotAt(nStages - 1)));
            --occupiedSlots;
        }

        // 4. Advance the pipeline (respecting elastic-buffer stalls).
        // The ring makes the stall-free case O(1): retiring always frees
        // the last stage, so every occupied flight shifts up exactly one
        // stage — a single head rotation. Under a stall, the held prefix
        // (stages 0..stall_bound) is rotated back into place afterwards;
        // each target slot is vacated by the rotation (stage 0's fresh
        // slot held old stage ringCap-1, empty by the ring invariant) or
        // by the previous fix-up step, so the ascending moves never
        // collide.
        int64_t stall_bound = replayCount > 0 ? stallBound() : -1;
        if (occupiedSlots > 0) {
            head = (head + ringCap - 1) & ringMask;
            for (int64_t s = 0; s <= stall_bound; ++s) {
                std::unique_ptr<Flight> &held = slotAt(s + 1);
                if (held) {
                    held->ringPos = (head + static_cast<size_t>(s)) &
                                    ringMask;
                    slotAt(s) = std::move(held);
                }
            }
        }
        if (stall_bound >= 0)
            sim.stats_.stallCycles++;

        // 5. Re-inject flushed packets at their elastic buffers.
        if (replayCount > 0) {
            for (auto &[restart, queue] : replayQueues) {
                if (queue.empty())
                    continue;
                const size_t target = restart == 0 ? 0 : restart + 1;
                if (target < nStages && !slotAt(target)) {
                    slotAt(target) = std::move(queue.front());
                    slotAt(target)->ringPos = (head + target) & ringMask;
                    queue.pop_front();
                    ++occupiedSlots;
                    --replayCount;
                    sweepBound = std::max<int64_t>(
                        sweepBound, static_cast<int64_t>(target));
                }
            }
            stall_bound = replayCount > 0 ? stallBound() : -1;
        }

        // 6. Inject a fresh packet (unless the control plane holds the
        // input while it quiesces the pipeline).
        if (reloadStall > 0) {
            --reloadStall;
            sim.stats_.stallCycles++;
        } else if (!injectHold && nStages != 0 && !slotAt(0) &&
                   stall_bound < 0 && !inputQueue.empty() &&
                   inputQueue.front().arrivalNs <= now_ns) {
            injectFront();
        }
        if (prof)
            prof->advanceRetireSec += secondsSince(ar_t0);
    }

    bool
    idle() const
    {
        return inputQueue.empty() && pendingWriteCount == 0 &&
               occupiedSlots == 0 && replayCount == 0;
    }

    const Pipeline &pipe;
    MapSet &maps;
    PipeSim &sim;
    HazardMapIo io;

    /**
     * Stage slots as a power-of-two ring: the flight at stage s lives
     * at ring[(head + s) & ringMask]. A stall-free advance is one head
     * decrement instead of O(depth) unique_ptr moves, and a flight's
     * physical slot (Flight::ringPos) is stable from placement to
     * retire/flush. Invariant: every physical slot not mapped to an
     * occupied stage < nStages is null, so rotations never expose a
     * stale flight.
     */
    std::vector<std::unique_ptr<Flight>> ring;
    size_t ringCap = 1;
    size_t ringMask = 0;
    /** Physical index of stage 0 (decremented to advance). */
    size_t head = 0;
    /** Pipeline depth (number of stage slots in use). */
    size_t nStages = 0;

    std::unique_ptr<Flight> &
    slotAt(size_t s)
    {
        return ring[(head + s) & ringMask];
    }

    const std::unique_ptr<Flight> &
    slotAt(size_t s) const
    {
        return ring[(head + s) & ringMask];
    }

    /** Stage currently holding @p f (SIZE_MAX while replay-queued). */
    size_t
    stageOf(const Flight &f) const
    {
        return f.ringPos == SIZE_MAX
                   ? SIZE_MAX
                   : (f.ringPos + ringCap - head) & ringMask;
    }
    /**
     * Raw packets awaiting injection. Flights (with their ExecState)
     * materialize only when a packet enters stage 0, so the live
     * working set is the pipeline depth — not the queue depth — and a
     * saturating offered load stays cache-resident instead of paging
     * through one pre-built Flight per queued packet.
     */
    std::deque<net::Packet> inputQueue;
    std::map<size_t, std::deque<std::unique_ptr<Flight>>> replayQueues;
    /**
     * Flights holding parked (WAR-delayed) writes in their arenas, in
     * first-park order. A flight is listed iff its arena is non-empty;
     * pendingWriteCount totals the arena entries so the per-cycle commit
     * pass and the fast paths test emptiness in O(1).
     */
    std::vector<Flight *> pendingWriters;
    size_t pendingWriteCount = 0;
    /** Global park order, so batch commits replay insertion order. */
    uint64_t parkSeqCounter = 0;
    /** Reused staging for the batch-commit sort (no steady-state alloc). */
    std::vector<Flight::ParkedWrite> commitScratch;
    std::vector<ebpf::MapSet::RawWrite> rawScratch;

    /** Retired flights recycled by acquireFlight (free-list pool). */
    std::vector<std::unique_ptr<Flight>> flightPool;
    /** Reused staging for store-to-load forwarding in readValue. */
    std::vector<Flight *> fwdScratch;
    /**
     * Event-driven mode: for each stage s, the first stage >= s at which
     * a live (resp. exited) flight does observable work — interpreter:
     * ops or an elastic buffer (exited: elastic only); AOT: a burst
     * entry stage. Size numStages + 1 with SIZE_MAX sentinels at the
     * tail, so nextActive[min(m0, n)] needs no bounds check.
     */
    std::vector<size_t> nextActiveLive;
    std::vector<size_t> nextActiveExited;
    /** Entry stages of the AOT plan, deepest first (the sweep order). */
    std::vector<size_t> aotEntryDesc;
    /** PipeSimConfig::paranoidChecks (hazard-summary cross-check). */
    bool paranoid = false;
    /** PipeSimConfig::schedMode == SchedMode::EventDriven. */
    bool eventDriven = false;
    /** Per-phase host-time accumulators (PipeSimConfig::profilePhases). */
    std::unique_ptr<PipeSimPhaseProfile> prof;
    /** Per-stage index into Pipeline::elasticBuffers (-1 = none). */
    std::vector<int> elasticIndex;
    /** Per-stage "has ops" flag for the inlined sweep fast path. */
    std::vector<uint8_t> stageHasOps;
    /** Per elastic buffer: live 8-byte stack slots to checkpoint. */
    std::vector<std::vector<uint16_t>> liveSlotsAfter;
    /** Per stage: indices into pipe.flushBlocks writing at that stage. */
    std::vector<std::vector<uint16_t>> flushAtStage;
    /** Per map id: record reads for hazard scans (all 1 under interp). */
    std::vector<uint8_t> recordReads;
    /** AOT engine state (engine == SimEngine::Aot). */
    aot::AotSpec aotSpec;
    bool aotActive = false;
    std::shared_ptr<aot::NativeModule> nativeMod;
    const aot::NativeStageFn *nativeStages = nullptr;
    /**
     * Conservative upper bound on the deepest occupied slot. Flights only
     * move one stage per cycle, so the execute sweep can start at
     * sweepBound + 1 and skip the empty tail of a sparse pipeline.
     */
    int64_t sweepBound = -1;
    /** Flights currently occupying stage slots. */
    size_t occupiedSlots = 0;
    /** Flights parked in replay queues awaiting re-injection. */
    size_t replayCount = 0;

    Flight *cur = nullptr;
    unsigned reloadStall = 0;
    double cycleNs = 4.0;
    /** The retiring packet's outcome, refilled (buffer reused) per retire. */
    PacketOutcome retired;
    size_t entryBlock = 0;
    uint64_t nextSeq = 0;
    /** Control plane: injection held while quiescing (src/ctl). */
    bool injectHold = false;
    /** Control plane: idle fast-forward never jumps past this cycle. */
    uint64_t ffLimit = UINT64_MAX;
};

PipeSim::PipeSim(const Pipeline &pipe, MapSet &maps, PipeSimConfig config)
    : config_(config)
{
    if (pipe.numStages() == 0)
        fatal("cannot simulate an empty pipeline");
    impl_ = std::make_unique<Impl>(pipe, maps, *this);
}

PipeSim::~PipeSim() = default;

bool
PipeSim::offer(net::Packet pkt)
{
    stats_.offered++;
    if (impl_->inputQueue.size() >= config_.inputQueueCapacity) {
        stats_.lost++;
        return false;
    }
    impl_->inputQueue.push_back(std::move(pkt));
    stats_.accepted++;
    return true;
}

bool
PipeSim::idle() const
{
    return impl_->idle();
}

void
PipeSim::drain()
{
    const uint64_t budget =
        stats_.cycles + 1000000ULL +
        2000ULL * (stats_.accepted + impl_->pipe.numStages());
    while (!impl_->idle()) {
        impl_->stepOnce();
        if (stats_.cycles > budget)
            panic("pipeline simulation did not drain (livelock?)");
    }
}

void
PipeSim::step()
{
    impl_->stepOnce();
}

void
PipeSim::holdInjection(bool hold)
{
    impl_->injectHold = hold;
}

bool
PipeSim::injectionHeld() const
{
    return impl_->injectHold;
}

bool
PipeSim::pipelineEmpty() const
{
    return impl_->occupiedSlots == 0 && impl_->replayCount == 0 &&
           impl_->pendingWriteCount == 0;
}

size_t
PipeSim::queuedInput() const
{
    return impl_->inputQueue.size();
}

void
PipeSim::setFastForwardLimit(uint64_t cycle_limit)
{
    impl_->ffLimit = cycle_limit;
}

const hdl::Pipeline &
PipeSim::pipeline() const
{
    return impl_->pipe;
}

void
PipeSim::swapPipeline(const Pipeline &next)
{
    if (!pipelineEmpty())
        panic("swapPipeline called with packets in flight");
    if (next.numStages() == 0)
        fatal("cannot swap in an empty pipeline");
    const std::vector<MapDef> &cur_defs = impl_->pipe.prog.maps;
    const std::vector<MapDef> &next_defs = next.prog.maps;
    if (cur_defs.size() != next_defs.size())
        fatal("swapPipeline: incoming program declares ", next_defs.size(),
              " maps, running program has ", cur_defs.size());
    for (size_t i = 0; i < cur_defs.size(); ++i) {
        const MapDef &a = cur_defs[i];
        const MapDef &b = next_defs[i];
        if (a.kind != b.kind || a.keySize != b.keySize ||
            a.valueSize != b.valueSize || a.maxEntries != b.maxEntries)
            fatal("swapPipeline: map ", i, " (", a.name,
                  ") changes shape; live map carry-over requires identical "
                  "kind/keySize/valueSize/maxEntries");
    }
    // The maps, statistics, latency sum and sinks live outside Impl and
    // survive the rebuild; queued packets have executed nothing, so their
    // raw frames move into the new program's input queue unchanged (and
    // keep their offered/accepted accounting — re-admission is not new).
    MapSet &maps = impl_->maps;
    const bool hold = impl_->injectHold;
    const uint64_t ff_limit = impl_->ffLimit;
    std::deque<net::Packet> queued = std::move(impl_->inputQueue);
    impl_ = std::make_unique<Impl>(next, maps, *this);
    impl_->injectHold = hold;
    impl_->ffLimit = ff_limit;
    impl_->inputQueue = std::move(queued);
}

PipeSimPhaseProfile
PipeSim::phaseProfile() const
{
    if (impl_->prof == nullptr)
        return {};
    PipeSimPhaseProfile p = *impl_->prof;
    p.enabled = true;
    return p;
}

double
PipeSim::avgLatencyNs() const
{
    if (stats_.completed == 0)
        return 0.0;
    return static_cast<double>(latencyCycles_) * impl_->cycleNs /
           static_cast<double>(stats_.completed);
}

}  // namespace ehdl::sim
