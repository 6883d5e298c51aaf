/**
 * @file
 * Multi-queue replication of a compiled eHDL pipeline.
 *
 * FPGA NICs scale a packet-processing design past the rate of one
 * pipeline by instantiating N identical replicas and spreading flows
 * across them with an RSS-style hash on the 5-tuple, exactly like the
 * multi-queue datapath of a commodity NIC. MultiPipeSim models that
 * arrangement on top of PipeSim: a symmetric flow hash dispatches each
 * packet to one replica (both directions of a flow land on the same
 * replica, as NIC RSS is configured for stateful programs), and the
 * replicas advance independently.
 *
 * Replicas share nothing. Every replica owns a private copy of the maps,
 * seeded from the loaded program's initial state, mirroring per-CPU /
 * per-queue map instances; its retire sinks and host queue are its own
 * too. A drain is therefore one PipeSim::drain() per replica — one after
 * another, or on worker threads (config.threaded) — and both schedules
 * produce the same per-replica results. eHDL's WAR delay buffers and RAW
 * flush-evaluation blocks protect map accesses within one pipeline, not
 * across pipelines, so a map shared between replicas is not modeled.
 */

#ifndef EHDL_SIM_MULTI_PIPE_SIM_HPP_
#define EHDL_SIM_MULTI_PIPE_SIM_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ebpf/maps.hpp"
#include "sim/pipe_sim.hpp"

namespace ehdl::sim {

/**
 * Map deployment model across replicas: per-replica copies is the only
 * one. The enum and MultiPipeSimConfig::mapMode remain solely because
 * the repo benchmark (perfbench/) assigns MapMode::Sharded; nothing else
 * sets or reads them.
 */
enum class MapMode : uint8_t {
    Sharded,  ///< per-replica map copies (per-CPU semantics)
};

/** Multi-queue simulator configuration. */
struct MultiPipeSimConfig
{
    /** Number of pipeline replicas (RX queues). */
    unsigned numReplicas = 1;
    MapMode mapMode = MapMode::Sharded;  ///< see MapMode
    /**
     * Run the replicas on std::thread workers (forEachReplica: drains
     * and control-plane transactions) instead of one after another.
     * Results are identical either way because replicas share no state.
     */
    bool threaded = false;
    /** Per-replica pipeline configuration. */
    PipeSimConfig pipe;
};

/**
 * N pipeline replicas behind a symmetric RSS dispatcher.
 *
 * Usage mirrors PipeSim: offer() packets in arrival order, then drain().
 */
class MultiPipeSim
{
  public:
    /**
     * @param pipe The compiled pipeline (shared, read-only).
     * @param maps Initial map state, copied into every replica's
     *             private shard (the set itself stays untouched).
     */
    MultiPipeSim(const hdl::Pipeline &pipe, ebpf::MapSet &maps,
                 MultiPipeSimConfig config = {});
    ~MultiPipeSim();

    MultiPipeSim(const MultiPipeSim &) = delete;
    MultiPipeSim &operator=(const MultiPipeSim &) = delete;

    /**
     * Dispatch @p pkt to its replica's input queue. Sets
     * pkt.rxQueueIndex to the chosen replica, like the NIC filling in
     * the xdp_md rx_queue_index field.
     * @return false when that replica's input queue is full (packet lost).
     */
    bool offer(net::Packet pkt);

    /** Run every replica until all accepted packets have exited. */
    void drain();

    /**
     * Call @p fn(r) once per replica index r: on one worker thread per
     * replica when config.threaded, otherwise in replica order. Replicas
     * share nothing, so both schedules give the same results as long as
     * @p fn touches only replica r's state. An exception thrown by @p fn
     * reaches the caller (threaded: the lowest replica's, after every
     * worker has joined).
     */
    void forEachReplica(const std::function<void(size_t)> &fn);

    /** Replica a packet would be dispatched to. */
    size_t dispatch(const net::Packet &pkt) const;

    /**
     * Symmetric FNV-1a hash of the 5-tuple: both flow directions hash
     * identically (endpoints are ordered before hashing), and non-IPv4
     * frames hash to zero so they pin to replica 0.
     */
    static uint32_t symmetricFlowHash(const net::Packet &pkt);

    size_t numReplicas() const { return replicas_.size(); }

    /**
     * Direct replica access. The host control plane (src/ctl) drives
     * quiesced map updates and program swaps through each replica's
     * PipeSim control hooks (holdInjection / pipelineEmpty /
     * swapPipeline); datapath users only need offer() and drain().
     */
    PipeSim &replica(size_t i) { return *replicas_[i]; }
    const PipeSim &replica(size_t i) const { return *replicas_[i]; }

    /** Replica @p i's private maps. */
    ebpf::MapSet &replicaMaps(size_t i) { return *shards_[i]; }

    /**
     * Aggregate counters: packet/flush counts sum across replicas;
     * cycles is the maximum (replicas run concurrently in the modeled
     * hardware, so the slowest replica defines the interval).
     */
    PipeSimStats stats() const;

    /**
     * Summed per-phase host-time profile across replicas (enabled when
     * the per-replica config set profilePhases; all-zero otherwise).
     */
    PipeSimPhaseProfile phaseProfile() const;

    const MultiPipeSimConfig &config() const { return config_; }

    /**
     * Engine running the replicas (identical across them — every replica
     * shares one compiled pipeline and one configuration, and the native
     * AOT module is cached process-wide, so replica 0 speaks for all).
     */
    const EngineInfo &engineInfo() const { return replicas_.front()->engineInfo(); }

  private:
    MultiPipeSimConfig config_;
    std::vector<std::unique_ptr<ebpf::MapSet>> shards_;
    std::vector<std::unique_ptr<PipeSim>> replicas_;
};

}  // namespace ehdl::sim

#endif  // EHDL_SIM_MULTI_PIPE_SIM_HPP_
