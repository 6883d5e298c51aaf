/**
 * @file
 * Test helper: record every replica of a MultiPipeSim and read the
 * retirements back as one stream ordered by packet id, the order the
 * multi-queue tests compare against the VM and against each other.
 */

#ifndef EHDL_TESTS_REPLICA_LOGS_HPP_
#define EHDL_TESTS_REPLICA_LOGS_HPP_

#include <algorithm>
#include <vector>

#include "sim/multi_pipe_sim.hpp"

namespace ehdl::sim {

/** One OutcomeLog per replica, attached on construction. */
class ReplicaLogs
{
  public:
    explicit ReplicaLogs(MultiPipeSim &multi) : logs_(multi.numReplicas())
    {
        for (size_t r = 0; r < logs_.size(); ++r)
            multi.replica(r).attachRetireSink(&logs_[r]);
    }

    ReplicaLogs(const ReplicaLogs &) = delete;
    ReplicaLogs &operator=(const ReplicaLogs &) = delete;

    /** Every replica's retirements merged and sorted by packet id. */
    std::vector<PacketOutcome>
    mergedById() const
    {
        std::vector<PacketOutcome> all;
        for (const OutcomeLog &log : logs_)
            all.insert(all.end(), log.outcomes.begin(), log.outcomes.end());
        std::stable_sort(all.begin(), all.end(),
                         [](const PacketOutcome &a, const PacketOutcome &b) {
                             return a.id < b.id;
                         });
        return all;
    }

  private:
    std::vector<OutcomeLog> logs_;  ///< sized once: attached addresses hold
};

}  // namespace ehdl::sim

#endif  // EHDL_TESTS_REPLICA_LOGS_HPP_
