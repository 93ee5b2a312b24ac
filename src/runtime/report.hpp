// Cluster inspection report: a structured, printable snapshot of a live or
// quiesced cluster — per-node commit/abort/enqueue counters, store sizes,
// scheduler queue depths, logical clocks, and transport totals. Used by the
// CLI driver and handy when debugging protocol behaviour.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "runtime/cluster.hpp"

namespace hyflow::runtime {

struct NodeReport {
  NodeId node = kInvalidNode;
  MetricsSnapshot metrics;
  std::size_t owned_objects = 0;
  std::size_t queued_requesters = 0;
  std::size_t locked_slots = 0;
  std::size_t unanswered_requests = 0;
  std::uint64_t clock = 0;
};

struct ClusterReport {
  std::vector<NodeReport> nodes;
  MetricsSnapshot totals;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t object_payloads = 0;
  // Messages per payload kind, indexed by net::Payload::index().
  std::array<std::uint64_t, net::kPayloadKinds> messages_by_kind{};
  std::uint64_t dropped_on_stop = 0;
  std::size_t total_objects = 0;
  // The quiesce audit, summed over the nodes: requesters still parked,
  // slots still locked and resend-table requests still unanswered.
  std::size_t queued_requesters = 0;
  std::size_t locked_slots = 0;
  std::size_t unanswered_requests = 0;
  // Injected-fault totals (all zero when fault injection is off).
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t faults_delayed = 0;
  std::uint64_t faults_partition_dropped = 0;
  std::uint64_t faults_crash_dropped = 0;

  // Multi-line human-readable table.
  std::string to_string() const;
};

ClusterReport collect_report(Cluster& cluster);

}  // namespace hyflow::runtime
