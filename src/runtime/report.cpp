#include "runtime/report.hpp"

#include <cstdio>
#include <sstream>

namespace hyflow::runtime {

ClusterReport collect_report(Cluster& cluster) {
  ClusterReport report;
  for (NodeId id = 0; id < cluster.size(); ++id) {
    Node& node = cluster.node(id);
    NodeReport nr;
    nr.node = id;
    nr.metrics = node.metrics().snapshot();
    nr.owned_objects = node.owner().owned_objects();
    nr.queued_requesters = node.owner().queued_requesters();
    nr.locked_slots = node.owner().locked_slots();
    nr.unanswered_requests = node.owner().unanswered_requests();
    nr.clock = node.clock().read();
    report.totals += nr.metrics;
    report.total_objects += nr.owned_objects;
    report.queued_requesters += nr.queued_requesters;
    report.locked_slots += nr.locked_slots;
    report.unanswered_requests += nr.unanswered_requests;
    report.nodes.push_back(std::move(nr));
  }
  const auto& stats = cluster.network().stats();
  report.messages = stats.messages.load();
  report.bytes = stats.bytes.load();
  report.object_payloads = stats.object_payloads.load();
  for (std::size_t k = 0; k < net::kPayloadKinds; ++k)
    report.messages_by_kind[k] = stats.by_kind[k].load();
  report.dropped_on_stop = stats.dropped_on_stop.load();
  const auto& faults = cluster.network().faults().stats();
  report.faults_dropped = faults.dropped.load();
  report.faults_duplicated = faults.duplicated.load();
  report.faults_delayed = faults.delayed.load();
  report.faults_partition_dropped = faults.partition_dropped.load();
  report.faults_crash_dropped = faults.crash_dropped.load();
  return report;
}

std::string ClusterReport::to_string() const {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line), "%-5s %9s %9s %8s %8s %8s %8s %10s\n", "node",
                "commits", "aborts", "nested", "enq", "handoff", "objects", "clock");
  os << line;
  for (const NodeReport& n : nodes) {
    std::snprintf(line, sizeof(line), "%-5u %9llu %9llu %8llu %8llu %8llu %8zu %10llu\n",
                  n.node, static_cast<unsigned long long>(n.metrics.commits_root),
                  static_cast<unsigned long long>(n.metrics.aborts_total()),
                  static_cast<unsigned long long>(n.metrics.nested_commits),
                  static_cast<unsigned long long>(n.metrics.enqueued),
                  static_cast<unsigned long long>(n.metrics.handoffs_received),
                  n.owned_objects, static_cast<unsigned long long>(n.clock));
    os << line;
  }
  std::snprintf(line, sizeof(line),
                "total commits=%llu aborts=%llu nested=%llu (abort-rate %.1f%%) "
                "objects=%zu\n",
                static_cast<unsigned long long>(totals.commits_root),
                static_cast<unsigned long long>(totals.aborts_total()),
                static_cast<unsigned long long>(totals.nested_commits),
                totals.nested_abort_rate() * 100.0, total_objects);
  os << line;
  std::snprintf(line, sizeof(line), "quiesce parked=%zu locked=%zu unanswered-requests=%zu\n",
                queued_requesters, locked_slots, unanswered_requests);
  os << line;
  std::snprintf(line, sizeof(line), "network messages=%llu bytes=%llu object-payloads=%llu\n",
                static_cast<unsigned long long>(messages),
                static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(object_payloads));
  os << line;
  os << "messages by kind";
  for (std::size_t k = 0; k < net::kPayloadKinds; ++k)
    if (messages_by_kind[k] > 0)
      os << ' ' << net::payload_name_at(k) << '=' << messages_by_kind[k];
  os << '\n';
  if (totals.latency.count() > 0) {
    std::snprintf(line, sizeof(line),
                  "latency ms p50=%.2f p90=%.2f p99=%.2f max=%.2f (%llu samples)\n",
                  static_cast<double>(totals.latency.value_at_percentile(50)) / 1e6,
                  static_cast<double>(totals.latency.value_at_percentile(90)) / 1e6,
                  static_cast<double>(totals.latency.value_at_percentile(99)) / 1e6,
                  static_cast<double>(totals.latency.max()) / 1e6,
                  static_cast<unsigned long long>(totals.latency.count()));
    os << line;
  }
  if (totals.latency.overflow_count() > 0) {
    std::snprintf(line, sizeof(line),
                  "!! latency histogram overflow: %llu samples above range — "
                  "tail percentiles are clamped\n",
                  static_cast<unsigned long long>(totals.latency.overflow_count()));
    os << line;
  }
  const std::uint64_t injected = faults_dropped + faults_duplicated + faults_delayed +
                                 faults_partition_dropped + faults_crash_dropped;
  if (injected > 0 || dropped_on_stop > 0 || totals.rpc_retries > 0 ||
      totals.dedup_hits > 0 || totals.watchdog_aborts > 0 || totals.grant_reforwards > 0) {
    std::snprintf(line, sizeof(line),
                  "faults dropped=%llu dup=%llu delayed=%llu partition=%llu crash=%llu "
                  "stop-drops=%llu\n",
                  static_cast<unsigned long long>(faults_dropped),
                  static_cast<unsigned long long>(faults_duplicated),
                  static_cast<unsigned long long>(faults_delayed),
                  static_cast<unsigned long long>(faults_partition_dropped),
                  static_cast<unsigned long long>(faults_crash_dropped),
                  static_cast<unsigned long long>(dropped_on_stop));
    os << line;
    std::snprintf(line, sizeof(line),
                  "recovery retries=%llu dedup-hits=%llu watchdog-aborts=%llu "
                  "grant-reforwards=%llu\n",
                  static_cast<unsigned long long>(totals.rpc_retries),
                  static_cast<unsigned long long>(totals.dedup_hits),
                  static_cast<unsigned long long>(totals.watchdog_aborts),
                  static_cast<unsigned long long>(totals.grant_reforwards));
    os << line;
  }
  return os.str();
}

}  // namespace hyflow::runtime
