#include "runtime/metrics.hpp"

namespace hyflow::runtime {

namespace {
// Counters are monotonic, so `after - before` should never go negative; if
// it does (a node reset inside the window), clamp to 0 rather than wrapping.
inline std::uint64_t sat_sub(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : 0;
}
}  // namespace

MetricsSnapshot& MetricsSnapshot::operator+=(const MetricsSnapshot& other) {
  commits_root += other.commits_root;
  commits_read_only += other.commits_read_only;
  commits_write += other.commits_write;
  for (std::size_t i = 0; i < aborts_root.size(); ++i) aborts_root[i] += other.aborts_root[i];
  nested_commits += other.nested_commits;
  nested_aborts_total += other.nested_aborts_total;
  nested_aborts_parent_cause += other.nested_aborts_parent_cause;
  nested_aborts_own_cause += other.nested_aborts_own_cause;
  enqueued += other.enqueued;
  handoffs_received += other.handoffs_received;
  handoffs_sent += other.handoffs_sent;
  backoff_expired += other.backoff_expired;
  not_interested += other.not_interested;
  conflicts_seen += other.conflicts_seen;
  wrong_owner_retries += other.wrong_owner_retries;
  forwardings += other.forwardings;
  rpc_retries += other.rpc_retries;
  dedup_hits += other.dedup_hits;
  watchdog_aborts += other.watchdog_aborts;
  grant_reforwards += other.grant_reforwards;
  latency.merge(other.latency);
  return *this;
}

MetricsSnapshot MetricsSnapshot::operator-(const MetricsSnapshot& other) const {
  MetricsSnapshot d = *this;
  d.commits_root = sat_sub(d.commits_root, other.commits_root);
  d.commits_read_only = sat_sub(d.commits_read_only, other.commits_read_only);
  d.commits_write = sat_sub(d.commits_write, other.commits_write);
  for (std::size_t i = 0; i < aborts_root.size(); ++i)
    d.aborts_root[i] = sat_sub(d.aborts_root[i], other.aborts_root[i]);
  d.nested_commits = sat_sub(d.nested_commits, other.nested_commits);
  d.nested_aborts_total = sat_sub(d.nested_aborts_total, other.nested_aborts_total);
  d.nested_aborts_parent_cause =
      sat_sub(d.nested_aborts_parent_cause, other.nested_aborts_parent_cause);
  d.nested_aborts_own_cause =
      sat_sub(d.nested_aborts_own_cause, other.nested_aborts_own_cause);
  d.enqueued = sat_sub(d.enqueued, other.enqueued);
  d.handoffs_received = sat_sub(d.handoffs_received, other.handoffs_received);
  d.handoffs_sent = sat_sub(d.handoffs_sent, other.handoffs_sent);
  d.backoff_expired = sat_sub(d.backoff_expired, other.backoff_expired);
  d.not_interested = sat_sub(d.not_interested, other.not_interested);
  d.conflicts_seen = sat_sub(d.conflicts_seen, other.conflicts_seen);
  d.wrong_owner_retries = sat_sub(d.wrong_owner_retries, other.wrong_owner_retries);
  d.forwardings = sat_sub(d.forwardings, other.forwardings);
  d.rpc_retries = sat_sub(d.rpc_retries, other.rpc_retries);
  d.dedup_hits = sat_sub(d.dedup_hits, other.dedup_hits);
  d.watchdog_aborts = sat_sub(d.watchdog_aborts, other.watchdog_aborts);
  d.grant_reforwards = sat_sub(d.grant_reforwards, other.grant_reforwards);
  d.latency.subtract(other.latency);
  return d;
}

void NodeMetrics::record_latency(std::uint64_t ns) {
  MutexLock lock(latency_mu_);
  latency_.add(ns);
}

MetricsSnapshot NodeMetrics::snapshot() const {
  MetricsSnapshot s;
  s.commits_root = commits_root_.load(std::memory_order_relaxed);
  s.commits_read_only = commits_read_only_.load(std::memory_order_relaxed);
  s.commits_write = commits_write_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.aborts_root.size(); ++i)
    s.aborts_root[i] = aborts_root_[i].load(std::memory_order_relaxed);
  s.nested_commits = nested_commits_.load(std::memory_order_relaxed);
  s.nested_aborts_total = nested_aborts_total_.load(std::memory_order_relaxed);
  s.nested_aborts_parent_cause = nested_aborts_parent_cause_.load(std::memory_order_relaxed);
  s.nested_aborts_own_cause = nested_aborts_own_cause_.load(std::memory_order_relaxed);
  s.enqueued = enqueued_.load(std::memory_order_relaxed);
  s.handoffs_received = handoffs_received_.load(std::memory_order_relaxed);
  s.handoffs_sent = handoffs_sent_.load(std::memory_order_relaxed);
  s.backoff_expired = backoff_expired_.load(std::memory_order_relaxed);
  s.not_interested = not_interested_.load(std::memory_order_relaxed);
  s.conflicts_seen = conflicts_seen_.load(std::memory_order_relaxed);
  s.wrong_owner_retries = wrong_owner_retries_.load(std::memory_order_relaxed);
  s.forwardings = forwardings_.load(std::memory_order_relaxed);
  s.rpc_retries = rpc_retries_.load(std::memory_order_relaxed);
  s.dedup_hits = dedup_hits_.load(std::memory_order_relaxed);
  s.watchdog_aborts = watchdog_aborts_.load(std::memory_order_relaxed);
  s.grant_reforwards = grant_reforwards_.load(std::memory_order_relaxed);
  {
    MutexLock lock(latency_mu_);
    s.latency = latency_;
  }
  return s;
}

}  // namespace hyflow::runtime
