// Per-node metrics: commit/abort counters broken down the way the paper's
// evaluation needs them.
//
//   * Throughput (Figs. 4/5/6) = root commits / wall time.
//   * Table I's "abort rate of nested transactions" = nested aborts caused
//     by a parent abort / total nested aborts.
//
// Counters are relaxed atomics (hot path); the commit-latency histogram is
// recorded by the TFA runtime under the per-node leaf Mutex `latency_mu_`
// (rank kMetrics; one brief acquisition per root commit — negligible next
// to the commit round-trips) so live snapshots and measurement-window
// deltas include percentiles.
// Snapshots are plain structs so benches can diff two snapshots for a
// measurement window; the diff is saturating (a counter that appears to run
// backwards — e.g. around a crash window reset — clamps to 0 instead of
// wrapping to 2^64).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "tfa/abort.hpp"
#include "util/histogram.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace hyflow::runtime {

// Every plain per-node counter, once. Each name is at the same time a
// MetricsSnapshot field, a Counter enumerator and the counter's BENCH key;
// the snapshot algebra, snapshot() and BenchPoint::from_metrics loop over
// kCounterFields. Adding a counter takes one line here plus its increments.
#define HYFLOW_NODE_COUNTERS(X)                                                \
  X(commits_root)                                                              \
  X(commits_read_only)                                                         \
  X(commits_write)                                                             \
  X(nested_commits)                                                            \
  X(nested_aborts_total)                                                       \
  X(nested_aborts_parent_cause)                                                \
  X(nested_aborts_own_cause)                                                   \
  X(enqueued)                                                                  \
  X(handoffs_received)                                                         \
  X(handoffs_sent)                                                             \
  X(backoff_expired)                                                           \
  X(not_interested)                                                            \
  X(conflicts_seen)                                                            \
  X(wrong_owner_retries)                                                       \
  X(forwardings)                                                               \
  /* Degradation counters (fault tolerance layer). */                          \
  X(rpc_retries)      /* requests re-sent after a timeout */                   \
  X(dedup_hits)       /* duplicate requests answered from cache */             \
  X(watchdog_aborts)  /* transactions aborted on retry exhaustion */           \
  X(grant_reforwards) /* Alg. 4 grants re-forwarded after ack loss */          \
  X(register_refusals) /* ownership registrations the home node refused */

enum class Counter : std::size_t {
#define HYFLOW_COUNTER_ENUMERATOR(name) name,
  HYFLOW_NODE_COUNTERS(HYFLOW_COUNTER_ENUMERATOR)
#undef HYFLOW_COUNTER_ENUMERATOR
};

struct MetricsSnapshot {
#define HYFLOW_COUNTER_FIELD(name) std::uint64_t name = 0;
  HYFLOW_NODE_COUNTERS(HYFLOW_COUNTER_FIELD)
#undef HYFLOW_COUNTER_FIELD
  std::array<std::uint64_t, static_cast<std::size_t>(tfa::AbortCause::kCauseCount)>
      aborts_root{};
  // Root-commit latency (ns), recorded at commit time. Bucket counts are
  // monotonic, so `after - before` yields the window's histogram.
  Histogram latency;

  std::uint64_t aborts_total() const {
    std::uint64_t sum = 0;
    for (auto v : aborts_root) sum += v;
    return sum;
  }

  MetricsSnapshot& operator+=(const MetricsSnapshot& other);
  MetricsSnapshot operator-(const MetricsSnapshot& other) const;

  // Root aborts / (root commits + root aborts).
  double abort_ratio() const {
    const std::uint64_t aborts = aborts_total();
    const std::uint64_t attempts = commits_root + aborts;
    return attempts == 0 ? 0.0 : static_cast<double>(aborts) / static_cast<double>(attempts);
  }

  // Table I: fraction of nested aborts caused by a parent abort.
  double nested_abort_rate() const {
    return nested_aborts_total == 0
               ? 0.0
               : static_cast<double>(nested_aborts_parent_cause) /
                     static_cast<double>(nested_aborts_total);
  }
};

// The list in Counter order: each counter's name and its snapshot field.
struct CounterField {
  const char* name;
  std::uint64_t MetricsSnapshot::*field;
};
inline constexpr auto kCounterFields = std::to_array<CounterField>({
#define HYFLOW_COUNTER_ENTRY(name) {#name, &MetricsSnapshot::name},
    HYFLOW_NODE_COUNTERS(HYFLOW_COUNTER_ENTRY)
#undef HYFLOW_COUNTER_ENTRY
});
inline constexpr std::size_t kCounterCount = kCounterFields.size();

class NodeMetrics {
 public:
  void add(Counter counter, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(counter)].fetch_add(n, std::memory_order_relaxed);
  }
  void add_commit(bool read_only) {
    add(Counter::commits_root);
    add(read_only ? Counter::commits_read_only : Counter::commits_write);
  }
  void add_root_abort(tfa::AbortCause cause) {
    aborts_root_[static_cast<std::size_t>(cause)].fetch_add(1, std::memory_order_relaxed);
  }
  void add_nested_abort(bool parent_cause, std::uint64_t n = 1) {
    add(Counter::nested_aborts_total, n);
    add(parent_cause ? Counter::nested_aborts_parent_cause : Counter::nested_aborts_own_cause,
        n);
  }

  // Records one root-commit latency (ns) into the per-node histogram.
  void record_latency(std::uint64_t ns);

  MetricsSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters_{};
  std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(tfa::AbortCause::kCauseCount)>
      aborts_root_{};
  mutable Mutex latency_mu_{LockRank::kMetrics, "metrics-latency"};
  Histogram latency_ GUARDED_BY(latency_mu_);
};

}  // namespace hyflow::runtime
