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
  for (const CounterField& c : kCounterFields) this->*c.field += other.*c.field;
  for (std::size_t i = 0; i < aborts_root.size(); ++i) aborts_root[i] += other.aborts_root[i];
  latency.merge(other.latency);
  return *this;
}

MetricsSnapshot MetricsSnapshot::operator-(const MetricsSnapshot& other) const {
  MetricsSnapshot d = *this;
  for (const CounterField& c : kCounterFields)
    d.*c.field = sat_sub(d.*c.field, other.*c.field);
  for (std::size_t i = 0; i < aborts_root.size(); ++i)
    d.aborts_root[i] = sat_sub(d.aborts_root[i], other.aborts_root[i]);
  d.latency.subtract(other.latency);
  return d;
}

void NodeMetrics::record_latency(std::uint64_t ns) {
  MutexLock lock(latency_mu_);
  latency_.add(ns);
}

MetricsSnapshot NodeMetrics::snapshot() const {
  MetricsSnapshot s;
  for (std::size_t i = 0; i < kCounterCount; ++i)
    s.*kCounterFields[i].field = counters_[i].load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.aborts_root.size(); ++i)
    s.aborts_root[i] = aborts_root_[i].load(std::memory_order_relaxed);
  {
    MutexLock lock(latency_mu_);
    s.latency = latency_;
  }
  return s;
}

}  // namespace hyflow::runtime
