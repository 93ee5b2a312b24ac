// Log-bucketed latency histogram (HdrHistogram-style, much simpler).
//
// Thread-compatible, not thread-safe: each recorder keeps its own histogram
// (or guards it with a lock, as NodeMetrics does) and the harness merges
// them after quiesce (CP.3 — minimise shared writable data).
//
// Values above the configured `max_value` are still counted (clamped into
// the top bucket) but are tracked in `overflow_count()` so a mis-sized
// histogram is visible instead of silently underreporting the tail.
#pragma once

#include <cstdint>
#include <vector>

namespace hyflow {

class Histogram {
 public:
  // Values are expected in [0, max_value]; resolution is ~1/32 relative.
  explicit Histogram(std::uint64_t max_value = 1ull << 40);

  void add(std::uint64_t value);
  void merge(const Histogram& other);

  // Treats `earlier` as a previous snapshot of this (monotonically growing)
  // histogram and subtracts it bucket-wise, leaving the samples recorded in
  // between. min/max are re-derived from the surviving buckets' bounds, so
  // they are bucket-resolution approximations for the window.
  void subtract(const Histogram& earlier);

  std::uint64_t count() const { return count_; }
  std::uint64_t value_at_percentile(double p) const;  // p in [0,100]
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return count_ ? max_ : 0; }
  double mean() const;

  // Samples that exceeded max_value and were clamped into the top bucket.
  std::uint64_t overflow_count() const { return overflow_; }

 private:
  static std::size_t bucket_of(std::uint64_t value);
  static std::uint64_t bucket_low(std::size_t bucket);
  static std::uint64_t bucket_width(std::size_t bucket);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace hyflow
