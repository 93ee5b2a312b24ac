#include "util/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/assert.hpp"

namespace hyflow {

namespace {
// 5 sub-bucket bits => 32 linear sub-buckets per power of two.
constexpr int kSubBits = 5;
constexpr std::uint64_t kSubCount = 1ull << kSubBits;
}  // namespace

Histogram::Histogram(std::uint64_t max_value)
    : buckets_(bucket_of(max_value) + 2, 0) {}

std::size_t Histogram::bucket_of(std::uint64_t value) {
  if (value < kSubCount) return static_cast<std::size_t>(value);
  const int msb = 63 - std::countl_zero(value);
  const int shift = msb - kSubBits;
  const std::uint64_t sub = (value >> shift) & (kSubCount - 1);
  return static_cast<std::size_t>(
      kSubCount + static_cast<std::uint64_t>(msb - kSubBits) * kSubCount + sub);
}

std::uint64_t Histogram::bucket_low(std::size_t bucket) {
  if (bucket < kSubCount) return bucket;
  const std::size_t rel = bucket - kSubCount;
  const int exp = static_cast<int>(rel / kSubCount);
  const std::uint64_t sub = rel % kSubCount;
  return (kSubCount + sub) << exp;
}

std::uint64_t Histogram::bucket_width(std::size_t bucket) {
  if (bucket < kSubCount) return 1;
  const int exp = static_cast<int>((bucket - kSubCount) / kSubCount);
  return 1ull << exp;
}

void Histogram::add(std::uint64_t value) {
  std::size_t b = bucket_of(value);
  if (b >= buckets_.size()) {
    b = buckets_.size() - 1;
    ++overflow_;
  }
  ++buckets_[b];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += static_cast<double>(value);
}

void Histogram::merge(const Histogram& other) {
  HYFLOW_ASSERT(buckets_.size() == other.buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (other.count_) {
    min_ = count_ ? std::min(min_, other.min_) : other.min_;
    max_ = count_ ? std::max(max_, other.max_) : other.max_;
  }
  count_ += other.count_;
  overflow_ += other.overflow_;
  sum_ += other.sum_;
}

void Histogram::subtract(const Histogram& earlier) {
  HYFLOW_ASSERT(buckets_.size() == earlier.buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] -= std::min(buckets_[i], earlier.buckets_[i]);
  }
  count_ -= std::min(count_, earlier.count_);
  overflow_ -= std::min(overflow_, earlier.overflow_);
  sum_ = std::max(0.0, sum_ - earlier.sum_);
  if (count_ == 0) {
    min_ = max_ = 0;
    return;
  }
  // The exact window min/max are unknowable from bucket deltas; bound them
  // by the surviving buckets' edges (tightened by the cumulative extremes).
  std::size_t first = buckets_.size(), last = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    first = std::min(first, i);
    last = i;
  }
  min_ = std::max(min_, bucket_low(first));
  max_ = std::min(max_, bucket_low(last) + bucket_width(last) - 1);
  if (min_ > max_) min_ = max_;
}

std::uint64_t Histogram::value_at_percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the value such that at least ceil(p% * count) samples are
  // <= it. p=0 maps to rank 1 (the minimum), never to an empty prefix.
  auto target = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  target = std::clamp<std::uint64_t>(target, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    seen += buckets_[b];
    if (seen < target) continue;
    // Interpolate within the bucket by the rank's position among its
    // samples, then clamp to the recorded extremes so low percentiles can
    // never fall below the observed minimum (nor high ones above the max).
    const std::uint64_t rank_in_bucket = target - (seen - buckets_[b]);  // 1..n
    const std::uint64_t low = bucket_low(b);
    const std::uint64_t width = bucket_width(b);
    const std::uint64_t value =
        low + (width - 1) * rank_in_bucket / buckets_[b];
    return std::clamp(value, min_, max_);
  }
  return max_;
}

double Histogram::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

}  // namespace hyflow
