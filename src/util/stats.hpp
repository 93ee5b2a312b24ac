// An exponentially weighted moving average. Used by the transaction stats
// table (expected commit times) and the owner side's lock-hold estimate.
#pragma once

namespace hyflow {

// EWMA with configurable smoothing factor; `value()` before the first sample
// returns the provided initial estimate.
class Ewma {
 public:
  explicit Ewma(double alpha = 0.2, double initial = 0.0)
      : alpha_(alpha), value_(initial) {}

  void add(double x);
  double value() const { return value_; }
  bool seeded() const { return seeded_; }

 private:
  double alpha_;
  double value_;
  bool seeded_ = false;
};

}  // namespace hyflow
