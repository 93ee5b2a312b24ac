// Time primitives shared by the simulated network, TFA and the schedulers.
//
// All protocol-visible timestamps are `SimTime` — nanoseconds on the host
// steady clock. The paper's link delays (1..50 ms) are mapped onto the host
// by the default link delays of net::TopologyConfig (50 µs..2.5 ms), so a
// "paper millisecond" is typically tens of host microseconds. Keeping a single
// monotonic clock for every node is fine: TFA itself only relies on per-node
// *logical* clocks (tfa::NodeClock); SimTime is used for delays, backoffs and
// metrics, where the paper also assumes loosely synchronised wall clocks.
#pragma once

#include <chrono>
#include <cstdint>

namespace hyflow {

using SimTime = std::int64_t;      // nanoseconds since an arbitrary epoch
using SimDuration = std::int64_t;  // nanoseconds

inline SimTime sim_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr SimDuration sim_us(std::int64_t us) { return us * 1000; }
constexpr SimDuration sim_ms(std::int64_t ms) { return ms * 1000000; }

inline std::chrono::nanoseconds to_chrono(SimDuration d) {
  return std::chrono::nanoseconds(d);
}

// Host time elapsed since construction (the makespan bench times a batch
// of transactions with it).
class Stopwatch {
 public:
  Stopwatch() : start_(sim_now()) {}
  SimDuration elapsed() const { return sim_now() - start_; }

 private:
  SimTime start_;
};

}  // namespace hyflow
