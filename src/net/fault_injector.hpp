// Deterministic fault-injection layer for the simulated network.
//
// A FaultPlan describes the adversary: per-message drop/duplication
// probabilities, tail-latency spikes, timed partition windows that cut the
// cluster in two, and timed node crash/recovery windows during which a node
// neither sends nor receives (fail-recover: the node's in-memory state
// survives, only its links go dark — the simulated stand-in for a process
// restart with a durable store).
//
// Every per-message decision is a pure function of (msg_id, attempt, seed),
// so the same message stream produces the same faults: two runs with the
// same `--fault-seed` inject identical fault counts, which is what makes
// chaos failures replayable. The retransmission ordinal must be part of the
// key: retries reuse the original msg_id, and hashing the id alone would
// make every retry of a dropped request share its fate — a 2% drop rate
// would permanently black-hole 2% of RPCs no matter the retry budget.
// Time windows are evaluated against an epoch set by `arm()`
// (Network::start).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "dsm/object_id.hpp"
#include "util/time.hpp"

namespace hyflow {
class Config;
}

namespace hyflow::net {

struct Message;

struct FaultPlan {
  double drop = 0.0;       // P(message silently lost)
  double duplicate = 0.0;  // P(message delivered twice)
  double delay = 0.0;      // P(extra tail-latency spike added)
  SimDuration delay_spike = sim_ms(2);  // spike magnitude (uniform in (0, spike])
  std::uint64_t seed = 1;

  // Messages crossing the cut (node < cut vs node >= cut) are dropped
  // while `start <= now - epoch < end`.
  struct PartitionWindow {
    SimDuration start = 0;
    SimDuration end = 0;
    NodeId cut = 1;
  };
  std::vector<PartitionWindow> partitions;

  // `node` is unreachable (neither sends nor receives) while
  // `start <= now - epoch < end`; it recovers with its state intact.
  struct CrashWindow {
    NodeId node = kInvalidNode;
    SimDuration start = 0;
    SimDuration end = 0;
  };
  std::vector<CrashWindow> crashes;

  bool enabled() const {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0 || !partitions.empty() ||
           !crashes.empty();
  }

  // When the last partition or crash window closes, as an offset from the
  // epoch; 0 without windows.
  SimDuration last_window_end() const;

  // Reads the `--fault-*` flags (see EXPERIMENTS.md):
  //   --fault-drop=P --fault-dup=P --fault-delay=P --fault-delay-spike-us=N
  //   --fault-seed=N
  //   --fault-partition-start-ms/-end-ms/-cut  (one window)
  //   --fault-crash-node/-start-ms/-end-ms     (one window)
  static FaultPlan from_config(const Config& cfg);
};

// Injection counters; every injected fault increments exactly one counter.
struct FaultStats {
  std::atomic<std::uint64_t> dropped{0};            // random per-message loss
  std::atomic<std::uint64_t> duplicated{0};         // extra copies scheduled
  std::atomic<std::uint64_t> delayed{0};            // tail spikes added
  std::atomic<std::uint64_t> partition_dropped{0};  // lost crossing a cut
  std::atomic<std::uint64_t> crash_dropped{0};      // lost at a dark node

  std::uint64_t total() const {
    return dropped.load() + duplicated.load() + delayed.load() +
           partition_dropped.load() + crash_dropped.load();
  }
};

// What Network::send should do with one message.
struct SendFate {
  bool deliver = true;         // false: drop silently (counted)
  bool duplicate = false;      // true: schedule a second copy
  SimDuration extra_delay = 0; // added to the topology delay
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan = {}) : plan_(std::move(plan)) {}

  // Starts the partition/crash clocks; windows are offsets from `epoch`.
  void arm(SimTime epoch) { epoch_ = epoch; }

  bool enabled() const { return plan_.enabled(); }
  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  // Decides the fate of a message about to be scheduled. `now` is the send
  // time used for window checks (passed in for testability).
  SendFate on_send(const Message& m, SimTime now);

  bool node_crashed(NodeId node, SimTime now) const;
  bool link_partitioned(NodeId from, NodeId to, SimTime now) const;

 private:
  double unit(std::uint64_t key, std::uint64_t salt) const;

  FaultPlan plan_;
  FaultStats stats_;
  SimTime epoch_ = 0;
};

}  // namespace hyflow::net
