#include "net/fault_injector.hpp"

#include <algorithm>

#include "net/message.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace hyflow::net {

namespace {
// Distinct decision streams per fault class; a message dropped under one
// seed may instead be duplicated under another, so the streams must not
// correlate across salts.
constexpr std::uint64_t kSaltDrop = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kSaltDup = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kSaltDelay = 0x165667b19e3779f9ull;
constexpr std::uint64_t kSaltSpike = 0x27d4eb2f165667c5ull;
}  // namespace

FaultPlan FaultPlan::from_config(const Config& cfg) {
  FaultPlan plan;
  plan.drop = cfg.get_double("fault-drop", plan.drop);
  plan.duplicate = cfg.get_double("fault-dup", plan.duplicate);
  plan.delay = cfg.get_double("fault-delay", plan.delay);
  plan.delay_spike = sim_us(cfg.get_int("fault-delay-spike-us", plan.delay_spike / 1000));
  plan.seed = static_cast<std::uint64_t>(
      cfg.get_int("fault-seed", static_cast<std::int64_t>(plan.seed)));
  // Every window key is read, so a caller that refuses unread keys
  // (bench::check_args) lists them all.
  PartitionWindow p;
  p.start = sim_ms(cfg.get_int("fault-partition-start-ms", 0));
  p.end = sim_ms(cfg.get_int("fault-partition-end-ms", 0));
  p.cut = static_cast<NodeId>(cfg.get_int("fault-partition-cut", 1));
  if (cfg.has("fault-partition-end-ms")) plan.partitions.push_back(p);
  CrashWindow c;
  c.node = static_cast<NodeId>(cfg.get_int("fault-crash-node", 0));
  c.start = sim_ms(cfg.get_int("fault-crash-start-ms", 0));
  c.end = sim_ms(cfg.get_int("fault-crash-end-ms", 0));
  if (cfg.has("fault-crash-node")) plan.crashes.push_back(c);
  return plan;
}

SimDuration FaultPlan::last_window_end() const {
  SimDuration end = 0;
  for (const auto& w : partitions) end = std::max(end, w.end);
  for (const auto& w : crashes) end = std::max(end, w.end);
  return end;
}

double FaultInjector::unit(std::uint64_t key, std::uint64_t salt) const {
  const std::uint64_t bits = mix64(key ^ plan_.seed ^ salt);
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

bool FaultInjector::node_crashed(NodeId node, SimTime now) const {
  const SimDuration t = now - epoch_;
  for (const auto& w : plan_.crashes) {
    if (w.node == node && t >= w.start && t < w.end) return true;
  }
  return false;
}

bool FaultInjector::link_partitioned(NodeId from, NodeId to, SimTime now) const {
  const SimDuration t = now - epoch_;
  for (const auto& w : plan_.partitions) {
    if (t < w.start || t >= w.end) continue;
    if ((from < w.cut) != (to < w.cut)) return true;
  }
  return false;
}

SendFate FaultInjector::on_send(const Message& m, SimTime now) {
  SendFate fate;
  if (!plan_.enabled()) return fate;

  if (node_crashed(m.from, now) || node_crashed(m.to, now)) {
    stats_.crash_dropped.fetch_add(1, std::memory_order_relaxed);
    fate.deliver = false;
    return fate;
  }
  if (link_partitioned(m.from, m.to, now)) {
    stats_.partition_dropped.fetch_add(1, std::memory_order_relaxed);
    fate.deliver = false;
    return fate;
  }
  // Fold the retransmission ordinal into the key: each retry of the same
  // msg_id must roll new dice, or a dropped request stays dropped forever.
  const std::uint64_t key =
      mix64(m.msg_id * 0x100000001b3ull + static_cast<std::uint64_t>(m.attempt));
  if (plan_.drop > 0.0 && unit(key, kSaltDrop) < plan_.drop) {
    stats_.dropped.fetch_add(1, std::memory_order_relaxed);
    fate.deliver = false;
    return fate;
  }
  if (plan_.duplicate > 0.0 && unit(key, kSaltDup) < plan_.duplicate) {
    stats_.duplicated.fetch_add(1, std::memory_order_relaxed);
    fate.duplicate = true;
  }
  if (plan_.delay > 0.0 && unit(key, kSaltDelay) < plan_.delay) {
    stats_.delayed.fetch_add(1, std::memory_order_relaxed);
    const double u = unit(key, kSaltSpike);
    fate.extra_delay =
        1 + static_cast<SimDuration>(u * static_cast<double>(plan_.delay_spike));
  }
  return fate;
}

}  // namespace hyflow::net
