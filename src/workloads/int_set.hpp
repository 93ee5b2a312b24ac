// Shared base of the three integer-set benchmarks: Linked List, BST and
// RB-Tree (§IV-A).
//
// Every key in the universe has a dedicated, pre-created slot object (key i
// <-> slot i); membership is toggled by linking, unlinking or marking, so
// no objects are created or destroyed at runtime. A transaction runs
// 1..max_nested set operations, each as a closed-nested child: `contains`
// in a read transaction, an even mix of `insert` and `remove` in a write
// transaction.
//
// The universe is capped (see DESIGN.md): the paper's 5-10 objects/node at
// 80 nodes would mean multi-hundred-hop traversals, each hop a simulated
// round-trip — structurally identical but uselessly slow for a harness.
#pragma once

#include <vector>

#include "workloads/ids.hpp"
#include "workloads/workload.hpp"

namespace hyflow::workloads {

class IntSetWorkload : public Workload {
 public:
  Op next_op(NodeId node, Xoshiro256& rng) override;

  std::size_t universe() const { return slots_.size(); }

  // Transactional set operations (run inside a transaction or nested child);
  // public so applications and oracle tests can drive a set directly.
  virtual bool contains(tfa::Txn& tx, std::int64_t key) const = 0;
  virtual void insert(tfa::Txn& tx, std::int64_t key) const = 0;
  virtual void remove(tfa::Txn& tx, std::int64_t key) const = 0;

 protected:
  IntSetWorkload(const WorkloadConfig& cfg, IdSpace slot_space, std::size_t universe_cap,
                 std::uint32_t profile_contains, std::uint32_t profile_update)
      : Workload(cfg),
        slot_space_(slot_space),
        universe_cap_(universe_cap),
        profile_contains_(profile_contains),
        profile_update_(profile_update) {}

  // Sizes the universe for `cluster` (objects_per_node keys per node, at
  // least 8 and at most the cap) and allocates one slot id per key.
  void make_slots(const runtime::Cluster& cluster);

  ObjectId slot(std::int64_t key) const { return slots_[static_cast<std::size_t>(key)]; }

 private:
  IdSpace slot_space_;
  std::size_t universe_cap_;
  std::uint32_t profile_contains_;
  std::uint32_t profile_update_;
  std::vector<ObjectId> slots_;  // slot i holds key i
};

}  // namespace hyflow::workloads
