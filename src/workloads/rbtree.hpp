// Distributed red-black tree (RB-Tree microbenchmark).
//
// The BST (bst.hpp) with one addition: after an insert links its new red
// leaf, the red-black fixup recolours and rotates — it writes several tree
// objects in one transaction, making update transactions markedly heavier
// than BST's single-link writes (visible in Figs. 4d/5d vs 4e/5e). Removal
// is lazy, as in the BST.
#pragma once

#include "workloads/bst.hpp"

namespace hyflow::workloads {

class RbTreeWorkload : public BstWorkload {
 public:
  static constexpr std::uint32_t kProfileContains = 50;
  static constexpr std::uint32_t kProfileUpdate = 51;

  explicit RbTreeWorkload(const WorkloadConfig& cfg)
      : BstWorkload(cfg, IdSpace::kRbNode, IdSpace::kRbRoot, kProfileContains,
                    kProfileUpdate) {}

  std::string name() const override { return "rb-tree"; }
  // The BST audit, then a black root, no red node with a red child, and
  // one black height on every root-to-leaf path.
  bool verify(runtime::Cluster& cluster) override;

 protected:
  void rebalance(tfa::Txn& tx, ObjectId z) const override;

 private:
  // Moves `x` down to the `dir` side of its child on the other side.
  void rotate(tfa::Txn& tx, ObjectId x, int dir) const;

  bool verify_colours(runtime::Cluster& cluster, ObjectId node, bool parent_red,
                      int black_so_far, int& black_height) const;
};

}  // namespace hyflow::workloads
