// Distributed binary search tree (BST microbenchmark), and the tree that the
// red-black tree rebalances.
//
// One shared object per key slot (see int_set.hpp) plus a root-pointer
// object. Removal is lazy (a `deleted` mark), so the structure only ever
// re-links existing objects — standard for STM data-structure benchmarks
// and faithful to the paper's access pattern: traversals read a
// root-to-leaf chain of objects, updates write one or two of them.
//
// Transactional discipline: tree code never holds an object reference
// across a mutation — every step re-opens by ObjectId and copies the fields
// it needs, because writing an object redirects subsequent reads to the
// private working copy.
#pragma once

#include "workloads/int_set.hpp"

namespace hyflow::workloads {

// Child directions; the other side of `dir` is `1 - dir`.
constexpr int kLeft = 0;
constexpr int kRight = 1;

class TreeNode : public TxObject<TreeNode> {
 public:
  TreeNode(ObjectId id, std::int64_t key) : TxObject(id), key_(key) {}

  std::int64_t key() const { return key_; }
  ObjectId child(int dir) const { return child_[dir]; }
  ObjectId parent() const { return parent_; }
  bool red() const { return red_; }  // read by the red-black tree only
  bool deleted() const { return deleted_; }

  void set_child(int dir, ObjectId n) { child_[dir] = n; }
  void set_parent(ObjectId n) { parent_ = n; }
  void set_red(bool r) { red_ = r; }
  void set_deleted(bool d) { deleted_ = d; }
  // Relinks the slot as a new red leaf below `parent`.
  void reset_links(ObjectId parent) {
    child_[kLeft] = child_[kRight] = kInvalidObject;
    parent_ = parent;
    red_ = true;
    deleted_ = false;
  }

 private:
  std::int64_t key_;  // immutable slot identity
  ObjectId child_[2] = {kInvalidObject, kInvalidObject};
  ObjectId parent_ = kInvalidObject;
  bool red_ = false;
  bool deleted_ = false;
};

class TreeRoot : public TxObject<TreeRoot> {
 public:
  explicit TreeRoot(ObjectId id) : TxObject(id) {}
  ObjectId root() const { return root_; }
  void set_root(ObjectId n) { root_ = n; }

 private:
  ObjectId root_ = kInvalidObject;
};

class BstWorkload : public IntSetWorkload {
 public:
  static constexpr std::uint32_t kProfileContains = 40;
  static constexpr std::uint32_t kProfileUpdate = 41;
  static constexpr std::size_t kUniverseCap = 64;

  explicit BstWorkload(const WorkloadConfig& cfg)
      : BstWorkload(cfg, IdSpace::kBstNode, IdSpace::kBstRoot, kProfileContains,
                    kProfileUpdate) {}

  std::string name() const override { return "bst"; }
  void setup(runtime::Cluster& cluster) override;
  // Order, slot identity, parent pointers and the absence of cycles.
  bool verify(runtime::Cluster& cluster) override;

  bool contains(tfa::Txn& tx, std::int64_t key) const override;
  void insert(tfa::Txn& tx, std::int64_t key) const override;
  void remove(tfa::Txn& tx, std::int64_t key) const override;

 protected:
  BstWorkload(const WorkloadConfig& cfg, IdSpace node_space, IdSpace root_space,
              std::uint32_t profile_contains, std::uint32_t profile_update)
      : IntSetWorkload(cfg, node_space, kUniverseCap, profile_contains, profile_update),
        root_obj_(make_oid(root_space, 0)) {}

  // Runs after `insert` has linked the new leaf `z`; the plain BST leaves
  // the tree as it is.
  virtual void rebalance(tfa::Txn& /*tx*/, ObjectId /*z*/) const {}

  ObjectId root_obj_;

 private:
  bool verify_subtree(runtime::Cluster& cluster, ObjectId node, ObjectId parent,
                      std::int64_t lo, std::int64_t hi, std::size_t& visited) const;
};

}  // namespace hyflow::workloads
