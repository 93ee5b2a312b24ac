#include "workloads/bst.hpp"

#include <algorithm>

#include "runtime/cluster.hpp"
#include "util/log.hpp"

namespace hyflow::workloads {

namespace {
// Links a balanced subtree over the even keys in [2*lo, 2*hi) below
// `parent`, records the depth of every key it links, and returns its root.
ObjectId build_balanced(std::vector<std::unique_ptr<TreeNode>>& nodes, std::size_t lo,
                        std::size_t hi, ObjectId parent, int depth, std::vector<int>& depths) {
  if (lo >= hi) return kInvalidObject;
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::size_t key = mid * 2;  // even keys only
  if (key >= nodes.size()) return kInvalidObject;
  TreeNode& node = *nodes[key];
  depths[key] = depth;
  node.set_parent(parent);
  node.set_child(kLeft, build_balanced(nodes, lo, mid, node.id(), depth + 1, depths));
  node.set_child(kRight, build_balanced(nodes, mid + 1, hi, node.id(), depth + 1, depths));
  return node.id();
}
}  // namespace

void BstWorkload::setup(runtime::Cluster& cluster) {
  make_slots(cluster);
  std::vector<std::unique_ptr<TreeNode>> nodes;
  for (std::size_t i = 0; i < universe(); ++i)
    nodes.push_back(std::make_unique<TreeNode>(slot(i), static_cast<std::int64_t>(i)));

  // Balanced over the even keys, black except the deepest level, which is
  // red. The colours matter to the red-black tree only: a height-balanced
  // tree has leaves on two adjacent levels, so an all-black colouring would
  // violate the equal-black-height rule; colouring exactly the deepest level
  // red restores it.
  std::vector<int> depths(universe(), -1);
  auto root = std::make_unique<TreeRoot>(root_obj_);
  root->set_root(build_balanced(nodes, 0, (universe() + 1) / 2, kInvalidObject, 0, depths));
  const int deepest = *std::max_element(depths.begin(), depths.end());
  for (std::size_t i = 0; i < universe(); ++i) nodes[i]->set_red(depths[i] == deepest);

  cluster.create_object(std::move(root), 0);
  for (std::size_t i = 0; i < universe(); ++i)
    cluster.create_object(std::move(nodes[i]), static_cast<NodeId>(i % cluster.size()));
}

bool BstWorkload::contains(tfa::Txn& tx, std::int64_t key) const {
  ObjectId cur = tx.read<TreeRoot>(root_obj_).root();
  while (cur.valid()) {
    const TreeNode& node = tx.read<TreeNode>(cur);
    if (node.key() == key) return !node.deleted();
    cur = node.child(key < node.key() ? kLeft : kRight);
  }
  return false;
}

void BstWorkload::insert(tfa::Txn& tx, std::int64_t key) const {
  ObjectId parent = kInvalidObject;
  int dir = kLeft;
  ObjectId cur = tx.read<TreeRoot>(root_obj_).root();
  while (cur.valid()) {
    const TreeNode& node = tx.read<TreeNode>(cur);
    if (node.key() == key) {
      if (node.deleted()) tx.write<TreeNode>(cur).set_deleted(false);
      return;
    }
    parent = cur;
    dir = key < node.key() ? kLeft : kRight;
    cur = node.child(dir);
  }

  const ObjectId leaf = slot(key);
  tx.write<TreeNode>(leaf).reset_links(parent);
  if (parent.valid()) {
    tx.write<TreeNode>(parent).set_child(dir, leaf);
  } else {
    tx.write<TreeRoot>(root_obj_).set_root(leaf);
  }
  rebalance(tx, leaf);
}

void BstWorkload::remove(tfa::Txn& tx, std::int64_t key) const {
  ObjectId cur = tx.read<TreeRoot>(root_obj_).root();
  while (cur.valid()) {
    const TreeNode& node = tx.read<TreeNode>(cur);
    if (node.key() == key) {
      if (!node.deleted()) tx.write<TreeNode>(cur).set_deleted(true);
      return;
    }
    cur = node.child(key < node.key() ? kLeft : kRight);
  }
}

bool BstWorkload::verify_subtree(runtime::Cluster& cluster, ObjectId node, ObjectId parent,
                                 std::int64_t lo, std::int64_t hi,
                                 std::size_t& visited) const {
  if (!node.valid()) return true;
  if (++visited > universe()) {
    HYFLOW_ERROR(name(), ": cycle or duplicate linkage detected");
    return false;
  }
  const ObjectSnapshot snap = cluster.committed_copy(node);
  if (!snap) {
    HYFLOW_ERROR(name(), ": missing committed copy for node ", node.value);
    return false;
  }
  const auto& n = object_cast<TreeNode>(*snap);
  if (n.key() <= lo || n.key() >= hi) {
    HYFLOW_ERROR(name(), ": order violated at key ", n.key());
    return false;
  }
  if (slot(n.key()) != node) {
    HYFLOW_ERROR(name(), ": slot/key identity violated at key ", n.key());
    return false;
  }
  if (n.parent() != parent) {
    HYFLOW_ERROR(name(), ": parent pointer wrong at key ", n.key());
    return false;
  }
  return verify_subtree(cluster, n.child(kLeft), node, lo, n.key(), visited) &&
         verify_subtree(cluster, n.child(kRight), node, n.key(), hi, visited);
}

bool BstWorkload::verify(runtime::Cluster& cluster) {
  const ObjectSnapshot root = cluster.committed_copy(root_obj_);
  if (!root) return false;
  std::size_t visited = 0;
  // Keys lie in [0, universe()): the bounds are exclusive.
  return verify_subtree(cluster, object_cast<TreeRoot>(*root).root(), kInvalidObject, -1,
                        static_cast<std::int64_t>(universe()), visited);
}

}  // namespace hyflow::workloads
