#include "workloads/rbtree.hpp"

#include "runtime/cluster.hpp"
#include "util/log.hpp"

namespace hyflow::workloads {

void RbTreeWorkload::rotate(tfa::Txn& tx, ObjectId x, int dir) const {
  const ObjectId y = tx.read<TreeNode>(x).child(1 - dir);
  const ObjectId inner = tx.read<TreeNode>(y).child(dir);
  const ObjectId x_parent = tx.read<TreeNode>(x).parent();

  tx.write<TreeNode>(x).set_child(1 - dir, inner);
  if (inner.valid()) tx.write<TreeNode>(inner).set_parent(x);
  tx.write<TreeNode>(y).set_parent(x_parent);
  if (!x_parent.valid()) {
    tx.write<TreeRoot>(root_obj_).set_root(y);
  } else {
    const int side = tx.read<TreeNode>(x_parent).child(kLeft) == x ? kLeft : kRight;
    tx.write<TreeNode>(x_parent).set_child(side, y);
  }
  tx.write<TreeNode>(y).set_child(dir, x);
  tx.write<TreeNode>(x).set_parent(y);
}

void RbTreeWorkload::rebalance(tfa::Txn& tx, ObjectId z) const {
  while (true) {
    const ObjectId p = tx.read<TreeNode>(z).parent();
    if (!p.valid() || !tx.read<TreeNode>(p).red()) break;
    const ObjectId g = tx.read<TreeNode>(p).parent();
    if (!g.valid()) break;  // parent is the root; handled after the loop
    // `side` is the parent's side below the grandparent.
    const int side = tx.read<TreeNode>(g).child(kLeft) == p ? kLeft : kRight;
    const ObjectId u = tx.read<TreeNode>(g).child(1 - side);

    if (u.valid() && tx.read<TreeNode>(u).red()) {
      // Case 1: red uncle — recolour and ascend.
      tx.write<TreeNode>(p).set_red(false);
      tx.write<TreeNode>(u).set_red(false);
      tx.write<TreeNode>(g).set_red(true);
      z = g;
      continue;
    }
    if (tx.read<TreeNode>(p).child(1 - side) == z) {
      // Case 2: inner child — rotate to the outside first.
      z = p;
      rotate(tx, z, side);
    }
    // Case 3: outer child — recolour and rotate the grandparent away.
    const ObjectId p2 = tx.read<TreeNode>(z).parent();
    const ObjectId g2 = tx.read<TreeNode>(p2).parent();
    tx.write<TreeNode>(p2).set_red(false);
    tx.write<TreeNode>(g2).set_red(true);
    rotate(tx, g2, 1 - side);
    break;
  }
  const ObjectId root = tx.read<TreeRoot>(root_obj_).root();
  if (root.valid() && tx.read<TreeNode>(root).red()) tx.write<TreeNode>(root).set_red(false);
}

bool RbTreeWorkload::verify_colours(runtime::Cluster& cluster, ObjectId node, bool parent_red,
                                    int black_so_far, int& black_height) const {
  if (!node.valid()) {
    if (black_height < 0) black_height = black_so_far;
    if (black_height == black_so_far) return true;
    HYFLOW_ERROR("rb-tree: black-height mismatch (", black_height, " vs ", black_so_far, ")");
    return false;
  }
  const ObjectSnapshot snap = cluster.committed_copy(node);
  const auto& n = object_cast<TreeNode>(*snap);
  if (parent_red && n.red()) {
    HYFLOW_ERROR("rb-tree: red-red violation at key ", n.key());
    return false;
  }
  const int black = black_so_far + (n.red() ? 0 : 1);
  return verify_colours(cluster, n.child(kLeft), n.red(), black, black_height) &&
         verify_colours(cluster, n.child(kRight), n.red(), black, black_height);
}

bool RbTreeWorkload::verify(runtime::Cluster& cluster) {
  // The BST audit has found every committed copy and no cycle, so the
  // colour walk below needs no such checks of its own.
  if (!BstWorkload::verify(cluster)) return false;
  const ObjectId root = object_cast<TreeRoot>(*cluster.committed_copy(root_obj_)).root();
  if (root.valid() && object_cast<TreeNode>(*cluster.committed_copy(root)).red()) {
    HYFLOW_ERROR("rb-tree: red root");
    return false;
  }
  int black_height = -1;
  return verify_colours(cluster, root, false, 0, black_height);
}

}  // namespace hyflow::workloads
