#include "workloads/linked_list.hpp"

#include "runtime/cluster.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace hyflow::workloads {

void LinkedListWorkload::setup(runtime::Cluster& cluster) {
  make_slots(cluster);
  head_ = make_oid(IdSpace::kListNode, universe());

  // Initially link the even keys: head -> 0 -> 2 -> 4 -> ...
  auto head = std::make_unique<ListNode>(head_, -1);
  std::vector<std::unique_ptr<ListNode>> nodes;
  for (std::size_t i = 0; i < universe(); ++i)
    nodes.push_back(std::make_unique<ListNode>(slot(i), static_cast<std::int64_t>(i)));
  ListNode* prev = head.get();
  for (std::size_t i = 0; i < universe(); i += 2) {
    prev->set_next(slot(i));
    prev = nodes[i].get();
  }

  cluster.create_object(std::move(head), 0);
  for (std::size_t i = 0; i < universe(); ++i)
    cluster.create_object(std::move(nodes[i]), static_cast<NodeId>(i % cluster.size()));
}

bool LinkedListWorkload::contains(tfa::Txn& tx, std::int64_t key) const {
  ObjectId cur = tx.read<ListNode>(head_).next();
  while (cur.valid()) {
    const ListNode& node = tx.read<ListNode>(cur);
    if (node.key() == key) return true;
    if (node.key() > key) return false;
    cur = node.next();
  }
  return false;
}

void LinkedListWorkload::insert(tfa::Txn& tx, std::int64_t key) const {
  ObjectId prev = head_;
  ObjectId cur = tx.read<ListNode>(head_).next();
  while (cur.valid()) {
    const ListNode& node = tx.read<ListNode>(cur);
    if (node.key() == key) return;  // already present
    if (node.key() > key) break;
    prev = cur;
    cur = node.next();
  }
  tx.write<ListNode>(slot(key)).set_next(cur);
  tx.write<ListNode>(prev).set_next(slot(key));
}

void LinkedListWorkload::remove(tfa::Txn& tx, std::int64_t key) const {
  ObjectId prev = head_;
  ObjectId cur = tx.read<ListNode>(head_).next();
  while (cur.valid()) {
    const ListNode& node = tx.read<ListNode>(cur);
    if (node.key() > key) return;  // absent
    if (node.key() == key) {
      tx.write<ListNode>(prev).set_next(node.next());
      return;
    }
    prev = cur;
    cur = node.next();
  }
}

bool LinkedListWorkload::verify(runtime::Cluster& cluster) {
  const ObjectSnapshot head = cluster.committed_copy(head_);
  if (!head) return false;
  std::int64_t last_key = -1;
  ObjectId cur = object_cast<ListNode>(*head).next();
  std::size_t hops = 0;
  while (cur.valid()) {
    if (++hops > universe() + 1) {
      HYFLOW_ERROR("linked-list: cycle detected");
      return false;
    }
    const ObjectSnapshot snap = cluster.committed_copy(cur);
    if (!snap) {
      HYFLOW_ERROR("linked-list: missing committed copy for node ", cur.value);
      return false;
    }
    const auto& node = object_cast<ListNode>(*snap);
    if (node.key() <= last_key) {
      HYFLOW_ERROR("linked-list: order violated at key ", node.key());
      return false;
    }
    if (slot(node.key()) != cur) {
      HYFLOW_ERROR("linked-list: slot/key identity violated");
      return false;
    }
    last_key = node.key();
    cur = node.next();
  }
  return true;
}

}  // namespace hyflow::workloads
