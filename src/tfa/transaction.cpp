#include "tfa/transaction.hpp"

#include "util/assert.hpp"

namespace hyflow::tfa {

Transaction::Found Transaction::find_up(ObjectId oid) {
  for (Transaction* t = this; t != nullptr; t = t->parent_) {
    if (AccessEntry* e = t->set_.find(oid)) return Found{e, t->depth_};
  }
  return Found{};
}

void Transaction::merge_into_parent() {
  HYFLOW_ASSERT_MSG(parent_ != nullptr, "merge_into_parent on a root transaction");
  AccessSet& up = parent_->set_;
  for (auto& [oid, ce] : set_) {
    AccessEntry* pe = up.find(oid);
    if (ce.inherited) {
      if (pe) {
        // Fold the buffered write into the parent's entry (real or itself
        // pending); the parent now carries the child's effect.
        pe->working = std::move(ce.working);
        pe->mode = net::AccessMode::kWrite;
      } else {
        // The real entry lives further up; keep the write pending here.
        up.insert(oid, std::move(ce));
      }
    } else {
      // The child fetched this object; the parent inherits it wholesale —
      // including the round-trips already paid for it. A parent-level entry
      // can only exist as an inherited view created before the child ran,
      // which the fetched entry supersedes; fold any pending parent write
      // is impossible (the child would have seen it via find_up).
      HYFLOW_ASSERT_MSG(pe == nullptr || pe->inherited,
                        "child fetched an object the parent already holds");
      up.insert(oid, std::move(ce));
    }
  }
  set_.clear();
}

std::uint32_t Transaction::collect_my_cl() const {
  std::uint32_t sum = 0;
  for (const Transaction* t = this; t != nullptr; t = t->parent_) {
    for (const auto& [oid, e] : t->set_) {
      if (!e.inherited) sum += e.owner_cl;
    }
  }
  return sum;
}

}  // namespace hyflow::tfa
