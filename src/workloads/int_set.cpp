#include "workloads/int_set.hpp"

#include <algorithm>

#include "runtime/cluster.hpp"

namespace hyflow::workloads {

void IntSetWorkload::make_slots(const runtime::Cluster& cluster) {
  const std::size_t total = static_cast<std::size_t>(cluster.size()) *
                            static_cast<std::size_t>(cfg_.objects_per_node);
  const std::size_t universe = std::min(universe_cap_, std::max<std::size_t>(total, 8));

  slots_.clear();
  slots_.reserve(universe);
  for (std::size_t i = 0; i < universe; ++i) slots_.push_back(make_oid(slot_space_, i));
}

Workload::Op IntSetWorkload::next_op(NodeId /*node*/, Xoshiro256& rng) {
  const int ops_n = 1 + static_cast<int>(rng.below(std::max(1, cfg_.max_nested)));
  std::vector<std::int64_t> keys;
  for (int i = 0; i < ops_n; ++i)
    keys.push_back(static_cast<std::int64_t>(rng.below(slots_.size())));

  Op op;
  if (rng.chance(cfg_.read_ratio)) {
    op.profile = profile_contains_;
    op.is_read = true;
    op.body = [this, keys](tfa::Txn& tx) {
      int found = 0;
      for (const std::int64_t key : keys) {
        tx.nested([&](tfa::Txn& child) {
          found += contains(child, key) ? 1 : 0;
          do_local_work();
        });
      }
      if (found < 0) tx.retry();  // keep `found` observable
    };
    return op;
  }

  std::vector<bool> is_insert;
  for (int i = 0; i < ops_n; ++i) is_insert.push_back(rng.chance(0.5));
  op.profile = profile_update_;
  op.body = [this, keys, is_insert](tfa::Txn& tx) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      tx.nested([&](tfa::Txn& child) {
        if (is_insert[i]) {
          insert(child, keys[i]);
        } else {
          remove(child, keys[i]);
        }
        do_local_work();
      });
    }
  };
  return op;
}

}  // namespace hyflow::workloads
