#include "workloads/vacation.hpp"

#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/cluster.hpp"
#include "util/log.hpp"

namespace hyflow::workloads {

void VacationWorkload::setup(runtime::Cluster& cluster) {
  const std::uint32_t n = cluster.size();
  // Per node: ~1/3 customer shards, ~2/3 resource shards cycling through
  // the three kinds — keeps the paper's 5-10 objects/node.
  const int customer_shards_per_node = std::max(1, cfg_.objects_per_node / 3);
  const int resource_shards_per_node =
      std::max(1, cfg_.objects_per_node - customer_shards_per_node);

  for (auto& v : resource_shards_) v.clear();
  customer_shards_.clear();

  // Every shard is built and populated before it is placed, so set-up never
  // writes to a live store.
  struct Placement {
    std::unique_ptr<AbstractObject> object;
    NodeId node;
  };
  std::vector<Placement> placements;
  std::unordered_map<ObjectId, ResourceShard*> resources;
  std::uint64_t shard_index = 0;
  std::uint64_t customer_shard_index = 0;
  for (NodeId node = 0; node < n; ++node) {
    for (int s = 0; s < resource_shards_per_node; ++s) {
      const auto kind = static_cast<ResourceKind>(shard_index % kResourceKinds);
      const ObjectId oid = make_oid(IdSpace::kVacationResource, shard_index);
      auto shard = std::make_unique<ResourceShard>(oid, kind);
      resources[oid] = shard.get();
      placements.push_back({std::move(shard), node});
      resource_shards_[static_cast<int>(kind)].push_back(oid);
      ++shard_index;
    }
    for (int s = 0; s < customer_shards_per_node; ++s) {
      const ObjectId coid = make_oid(IdSpace::kVacationCustomer, customer_shard_index++);
      placements.push_back({std::make_unique<CustomerShard>(coid), node});
      customer_shards_.push_back(coid);
    }
  }

  // Populate resources: a few items per shard, ample capacity.
  resources_per_kind_ = 0;
  for (int k = 0; k < kResourceKinds; ++k)
    resources_per_kind_ = std::max<std::uint64_t>(
        resources_per_kind_, resource_shards_[k].size() * 4);
  customer_count_ = static_cast<std::uint64_t>(n) * 8;

  Xoshiro256 rng(cfg_.seed ^ 0xbadc0ffeull);
  for (int k = 0; k < kResourceKinds; ++k) {
    for (std::uint64_t r = 0; r < resources_per_kind_; ++r) {
      ResourceShard& shard = *resources.at(resource_shard_of(static_cast<ResourceKind>(k), r));
      shard.items()[r] = ResourceItem{static_cast<std::int32_t>(64 + rng.below(64)), 0,
                                      static_cast<std::int32_t>(50 + rng.below(450))};
    }
  }
  for (Placement& p : placements) cluster.create_object(std::move(p.object), p.node);
}

ObjectId VacationWorkload::resource_shard_of(ResourceKind kind, std::uint64_t resource) const {
  const auto& shards = resource_shards_[static_cast<int>(kind)];
  return shards[mix64(resource * 3 + static_cast<int>(kind)) % shards.size()];
}

ObjectId VacationWorkload::customer_shard_of(std::uint64_t customer) const {
  return customer_shards_[mix64(customer) % customer_shards_.size()];
}

Workload::Op VacationWorkload::next_op(NodeId node, Xoshiro256& rng) {
  (void)node;
  if (rng.chance(cfg_.read_ratio)) return query_op(rng);
  const double r = rng.uniform();
  if (r < 0.8) return make_reservation_op(rng);
  if (r < 0.9) return delete_customer_op(rng);
  return update_tables_op(rng);
}

Workload::Op VacationWorkload::query_op(Xoshiro256& rng) {
  struct Probe {
    ResourceKind kind;
    std::uint64_t resource;
  };
  const int probes_n = 1 + static_cast<int>(rng.below(std::max(1, cfg_.max_nested)));
  std::vector<Probe> probes;
  for (int i = 0; i < probes_n; ++i)
    probes.push_back(Probe{static_cast<ResourceKind>(rng.below(kResourceKinds)),
                           rng.below(resources_per_kind_)});

  Op op;
  op.profile = kProfileQuery;
  op.is_read = true;
  op.body = [this, probes](tfa::Txn& tx) {
    std::int64_t best = 0;
    for (const Probe& p : probes) {
      tx.nested([&](tfa::Txn& child) {
        const auto& shard =
            child.read<ResourceShard>(resource_shard_of(p.kind, p.resource));
        auto it = shard.items().find(p.resource);
        if (it != shard.items().end() && it->second.used < it->second.total)
          best += it->second.price;
        do_local_work();
      });
    }
    if (best < 0) tx.retry();
  };
  return op;
}

Workload::Op VacationWorkload::make_reservation_op(Xoshiro256& rng) {
  struct Pick {
    ResourceKind kind;
    std::uint64_t resource;
  };
  const std::uint64_t customer = rng.below(customer_count_);
  const int picks_n = 1 + static_cast<int>(rng.below(std::max(1, cfg_.max_nested)));
  std::vector<Pick> picks;
  for (int i = 0; i < picks_n; ++i)
    picks.push_back(Pick{static_cast<ResourceKind>(rng.below(kResourceKinds)),
                         rng.below(resources_per_kind_)});

  Op op;
  op.profile = kProfileReserve;
  op.body = [this, customer, picks](tfa::Txn& tx) {
    const ObjectId cshard = customer_shard_of(customer);
    for (const Pick& p : picks) {
      const ObjectId rshard = resource_shard_of(p.kind, p.resource);
      // One nested child books the resource and records the reservation
      // atomically — the paper's "try an alternate device" pattern would
      // retry this child alone on failure.
      tx.nested([&](tfa::Txn& child) {
        auto& shard = child.write<ResourceShard>(rshard);
        auto it = shard.items().find(p.resource);
        if (it == shard.items().end() || it->second.used >= it->second.total)
          return;  // sold out: skip this pick
        it->second.used += 1;
        child.write<CustomerShard>(cshard).customers()[customer].push_back(
            Reservation{p.kind, p.resource});
        do_local_work();
      });
    }
  };
  return op;
}

Workload::Op VacationWorkload::delete_customer_op(Xoshiro256& rng) {
  const std::uint64_t customer = rng.below(customer_count_);
  Op op;
  op.profile = kProfileDelete;
  op.body = [this, customer](tfa::Txn& tx) {
    const ObjectId cshard = customer_shard_of(customer);
    // Snapshot the reservations, release each in its own nested child, then
    // erase the record.
    std::vector<Reservation> reservations;
    tx.nested([&](tfa::Txn& child) {
      // Child bodies must be idempotent across child retries: reset the
      // captured accumulator first, or a stale value from an aborted
      // attempt would leak into the parent (double-release, used < 0).
      reservations.clear();
      const auto& shard = child.read<CustomerShard>(cshard);
      auto it = shard.customers().find(customer);
      if (it != shard.customers().end()) reservations = it->second;
      do_local_work();
    });
    for (const Reservation& r : reservations) {
      tx.nested([&](tfa::Txn& child) {
        auto& shard = child.write<ResourceShard>(resource_shard_of(r.kind, r.resource));
        auto it = shard.items().find(r.resource);
        if (it != shard.items().end()) it->second.used -= 1;
        do_local_work();
      });
    }
    tx.nested([&](tfa::Txn& child) {
      child.write<CustomerShard>(cshard).customers().erase(customer);
    });
  };
  return op;
}

Workload::Op VacationWorkload::update_tables_op(Xoshiro256& rng) {
  struct Update {
    ResourceKind kind;
    std::uint64_t resource;
    std::int32_t price;
    std::int32_t extra_capacity;
  };
  const int updates_n = 1 + static_cast<int>(rng.below(std::max(1, cfg_.max_nested)));
  std::vector<Update> updates;
  for (int i = 0; i < updates_n; ++i)
    updates.push_back(Update{static_cast<ResourceKind>(rng.below(kResourceKinds)),
                             rng.below(resources_per_kind_),
                             static_cast<std::int32_t>(50 + rng.below(450)),
                             static_cast<std::int32_t>(rng.below(4))});

  Op op;
  op.profile = kProfileUpdate;
  op.body = [this, updates](tfa::Txn& tx) {
    for (const Update& u : updates) {
      tx.nested([&](tfa::Txn& child) {
        auto& shard = child.write<ResourceShard>(resource_shard_of(u.kind, u.resource));
        auto it = shard.items().find(u.resource);
        if (it == shard.items().end()) return;
        it->second.price = u.price;
        it->second.total += u.extra_capacity;
        do_local_work();
      });
    }
  };
  return op;
}

bool VacationWorkload::verify(runtime::Cluster& cluster) {
  // Count reservations per (kind, resource) across all customer shards.
  std::unordered_map<std::uint64_t, std::int64_t> reserved;  // key = kind*2^56 | resource
  const auto key_of = [](ResourceKind kind, std::uint64_t resource) {
    return (static_cast<std::uint64_t>(kind) << 56) | resource;
  };
  for (const ObjectId cshard : customer_shards_) {
    const ObjectSnapshot snap = cluster.committed_copy(cshard);
    if (!snap) return false;
    for (const auto& [customer, reservations] :
         object_cast<CustomerShard>(*snap).customers()) {
      for (const Reservation& r : reservations) reserved[key_of(r.kind, r.resource)] += 1;
    }
  }

  for (int k = 0; k < kResourceKinds; ++k) {
    for (const ObjectId rshard : resource_shards_[k]) {
      const ObjectSnapshot snap = cluster.committed_copy(rshard);
      if (!snap) return false;
      for (const auto& [resource, item] : object_cast<ResourceShard>(*snap).items()) {
        if (item.used < 0 || item.used > item.total) {
          HYFLOW_ERROR("vacation: capacity violated for resource ", resource, " used=",
                       item.used, " total=", item.total);
          return false;
        }
        const auto expected = reserved[key_of(static_cast<ResourceKind>(k), resource)];
        if (item.used != expected) {
          HYFLOW_ERROR("vacation: used/reservation mismatch for resource ", resource,
                       ": used=", item.used, " reservations=", expected);
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace hyflow::workloads
