// Vacation — distributed re-implementation of the STAMP travel-reservation
// benchmark (§IV-A). The system keeps three kinds of resources (cars,
// flights, rooms) in per-node table shards plus per-node customer shards.
//
// Transactions (heavyweight — the paper notes Vacation and Bank "take
// longer execution time than other benchmarks"):
//   * make_reservation (write): for each requested resource, one nested
//     child books it — incrementing `used` on the resource shard and
//     appending to the customer record atomically — or skips it when it is
//     sold out.
//   * delete_customer (write): nested children release every reservation,
//     then erase the customer record.
//   * update_tables (write): nested children add capacity / change prices.
//   * query (read): one nested child per probed resource reads its shard;
//     the query sums the prices of the probed items still available.
//
// Invariant: for every resource item, `used` equals the number of customer
// reservations referencing it, and 0 <= used <= total.
#pragma once

#include <map>
#include <vector>

#include "workloads/ids.hpp"
#include "workloads/workload.hpp"

namespace hyflow::workloads {

enum class ResourceKind : std::uint8_t { kCar = 0, kFlight = 1, kRoom = 2 };
constexpr int kResourceKinds = 3;

struct ResourceItem {
  std::int32_t total = 0;
  std::int32_t used = 0;
  std::int32_t price = 0;
};

class ResourceShard : public TxObject<ResourceShard> {
 public:
  ResourceShard(ObjectId id, ResourceKind kind) : TxObject(id), kind_(kind) {}

  ResourceKind kind() const { return kind_; }
  std::map<std::uint64_t, ResourceItem>& items() { return items_; }
  const std::map<std::uint64_t, ResourceItem>& items() const { return items_; }

  std::size_t wire_size() const override { return 32 + items_.size() * 24; }

 private:
  ResourceKind kind_;
  std::map<std::uint64_t, ResourceItem> items_;
};

struct Reservation {
  ResourceKind kind;
  std::uint64_t resource;

  bool operator==(const Reservation&) const = default;
};

class CustomerShard : public TxObject<CustomerShard> {
 public:
  explicit CustomerShard(ObjectId id) : TxObject(id) {}

  std::map<std::uint64_t, std::vector<Reservation>>& customers() { return customers_; }
  const std::map<std::uint64_t, std::vector<Reservation>>& customers() const {
    return customers_;
  }

  std::size_t wire_size() const override { return 32 + customers_.size() * 48; }

 private:
  std::map<std::uint64_t, std::vector<Reservation>> customers_;
};

class VacationWorkload : public Workload {
 public:
  static constexpr std::uint32_t kProfileQuery = 60;
  static constexpr std::uint32_t kProfileReserve = 61;
  static constexpr std::uint32_t kProfileDelete = 62;
  static constexpr std::uint32_t kProfileUpdate = 63;

  explicit VacationWorkload(const WorkloadConfig& cfg) : Workload(cfg) {}

  std::string name() const override { return "vacation"; }
  void setup(runtime::Cluster& cluster) override;
  Op next_op(NodeId node, Xoshiro256& rng) override;
  bool verify(runtime::Cluster& cluster) override;

 private:
  ObjectId resource_shard_of(ResourceKind kind, std::uint64_t resource) const;
  ObjectId customer_shard_of(std::uint64_t customer) const;

  Op make_reservation_op(Xoshiro256& rng);
  Op delete_customer_op(Xoshiro256& rng);
  Op update_tables_op(Xoshiro256& rng);
  Op query_op(Xoshiro256& rng);

  std::vector<ObjectId> resource_shards_[kResourceKinds];
  std::vector<ObjectId> customer_shards_;
  std::uint64_t resources_per_kind_ = 0;
  std::uint64_t customer_count_ = 0;
};

}  // namespace hyflow::workloads
