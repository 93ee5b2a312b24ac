// The single-ownership audit of a quiesced cluster, shared by the tests that
// stop the workers themselves (run_experiment shuts the cluster down before
// a test could look): every object lives in exactly one store, its slot is
// unlocked, and its home node's directory names that store.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "dsm/directory.hpp"
#include "runtime/cluster.hpp"

namespace hyflow {

// Call after Cluster::stop_workers and before Cluster::shutdown.
inline void expect_single_owners(runtime::Cluster& cluster) {
  std::set<std::uint64_t> seen;
  for (NodeId n = 0; n < cluster.size(); ++n) {
    for (const ObjectId oid : cluster.node(n).store().owned_ids()) {
      EXPECT_TRUE(seen.insert(oid.value).second)
          << "object " << oid.value << " owned by two stores";
      const NodeId home = dsm::home_node(oid, cluster.size());
      EXPECT_EQ(cluster.node(home).directory().lookup(oid), std::optional<NodeId>(n))
          << "directory stale for object " << oid.value;
      EXPECT_FALSE(cluster.node(n).store().get(oid)->locked_by.valid())
          << "object " << oid.value << " still locked at node " << n;
    }
  }
}

}  // namespace hyflow
