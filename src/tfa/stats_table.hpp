// Transaction stats table (§III-B).
//
// "To compute a backoff time, we use a transaction stats table that stores
//  the average historical validation time of a transaction. Each table
//  entry holds a bloom filter representation of the most current successful
//  commit times of write transactions. Whenever a transaction starts, an
//  expected commit time is picked up from the table."
//
// Entries are keyed by *transaction profile* (an id the workload assigns to
// each transaction shape, e.g. bank-transfer vs bank-balance). An entry
// keeps an EWMA of committed execution durations — the source of the
// expected-commit timestamp in every ETS. The EWMA stands in for the paper's
// Bloom filter, which does not say how an expected time is read out of one.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "util/mutex.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace hyflow::tfa {

class StatsTable {
 public:
  // `default_duration` seeds expectations before any commit of a profile
  // has been observed; clusters pass a few average round-trip times.
  explicit StatsTable(SimDuration default_duration = sim_ms(2));

  SimDuration expected_duration(std::uint32_t profile) const;
  SimTime expected_commit(std::uint32_t profile, SimTime start) const {
    return start + expected_duration(profile);
  }

  void record_commit(std::uint32_t profile, SimDuration duration);

  std::size_t profile_count() const;

 private:
  SimDuration default_duration_;
  mutable Mutex mu_{LockRank::kStatsTable, "StatsTable::mu"};
  std::unordered_map<std::uint32_t, Ewma> entries_ GUARDED_BY(mu_);
};

}  // namespace hyflow::tfa
