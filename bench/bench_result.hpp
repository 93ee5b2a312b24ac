// Machine-readable bench output: every bench binary accumulates its measured
// points into a BenchResult and writes `BENCH_<name>.json` next to its text
// output. The schema is deliberately flat so tools/bench_diff.py (and any
// ad-hoc jq) can diff two runs without bench-specific knowledge:
//
//   {
//     "schema_version": 1,
//     "bench": "fig4_throughput",
//     "meta":   { "git_sha": "...", "seed": 42, ... },          // run identity
//     "points": [ { "labels":  { "workload": "bank", ... },     // point identity
//                   "metrics": { "throughput": 1234.5, ... } }, // numbers only
//                 ... ]
//   }
//
// Labels are strings (they key the point for diffing); metrics are doubles.
// `BenchPoint::from_experiment` records the standard metric set — throughput,
// every counter of runtime/metrics.hpp's list under its field name, root
// aborts by cause, the abort and nested-abort rates, latency percentiles
// from the histogram and message/byte traffic — so every bench reports the
// same vocabulary.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/experiment.hpp"

namespace hyflow::bench {

inline constexpr int kBenchSchemaVersion = 1;

class BenchPoint {
 public:
  BenchPoint& label(const std::string& key, const std::string& value);
  BenchPoint& label(const std::string& key, std::int64_t value);
  BenchPoint& label(const std::string& key, double value);  // "%g" rendering

  BenchPoint& metric(const std::string& key, double value);
  BenchPoint& metric(const std::string& key, std::uint64_t value);

  // Standard metric set from a measurement window. `from_experiment` is the
  // one-call version for benches built on run_experiment; `from_metrics` is
  // for benches that snapshot a cluster themselves (e.g. makespan_bounds).
  BenchPoint& from_experiment(const runtime::ExperimentResult& result);
  BenchPoint& from_metrics(const runtime::MetricsSnapshot& delta, double seconds,
                           std::uint64_t messages, std::uint64_t bytes, bool verified);

  const std::vector<std::pair<std::string, std::string>>& labels() const { return labels_; }
  const std::vector<std::pair<std::string, double>>& metrics() const { return metrics_; }

 private:
  // Insertion-ordered; duplicate keys overwrite in place so repeated
  // `metric()` calls behave like assignment.
  std::vector<std::pair<std::string, std::string>> labels_;
  std::vector<std::pair<std::string, double>> metrics_;
};

class BenchResult {
 public:
  // Stamps run identity: git sha (build-time, overridable via
  // HYFLOW_GIT_SHA env), schema version, and the start timestamp.
  explicit BenchResult(std::string bench_name);

  void meta(const std::string& key, const std::string& value);
  // Without this overload a string literal would convert to bool.
  void meta(const std::string& key, const char* value) { meta(key, std::string(value)); }
  void meta(const std::string& key, std::int64_t value);
  void meta(const std::string& key, double value);
  void meta(const std::string& key, bool value);

  BenchPoint& add_point();

  const std::string& name() const { return name_; }
  std::size_t point_count() const { return points_.size(); }
  const std::vector<BenchPoint>& points() const { return points_; }

  // Full document, including `wall_time_s` measured from construction.
  std::string to_json() const;
  // Writes to_json() to `path`; logs and returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct MetaEntry {
    enum class Kind { kString, kInt, kDouble, kBool };
    std::string key;
    Kind kind = Kind::kString;
    std::string str;
    std::int64_t i = 0;
    double d = 0.0;
    bool b = false;
  };
  MetaEntry& meta_slot(const std::string& key);

  std::string name_;
  std::vector<MetaEntry> meta_;
  std::vector<BenchPoint> points_;
  std::chrono::steady_clock::time_point start_;
};

// Build-time git sha (short), overridable with the HYFLOW_GIT_SHA env var;
// "unknown" when the build tree had no git metadata.
std::string git_sha();

}  // namespace hyflow::bench
