#include "bench/bench_result.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "tfa/abort.hpp"
#include "util/assert.hpp"
#include "util/json_writer.hpp"

namespace hyflow::bench {

namespace {

std::string format_double_label(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

// "early-validation" -> "early_validation" (metric keys use underscores).
std::string metric_key(std::string_view name) {
  std::string key(name);
  for (char& c : key)
    if (c == '-') c = '_';
  return key;
}

template <typename V>
void upsert(std::vector<std::pair<std::string, V>>& entries, const std::string& key, V value) {
  for (auto& [k, v] : entries) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  entries.emplace_back(key, std::move(value));
}

}  // namespace

std::string git_sha() {
  if (const char* env = std::getenv("HYFLOW_GIT_SHA"); env && *env) return env;
#ifdef HYFLOW_GIT_SHA
  return HYFLOW_GIT_SHA;
#else
  return "unknown";
#endif
}

BenchPoint& BenchPoint::label(const std::string& key, const std::string& value) {
  upsert(labels_, key, value);
  return *this;
}

BenchPoint& BenchPoint::label(const std::string& key, std::int64_t value) {
  return label(key, std::to_string(value));
}

BenchPoint& BenchPoint::label(const std::string& key, double value) {
  return label(key, format_double_label(value));
}

BenchPoint& BenchPoint::metric(const std::string& key, double value) {
  upsert(metrics_, key, value);
  return *this;
}

BenchPoint& BenchPoint::metric(const std::string& key, std::uint64_t value) {
  return metric(key, static_cast<double>(value));
}

BenchPoint& BenchPoint::from_metrics(const runtime::MetricsSnapshot& delta, double seconds,
                                     std::uint64_t messages, std::uint64_t bytes,
                                     bool verified) {
  const double secs = seconds > 0.0 ? seconds : 0.0;
  metric("seconds", secs);
  metric("throughput",
         secs > 0.0 ? static_cast<double>(delta.commits_root) / secs : 0.0);
  for (const runtime::CounterField& c : runtime::kCounterFields)
    metric(c.name, delta.*c.field);
  for (std::size_t i = 1; i < delta.aborts_root.size(); ++i) {
    metric("abort_" + metric_key(tfa::abort_cause_name(static_cast<tfa::AbortCause>(i))),
           delta.aborts_root[i]);
  }
  metric("aborts_total", delta.aborts_total());
  metric("abort_ratio", delta.abort_ratio());
  metric("nested_abort_rate", delta.nested_abort_rate());

  const auto& lat = delta.latency;
  metric("latency_count", lat.count());
  metric("latency_p50_us", static_cast<double>(lat.value_at_percentile(50)) / 1e3);
  metric("latency_p90_us", static_cast<double>(lat.value_at_percentile(90)) / 1e3);
  metric("latency_p99_us", static_cast<double>(lat.value_at_percentile(99)) / 1e3);
  metric("latency_mean_us", lat.mean() / 1e3);
  metric("latency_max_us", static_cast<double>(lat.max()) / 1e3);
  metric("latency_overflow", lat.overflow_count());

  metric("messages", messages);
  metric("bytes", bytes);
  metric("verified", static_cast<std::uint64_t>(verified ? 1 : 0));
  return *this;
}

BenchPoint& BenchPoint::from_experiment(const runtime::ExperimentResult& result) {
  from_metrics(result.delta, result.seconds, result.messages, result.bytes, result.verified);
  metric("queue_residue", result.report.queued_requesters);
  return *this;
}

BenchResult::BenchResult(std::string bench_name)
    : name_(std::move(bench_name)), start_(std::chrono::steady_clock::now()) {
  meta("git_sha", git_sha());
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  meta("started_unix_ms",
       static_cast<std::int64_t>(
           std::chrono::duration_cast<std::chrono::milliseconds>(now).count()));
}

BenchResult::MetaEntry& BenchResult::meta_slot(const std::string& key) {
  for (auto& e : meta_)
    if (e.key == key) return e;
  MetaEntry entry;
  entry.key = key;
  entry.kind = MetaEntry::Kind::kString;
  meta_.push_back(std::move(entry));
  return meta_.back();
}

void BenchResult::meta(const std::string& key, const std::string& value) {
  MetaEntry& e = meta_slot(key);
  e.kind = MetaEntry::Kind::kString;
  e.str = value;
}

void BenchResult::meta(const std::string& key, std::int64_t value) {
  MetaEntry& e = meta_slot(key);
  e.kind = MetaEntry::Kind::kInt;
  e.i = value;
}

void BenchResult::meta(const std::string& key, double value) {
  MetaEntry& e = meta_slot(key);
  e.kind = MetaEntry::Kind::kDouble;
  e.d = value;
}

void BenchResult::meta(const std::string& key, bool value) {
  MetaEntry& e = meta_slot(key);
  e.kind = MetaEntry::Kind::kBool;
  e.b = value;
}

BenchPoint& BenchResult::add_point() {
  points_.emplace_back();
  return points_.back();
}

std::string BenchResult::to_json() const {
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  JsonWriter w;
  w.begin_object();
  w.field("schema_version", kBenchSchemaVersion);
  w.field("bench", name_);
  w.key("meta");
  w.begin_object();
  for (const MetaEntry& e : meta_) {
    w.key(e.key);
    switch (e.kind) {
      case MetaEntry::Kind::kString: w.value(e.str); break;
      case MetaEntry::Kind::kInt: w.value(e.i); break;
      case MetaEntry::Kind::kDouble: w.value(e.d); break;
      case MetaEntry::Kind::kBool: w.value(e.b); break;
    }
  }
  w.field("wall_time_s", wall_s);
  w.end_object();
  w.key("points");
  w.begin_array();
  for (const BenchPoint& p : points_) {
    w.begin_object();
    w.key("labels");
    w.begin_object();
    for (const auto& [k, v] : p.labels()) w.field(k, v);
    w.end_object();
    w.key("metrics");
    w.begin_object();
    for (const auto& [k, v] : p.metrics()) w.field(k, v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  HYFLOW_ASSERT(w.complete());
  return w.str();
}

bool BenchResult::write(const std::string& path) const {
  if (!write_text_file(path, to_json())) {
    std::fprintf(stderr, "bench: failed to write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace hyflow::bench
