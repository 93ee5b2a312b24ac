// Tests for the machine-readable bench output layer (bench/bench_result):
// the standard metric vocabulary, label/metric upsert semantics, and the
// emitted BENCH_*.json document shape that tools/bench_diff.py validates.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench/bench_result.hpp"

namespace hyflow::bench {
namespace {

runtime::MetricsSnapshot sample_delta() {
  runtime::MetricsSnapshot delta;
  delta.commits_root = 200;
  delta.commits_read_only = 150;
  delta.commits_write = 50;
  delta.aborts_root[static_cast<std::size_t>(tfa::AbortCause::kLockConflict)] = 10;
  delta.nested_commits = 400;
  delta.nested_aborts_total = 20;
  delta.nested_aborts_parent_cause = 15;
  delta.rpc_retries = 3;
  for (int i = 0; i < 100; ++i) delta.latency.add(1'000'000 + i * 10'000);
  return delta;
}

double metric_of(const BenchPoint& p, const std::string& key) {
  for (const auto& [k, v] : p.metrics())
    if (k == key) return v;
  ADD_FAILURE() << "metric not found: " << key;
  return -1.0;
}

bool has_metric(const BenchPoint& p, const std::string& key) {
  for (const auto& [k, v] : p.metrics())
    if (k == key) return true;
  return false;
}

TEST(BenchPoint, FromMetricsEmitsTheStandardVocabulary) {
  BenchPoint p;
  p.from_metrics(sample_delta(), 2.0, 5000, 123456, true);

  EXPECT_DOUBLE_EQ(metric_of(p, "throughput"), 100.0);  // 200 commits / 2 s
  EXPECT_DOUBLE_EQ(metric_of(p, "commits_root"), 200.0);
  EXPECT_DOUBLE_EQ(metric_of(p, "abort_lock_conflict"), 10.0);
  EXPECT_DOUBLE_EQ(metric_of(p, "aborts_total"), 10.0);
  EXPECT_NEAR(metric_of(p, "abort_ratio"), 10.0 / 210.0, 1e-12);
  EXPECT_NEAR(metric_of(p, "nested_abort_rate"), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(metric_of(p, "messages"), 5000.0);
  EXPECT_DOUBLE_EQ(metric_of(p, "bytes"), 123456.0);
  EXPECT_DOUBLE_EQ(metric_of(p, "rpc_retries"), 3.0);
  EXPECT_DOUBLE_EQ(metric_of(p, "dedup_hits"), 0.0);
  EXPECT_DOUBLE_EQ(metric_of(p, "watchdog_aborts"), 0.0);
  EXPECT_DOUBLE_EQ(metric_of(p, "grant_reforwards"), 0.0);
  EXPECT_DOUBLE_EQ(metric_of(p, "verified"), 1.0);
  EXPECT_DOUBLE_EQ(metric_of(p, "latency_count"), 100.0);
  // 100 samples spread over [1.0ms, 1.99ms]: p50 ~1.5ms, p99 near the top.
  EXPECT_NEAR(metric_of(p, "latency_p50_us"), 1500.0, 150.0);
  EXPECT_GT(metric_of(p, "latency_p99_us"), metric_of(p, "latency_p50_us"));
  EXPECT_DOUBLE_EQ(metric_of(p, "latency_overflow"), 0.0);
  // Every abort cause appears, even all-zero ones (stable schema).
  EXPECT_TRUE(has_metric(p, "abort_early_validation"));
  EXPECT_TRUE(has_metric(p, "abort_watchdog"));
}

// Each listed counter is emitted under its field name with its value.
TEST(BenchPoint, FromMetricsEmitsEveryListedCounter) {
  runtime::MetricsSnapshot delta;
  for (std::size_t i = 0; i < runtime::kCounterCount; ++i)
    delta.*runtime::kCounterFields[i].field = i + 1;
  BenchPoint p;
  p.from_metrics(delta, 1.0, 0, 0, true);
#define EXPECT_COUNTER_KEY(counter)                                          \
  EXPECT_DOUBLE_EQ(metric_of(p, #counter),                                   \
                   static_cast<double>(runtime::Counter::counter) + 1);
  HYFLOW_NODE_COUNTERS(EXPECT_COUNTER_KEY)
#undef EXPECT_COUNTER_KEY
}

TEST(BenchPoint, ZeroWindowDoesNotDivide) {
  BenchPoint p;
  const runtime::MetricsSnapshot empty;
  p.from_metrics(empty, 0.0, 0, 0, true);
  EXPECT_DOUBLE_EQ(metric_of(p, "throughput"), 0.0);
  EXPECT_DOUBLE_EQ(metric_of(p, "abort_ratio"), 0.0);
  EXPECT_DOUBLE_EQ(metric_of(p, "latency_p99_us"), 0.0);
}

TEST(BenchPoint, LabelsAndMetricsUpsert) {
  BenchPoint p;
  p.label("workload", "bank").label("workload", "dht");
  p.metric("x", 1.0).metric("x", 2.0);
  ASSERT_EQ(p.labels().size(), 1u);
  EXPECT_EQ(p.labels()[0].second, "dht");
  ASSERT_EQ(p.metrics().size(), 1u);
  EXPECT_DOUBLE_EQ(p.metrics()[0].second, 2.0);
}

TEST(BenchPoint, NumericLabelsRenderAsStrings) {
  BenchPoint p;
  p.label("nodes", std::int64_t{40}).label("read_ratio", 0.9);
  EXPECT_EQ(p.labels()[0].second, "40");
  EXPECT_EQ(p.labels()[1].second, "0.9");
}

TEST(BenchResult, DocumentShape) {
  BenchResult result("unit_test_bench");
  result.meta("seed", std::int64_t{42});
  result.meta("note", "hello \"world\"");
  result.add_point()
      .label("workload", "bank")
      .metric("throughput", 123.5)
      .metric("latency_p50_us", 10.0)
      .metric("latency_p99_us", 20.0)
      .metric("rpc_retries", 0.0)
      .metric("dedup_hits", 0.0)
      .metric("watchdog_aborts", 0.0)
      .metric("grant_reforwards", 0.0);

  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"unit_test_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"hello \\\"world\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_time_s\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"bank\""), std::string::npos);
  EXPECT_NE(json.find("\"throughput\": 123.5"), std::string::npos);
}

TEST(BenchResult, MetaUpsertsByKey) {
  BenchResult result("b");
  result.meta("k", std::int64_t{1});
  result.meta("k", std::int64_t{2});
  const std::string json = result.to_json();
  EXPECT_EQ(json.find("\"k\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"k\": 2"), std::string::npos);
}

TEST(BenchResult, WriteRoundTrips) {
  const std::string path = ::testing::TempDir() + "/bench_result_test.json";
  BenchResult result("roundtrip");
  result.add_point().label("k", "v").metric("m", 1.0);
  ASSERT_TRUE(result.write(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  // wall_time_s is re-measured per to_json() call, so compare shape, not
  // bytes: the file must open/close the same document and carry the point.
  EXPECT_EQ(ss.str().front(), '{');
  EXPECT_EQ(ss.str().back(), '}');
  EXPECT_NE(ss.str().find("\"roundtrip\""), std::string::npos);
  EXPECT_NE(ss.str().find("\"m\": 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(GitSha, EnvOverrideWins) {
  ::setenv("HYFLOW_GIT_SHA", "deadbeef1234", 1);
  EXPECT_EQ(git_sha(), "deadbeef1234");
  ::unsetenv("HYFLOW_GIT_SHA");
  EXPECT_NE(git_sha(), "deadbeef1234");
}

}  // namespace
}  // namespace hyflow::bench
