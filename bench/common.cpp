#include "bench/common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "bench/bench_result.hpp"
#include "core/scheduler.hpp"

namespace hyflow::bench {

namespace {

std::vector<std::string> split_csv_list(const std::string& raw) {
  std::vector<std::string> items;
  std::stringstream ss(raw);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

}  // namespace

HarnessOptions HarnessOptions::from_config(const Config& cfg) {
  HarnessOptions opt;
  opt.node_sweep = cfg.get_int_list("nodes", opt.node_sweep);
  opt.workers = static_cast<int>(cfg.get_int("workers", opt.workers));
  opt.measure = sim_ms(cfg.get_int("duration-ms", opt.measure / 1000000));
  opt.warmup = sim_ms(cfg.get_int("warmup-ms", opt.warmup / 1000000));
  opt.repeats = static_cast<int>(cfg.get_int("repeats", opt.repeats));
  opt.read_ratio_low = cfg.get_double("read-ratio-low", opt.read_ratio_low);
  opt.read_ratio_high = cfg.get_double("read-ratio-high", opt.read_ratio_high);
  opt.objects_per_node = static_cast<int>(cfg.get_int("objects", opt.objects_per_node));
  opt.min_delay = sim_us(cfg.get_int("min-delay-us", opt.min_delay / 1000));
  opt.max_delay = sim_us(cfg.get_int("max-delay-us", opt.max_delay / 1000));
  opt.local_work = sim_us(cfg.get_int("local-work-us", opt.local_work / 1000));
  opt.max_nested = static_cast<int>(cfg.get_int("max-nested", opt.max_nested));
  opt.seed = static_cast<std::uint64_t>(cfg.get_int("seed", static_cast<std::int64_t>(opt.seed)));
  opt.verify = cfg.get_bool("verify", opt.verify);
  opt.json_path = cfg.get_string("json", "");
  opt.workloads = split_csv_list(cfg.get_string("workloads", ""));
  opt.schedulers = split_csv_list(cfg.get_string("schedulers", ""));
  return opt;
}

void check_args(const Config& cfg, const std::string& bench) {
  if (cfg.get_bool("help", false)) {
    std::printf("usage: %s [--key=value ...]\nkeys:\n", bench.c_str());
    for (const auto& key : cfg.asked())
      if (key != "help") std::printf("  --%s\n", key.c_str());
    std::exit(0);
  }
  const auto unknown = cfg.unasked();
  for (const auto& key : unknown)
    std::fprintf(stderr, "%s: unknown key '--%s'\n", bench.c_str(), key.c_str());
  for (const auto& arg : cfg.positional())
    std::fprintf(stderr, "%s: unexpected argument '%s'\n", bench.c_str(), arg.c_str());
  if (unknown.empty() && cfg.positional().empty()) return;
  std::fprintf(stderr, "%s: --help lists the keys\n", bench.c_str());
  std::exit(2);
}

BenchResult make_bench_result(const HarnessOptions& opt) {
  BenchResult result(opt.bench_name.empty() ? "bench" : opt.bench_name);
  result.meta("seed", static_cast<std::int64_t>(opt.seed));
  result.meta("workers_per_node", static_cast<std::int64_t>(opt.workers));
  result.meta("measure_ms", static_cast<std::int64_t>(opt.measure / 1000000));
  result.meta("warmup_ms", static_cast<std::int64_t>(opt.warmup / 1000000));
  result.meta("repeats", static_cast<std::int64_t>(opt.repeats));
  result.meta("objects_per_node", static_cast<std::int64_t>(opt.objects_per_node));
  result.meta("min_delay_us", static_cast<std::int64_t>(opt.min_delay / 1000));
  result.meta("max_delay_us", static_cast<std::int64_t>(opt.max_delay / 1000));
  result.meta("local_work_us", static_cast<std::int64_t>(opt.local_work / 1000));
  result.meta("max_nested", static_cast<std::int64_t>(opt.max_nested));
  result.meta("verify", opt.verify);
  {
    std::ostringstream nodes;
    for (std::size_t i = 0; i < opt.node_sweep.size(); ++i)
      nodes << (i ? "," : "") << opt.node_sweep[i];
    result.meta("node_sweep", nodes.str());
  }
  return result;
}

void write_bench_json(const BenchResult& result, const HarnessOptions& opt) {
  if (opt.json_path == "none" || opt.json_path == "off") return;
  const std::string path =
      opt.json_path.empty() ? "BENCH_" + result.name() + ".json" : opt.json_path;
  if (result.write(path))
    std::printf("# wrote %s (%zu points)\n", path.c_str(), result.point_count());
}

std::vector<std::string> selected_workloads(const HarnessOptions& opt) {
  return opt.workloads.empty() ? workloads::workload_names() : opt.workloads;
}

std::vector<std::string> selected_schedulers(const HarnessOptions& opt) {
  if (opt.schedulers.empty()) return core::scheduler_names();
  std::vector<std::string> names;
  for (const auto& s : opt.schedulers) {
    const auto canonical = core::canonical_scheduler_name(s);
    // Pass unknown names through: core::Scheduler reports them fatally with
    // the valid list, which beats silently dropping a misspelled policy.
    names.push_back(canonical.empty() ? s : canonical);
  }
  return names;
}

std::uint32_t tuned_threshold(const std::string& workload) {
  // Peaks from bench/ablation_cl_threshold (EXPERIMENTS.md records the
  // sweeps); the paper fixes the threshold at each benchmark's peak.
  return workload == "vacation" ? 8 : 4;
}

runtime::ExperimentResult run_point(const HarnessOptions& opt, const std::string& workload,
                                    const std::string& scheduler, std::uint32_t nodes,
                                    double read_ratio, std::uint32_t threshold_override) {
  std::vector<runtime::ExperimentResult> results;
  for (int rep = 0; rep < std::max(1, opt.repeats); ++rep) {
    runtime::ExperimentConfig cfg;
    cfg.cluster.nodes = nodes;
    cfg.cluster.workers_per_node = opt.workers;
    cfg.cluster.scheduler.kind = scheduler;
    cfg.cluster.scheduler.cl_threshold =
        threshold_override ? threshold_override : tuned_threshold(workload);
    cfg.cluster.topology.min_delay = opt.min_delay;
    cfg.cluster.topology.max_delay = opt.max_delay;
    cfg.cluster.topology.seed = opt.seed;
    cfg.cluster.seed = opt.seed + static_cast<std::uint64_t>(rep) * 1000;
    cfg.warmup = opt.warmup;
    cfg.measure = opt.measure;
    cfg.verify = opt.verify;

    workloads::WorkloadConfig wcfg;
    wcfg.read_ratio = read_ratio;
    wcfg.objects_per_node = opt.objects_per_node;
    wcfg.max_nested = opt.max_nested;
    wcfg.local_work = opt.local_work;
    wcfg.seed = opt.seed + static_cast<std::uint64_t>(rep);

    auto wl = workloads::make_workload(workload, wcfg);
    results.push_back(runtime::run_experiment(*wl, cfg));
  }
  std::sort(results.begin(), results.end(),
            [](const runtime::ExperimentResult& a, const runtime::ExperimentResult& b) {
              return a.throughput < b.throughput;
            });
  const auto& median = results[results.size() / 2];
  const std::uint32_t threshold =
      threshold_override ? threshold_override : tuned_threshold(workload);
  // Label points with the canonical policy name so aliases ("backoff",
  // "bi") and the per-policy abort breakdowns they carry diff cleanly
  // across runs.
  const std::string canonical = core::canonical_scheduler_name(scheduler);
  const std::string& policy = canonical.empty() ? scheduler : canonical;
  if (opt.sink) {
    opt.sink->add_point()
        .label("workload", workload)
        .label("scheduler", policy)
        .label("nodes", static_cast<std::int64_t>(nodes))
        .label("read_ratio", read_ratio)
        .label("threshold", static_cast<std::int64_t>(threshold))
        .from_experiment(median);
  }
  return median;
}

void print_header(const std::string& title, const HarnessOptions& opt) {
  std::printf("# %s\n", title.c_str());
  std::printf(
      "# workers/node=%d measure=%lldms warmup=%lldms repeats=%d objects/node=%d\n"
      "# link delay=[%lld,%lld]us (paper 1..50ms scaled) local-work=%lldus max-nested=%d\n",
      opt.workers, static_cast<long long>(opt.measure / 1000000),
      static_cast<long long>(opt.warmup / 1000000), opt.repeats, opt.objects_per_node,
      static_cast<long long>(opt.min_delay / 1000), static_cast<long long>(opt.max_delay / 1000),
      static_cast<long long>(opt.local_work / 1000), opt.max_nested);
}

std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%5.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace hyflow::bench
