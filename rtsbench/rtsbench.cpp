// rtsbench — the repository benchmark. A single process builds a 4-node RTS
// cluster with no built-in workers and runs one closed-loop client thread
// per node: each client takes the next op of a registered workload and
// calls the public TfaRuntime::run, timing the call from outside, and issues
// the next op only after run() returns (zero think time).
//
//   rtsbench --workload=<ll-read|bank-hot|dht-write> --seed=N --seconds=S --trace=<0|1>
//
// Every modelled duration (links, local work, timeouts, backoffs) runs at
// kTimeScale times the harness default. The S seconds are measured as S/3
// episodes of about 3 s, each on a fresh cluster with a short warm-up.
// Throughput and CPU per commit are medians over episodes; latencies and
// counters are pooled over them.
// --trace=0 reports the end-to-end metrics of an untraced run. --trace=1
// runs the same workload with every op body wrapped in a span recorder and
// reports per-layer metrics: runtime (client view), tfa (attempt spans and
// abort counters), core/dsm/net (MetricsSnapshot and transport deltas) plus
// isolated timings of RtsScheduler::on_conflict, ObjectStore::lock/unlock
// and a Network echo. The last stdout line is one JSON object; README.md
// lists every metric and the checks that set "correct".
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rts_scheduler.hpp"
#include "dsm/object_store.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "runtime/cluster.hpp"
#include "util/config.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace hyflow;

// Why these three: ll-read is fetch- and link-bound with an idle scheduler,
// bank-hot is the RTS park/hand-off path on 8 hot accounts, and dht-write
// runs the commit protocol with less contention. ll-read is read-only:
// with 10% writes the list's length and its nodes' owners drift within a
// run, and throughput swung 65-250 commits/s from second to second.
struct Spec {
  const char* name;
  const char* workload;  // registry name
  double read_ratio;
  int objects_per_node;
};
constexpr Spec kSpecs[] = {
    {"ll-read", "linked-list", 1.0, 16},
    {"bank-hot", "bank", 0.1, 2},
    {"dht-write", "dht", 0.1, 16},
};

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kClThreshold = 4;  // the tuned RTS threshold
constexpr std::uint64_t kTopologySeed = 42;  // fixed network; --seed varies the ops
// The simulator waits in wall-clock time, so each message hop and each
// local-work sleep also costs a thread wake-up, and on a virtual machine
// that cost follows the host's load. At the defaults (50 µs links, 300 µs
// work) the wake-ups are a large share of a bank-hot transaction, and runs
// of the same code spread by a third between quiet and busy hosts. Four
// times longer modelled delays make that share a quarter as large.
constexpr std::int64_t kTimeScale = 4;
// bank-hot settles within a second into one of several regimes (one client
// or two clients winning every conflict) and stays there; a run of one long
// window measures whichever it drew. Short episodes on fresh clusters
// sample the regimes instead.
constexpr std::int64_t kEpisodeSeconds = 3;
constexpr SimDuration kWarmup = sim_ms(500);
constexpr SimDuration kStalled = sim_ms(1000) * kTimeScale;
constexpr int kSetupsPerEpisode = 20;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef HYFLOW_LOCK_RANK_CHECKS
constexpr bool kLockRank = true;
#else
constexpr bool kLockRank = false;
#endif

double ms(SimDuration d) { return static_cast<double>(d) * 1e-6; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

// Nearest-rank percentile, the rule Histogram::value_at_percentile uses.
template <typename T>
T percentile(std::vector<T> values, double p) {
  if (values.empty()) return T{};
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

template <typename T>
T median(std::vector<T> values) {
  return percentile(std::move(values), 50.0);
}

// One root attempt as seen by the traced body wrapper: body start to body
// return, or to the abort that unwound it.
struct Attempt {
  SimTime start = 0;
  SimTime end = 0;
  bool threw = false;
};

struct OpRecord {
  SimTime issued = 0;
  SimTime returned = 0;
  std::uint32_t attempts = 0;
  bool committed = false;
  bool failed = false;  // uncommitted before the end-of-episode stop
  std::vector<Attempt> spans;  // traced runs only
};

struct Client {
  NodeId node = 0;
  Xoshiro256 rng;
  std::vector<OpRecord> ops;
};

void client_loop(std::stop_token st, Client& c, workloads::Workload& workload,
                 tfa::TfaRuntime& rt, bool traced) {
  const std::function<bool()> keep_going = [&st] { return !st.stop_requested(); };
  while (keep_going()) {
    auto op = workload.next_op(c.node, c.rng);
    OpRecord rec;
    std::function<void(tfa::Txn&)> wrapped;
    if (traced) {
      wrapped = [&rec, &op](tfa::Txn& tx) {
        const SimTime start = sim_now();
        try {
          op.body(tx);
        } catch (...) {
          rec.spans.push_back({start, sim_now(), true});
          throw;
        }
        rec.spans.push_back({start, sim_now(), false});
      };
    }
    rec.issued = sim_now();
    const auto res = rt.run(op.profile, traced ? wrapped : op.body, keep_going);
    rec.returned = sim_now();
    rec.attempts = res.attempts;
    rec.committed = res.committed;
    rec.failed = !res.committed && keep_going();
    c.ops.push_back(std::move(rec));
  }
}

// User plus system CPU of the whole process.
double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) * 1e-3;
  };
  return tv_ms(ru.ru_utime) + tv_ms(ru.ru_stime);
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

struct NetCounts {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t object_payloads = 0;
  static NetCounts of(const net::Network& network) {
    const auto& s = network.stats();
    return {s.messages.load(), s.bytes.load(), s.object_payloads.load()};
  }
  NetCounts operator-(const NetCounts& o) const {
    return {messages - o.messages, bytes - o.bytes, object_payloads - o.object_payloads};
  }
  NetCounts& operator+=(const NetCounts& o) {
    messages += o.messages;
    bytes += o.bytes;
    object_payloads += o.object_payloads;
    return *this;
  }
};

// ---- one episode: fresh cluster, warm-up, window, quiesce, checks ----

struct Episode {
  std::vector<double> setup_s;
  std::vector<Client> clients;
  SimTime t0 = 0;  // window
  SimTime t1 = 0;
  runtime::MetricsSnapshot window;  // counter deltas over the window
  NetCounts net;
  double cpu_ms = 0.0;
  double rss_mb = 0.0;
  // Quiesce and outside/inside checks.
  bool verified = false;
  std::size_t queued = 0;
  runtime::MetricsSnapshot lifetime;  // deltas over the clients' lifetime
  std::uint64_t client_commits = 0;
  double client_p50_ms = 0.0;
  double runtime_p50_ms = 0.0;

  bool in_window(const OpRecord& op) const { return op.returned >= t0 && op.returned < t1; }
  double window_s() const { return static_cast<double>(t1 - t0) * 1e-9; }

  // `queued` is reported, not checked. The owner's handler reads the slot
  // and then asks the scheduler, while the committing client thread unlocks
  // the slot and serves its queue; if the unlock and the serve fall between
  // the two, the requester parks on a free object. The entry waits for the
  // next request for that object, which never comes once the clients stop.
  // One of 50 bank-hot episodes in one batch ended with such an entry.
  bool ok() const {
    // No fault plan is set, so no transaction may give up on a peer. RPC
    // resends do happen: a 2.5 ms link plus queueing can outlast the first
    // 6-10 ms timeout. Each duplicate a receiver sees must come from one.
    const bool clean = lifetime.watchdog_aborts == 0 && lifetime.dedup_hits <= lifetime.rpc_retries;
    return verified && clean && client_commits == lifetime.commits_root &&
           std::abs(client_p50_ms - runtime_p50_ms) <= runtime_p50_ms / 32.0;
  }
};

Episode run_episode(const runtime::ClusterConfig& ccfg, const Spec& spec,
                    const workloads::WorkloadConfig& wcfg, std::uint64_t& seed_state,
                    SimDuration window, bool traced) {
  Episode ep;
  // Set-up: cluster construction plus object placement, repeated; the last
  // one is kept for the episode.
  std::unique_ptr<runtime::Cluster> cluster;
  std::unique_ptr<workloads::Workload> workload;
  for (int r = 0; r < kSetupsPerEpisode; ++r) {
    workload.reset();
    cluster.reset();
    const SimTime start = sim_now();
    cluster = std::make_unique<runtime::Cluster>(ccfg);
    workload = workloads::make_workload(spec.workload, wcfg);
    workload->setup(*cluster);
    ep.setup_s.push_back(static_cast<double>(sim_now() - start) * 1e-9);
  }

  ep.clients.resize(kNodes);
  for (NodeId n = 0; n < kNodes; ++n) {
    ep.clients[n].node = n;
    ep.clients[n].rng = Xoshiro256(splitmix64(seed_state));
  }
  const auto before = cluster->total_metrics();
  // Declared after the cluster and workload: on an early exit the threads
  // are stopped and joined before what they use is destroyed.
  std::vector<std::jthread> threads;
  for (auto& c : ep.clients) {
    threads.emplace_back(client_loop, std::ref(c), std::ref(*workload),
                         std::ref(cluster->node(c.node).runtime()), traced);
  }

  std::this_thread::sleep_for(to_chrono(kWarmup));
  // Taken before the window: the clients' op records grow with throughput
  // during it, which would make the figure follow speed, not memory use.
  ep.rss_mb = rss_mb();
  const auto m0 = cluster->total_metrics();
  const auto net0 = NetCounts::of(cluster->network());
  const double cpu0 = process_cpu_ms();
  ep.t0 = sim_now();
  std::this_thread::sleep_for(to_chrono(window));
  ep.t1 = sim_now();
  ep.cpu_ms = process_cpu_ms() - cpu0;
  ep.net = NetCounts::of(cluster->network()) - net0;
  ep.window = cluster->total_metrics() - m0;
  for (auto& t : threads) t.request_stop();
  threads.clear();

  // Quiesce: drain the network, then let parked requesters settle.
  cluster->network().wait_idle();
  for (int settle = 0; settle < 10; ++settle) {
    ep.queued = 0;
    for (NodeId n = 0; n < kNodes; ++n) ep.queued += cluster->node(n).scheduler().total_queued();
    if (ep.queued == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cluster->network().wait_idle();
  }
  ep.verified = workload->verify(*cluster);
  ep.lifetime = cluster->total_metrics() - before;
  cluster->shutdown();

  std::vector<SimDuration> latency;
  for (const auto& c : ep.clients)
    for (const auto& op : c.ops)
      if (op.committed) latency.push_back(op.returned - op.issued);
  ep.client_commits = latency.size();
  ep.client_p50_ms = ms(median(latency));
  ep.runtime_p50_ms = ms(static_cast<SimDuration>(ep.lifetime.latency.value_at_percentile(50)));
  return ep;
}

// ---- isolated layer timings (traced run only, after the episodes) ----

// Median ns per call over `batches` batches of `per_batch` calls.
template <typename F>
double batched_ns(int batches, int per_batch, F&& call) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const SimTime start = sim_now();
    for (int i = 0; i < per_batch; ++i) call();
    per_call.push_back(static_cast<double>(sim_now() - start) / per_batch);
  }
  return median(per_call);
}

double on_conflict_ns() {
  // Mirrors BM_RtsOnConflict: enqueue until the threshold blocks, then
  // steady-state aborts, draining the queues now and then.
  core::SchedulerConfig cfg;
  cfg.cl_threshold = kClThreshold;
  core::RtsScheduler rts(cfg);
  std::uint64_t i = 0;
  return batched_ns(21, 20000, [&] {
    core::ConflictContext ctx;
    ctx.oid = ObjectId{1 + (i & 3)};
    ctx.request.oid = ctx.oid;
    ctx.request.txid = TxnId{1 + (i & 31)};
    ctx.request_msg_id = ++i;
    ctx.request.ets.start = 0;
    ctx.request.ets.request = sim_ms(5);
    ctx.request.ets.expected_commit = sim_ms(7);
    ctx.validator_remaining = sim_ms(1);
    (void)rts.on_conflict(ctx);
    if ((i & 0xff) == 0) (void)rts.extract_queue(ctx.oid);
  });
}

class Cell : public TxObject<Cell> {
 public:
  explicit Cell(ObjectId id) : TxObject(id) {}
};

double store_lock_unlock_ns() {
  dsm::ObjectStore store;
  store.install(std::make_shared<Cell>(ObjectId{1}), Version{1, 0});
  bool ok = true;
  const double ns = batched_ns(21, 100000, [&] {
    ok &= store.lock(ObjectId{1}, TxnId{5}, 1) == dsm::ObjectStore::LockResult::kGranted;
    ok &= store.unlock(ObjectId{1}, TxnId{5});
  });
  return ok ? ns : -1.0;
}

// Echo between two nodes on links of [min_delay, max_delay]. Returns the
// median round trip and the median lateness of the request leg over the
// modelled link delay, both in µs; -1 if a reply never came.
std::pair<double, double> echo_us(SimDuration min_delay, SimDuration max_delay, int rounds) {
  net::TopologyConfig tcfg;
  tcfg.nodes = 2;
  tcfg.min_delay = min_delay;
  tcfg.max_delay = max_delay;
  net::Network network{net::Topology(tcfg), 2};
  net::PendingCalls pending;
  std::atomic<SimTime> arrived{0};
  network.register_handler(0, [&](net::Message m) {
    if (m.reply_to) pending.deliver(std::move(m));
  });
  network.register_handler(1, [&](net::Message m) {
    arrived.store(sim_now(), std::memory_order_relaxed);
    net::Message reply;
    reply.from = 1;
    reply.to = 0;
    reply.reply_to = m.msg_id;
    reply.payload = net::FindOwnerResponse{};
    network.send(std::move(reply));
  });
  network.start();
  const SimDuration modelled = network.topology().delay(0, 1);
  std::vector<double> round_trip;
  std::vector<double> overshoot;
  for (int r = 0; r < rounds; ++r) {
    const auto id = network.allocate_msg_id();
    auto call = pending.open(id);
    net::Message m;
    m.from = 0;
    m.to = 1;
    m.msg_id = id;
    m.payload = net::FindOwnerRequest{ObjectId{1}};
    const SimTime sent = sim_now();
    network.send(std::move(m));
    const bool replied = pending.wait(call, id, sim_ms(1000)).has_value();
    pending.done(id);
    if (!replied) break;
    round_trip.push_back(static_cast<double>(sim_now() - sent) * 1e-3);
    overshoot.push_back(
        static_cast<double>(arrived.load(std::memory_order_relaxed) - sent - modelled) * 1e-3);
  }
  network.stop();
  if (static_cast<int>(round_trip.size()) != rounds) return {-1.0, -1.0};
  return {median(round_trip), median(overshoot)};
}

// ---- output ----

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  JsonWriter w(0);
  w.begin_object().field("correct", correct).field("attempted", attempted).field("failed", failed);
  w.key("metrics").begin_object();
  for (const auto& m : metrics)
    w.key(m.name).begin_object().field("value", m.value).field("unit", m.unit).end_object();
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
}

// Per-layer metrics from the traced episodes: pooled window ops, counter
// deltas summed over episodes, then the isolated timings. Throughput and CPU
// per commit are medians over episodes, as for the untraced commits_per_s.
// CPU per commit is not an end-to-end metric: the cost of a wake-up follows
// the host's state, and in one set of ten bank-hot runs it stepped by a
// quarter while throughput held.
std::vector<Metric> layer_metrics(const std::vector<Episode>& episodes) {
  runtime::MetricsSnapshot w;
  NetCounts net;
  std::size_t queued = 0;
  std::vector<SimDuration> latency;
  std::vector<double> share_min;
  std::vector<double> commits_per_s;
  std::vector<double> cpu_ms_per_commit;
  std::uint64_t attempts = 0;
  std::uint64_t stalled = 0;
  double exec_ms = 0.0;
  std::uint64_t spans = 0;
  double commit_ms = 0.0;
  double wasted_ms = 0.0;
  double gap_ms = 0.0;
  std::uint64_t gaps = 0;
  for (const auto& ep : episodes) {
    w += ep.window;
    net += ep.net;
    queued += ep.queued;
    std::vector<double> per_client;
    for (const auto& c : ep.clients) {
      std::uint64_t commits = 0;
      for (const auto& op : c.ops) {
        // Stalled: still running at the window's end after kStalled.
        if (op.returned >= ep.t1 && op.issued < ep.t1 - kStalled) ++stalled;
        if (!ep.in_window(op)) continue;
        if (op.committed) {
          ++commits;
          attempts += op.attempts;
          latency.push_back(op.returned - op.issued);
          if (op.returned - op.issued > kStalled) ++stalled;
        }
        for (std::size_t i = 0; i < op.spans.size(); ++i) {
          const auto& a = op.spans[i];
          const bool last = i + 1 == op.spans.size();
          exec_ms += ms(a.end - a.start);
          ++spans;
          if (last && op.committed) {
            commit_ms += ms(op.returned - a.end);
            continue;
          }
          // An attempt whose body returned aborted in commit_root; its
          // abort time is not observable, so it runs to the next start.
          const SimTime next = last ? op.returned : op.spans[i + 1].start;
          wasted_ms += ms((a.threw ? a.end : next) - a.start);
          if (a.threw && !last) {
            gap_ms += ms(next - a.end);
            ++gaps;
          }
        }
      }
      per_client.push_back(static_cast<double>(commits));
    }
    double sum = 0.0;
    for (double v : per_client) sum += v;
    commits_per_s.push_back(sum / ep.window_s());
    cpu_ms_per_commit.push_back(ratio(ep.cpu_ms, sum));
    share_min.push_back(ratio(*std::min_element(per_client.begin(), per_client.end()),
                              sum / static_cast<double>(per_client.size())));
  }
  const auto commits = static_cast<double>(latency.size());
  const auto aborts = [&](tfa::AbortCause cause) {
    return ratio(w.aborts_root[static_cast<std::size_t>(cause)], w.commits_root);
  };
  const double round_trip_us = echo_us(sim_us(1), sim_us(2), 3000).first;
  const double overshoot_us = echo_us(sim_us(50), sim_us(50), 2000).second;
  return {
      {"runtime.commits_per_s", median(commits_per_s), "1/s"},
      {"runtime.attempts_per_commit", ratio(static_cast<double>(attempts), commits), "1/commit"},
      {"runtime.latency_p90_ms", ms(percentile(latency, 90)), "ms"},
      {"runtime.latency_p99_ms", ms(percentile(latency, 99)), "ms"},
      {"runtime.latency_max_ms", ms(percentile(latency, 100)), "ms"},
      {"runtime.stalled_txns", static_cast<double>(stalled), "count"},
      {"runtime.client_commit_share_min", median(share_min), "ratio"},
      {"runtime.host_cpu_ms_per_commit", median(cpu_ms_per_commit), "ms"},
      {"tfa.exec_ms_per_attempt", ratio(exec_ms, static_cast<double>(spans)), "ms"},
      {"tfa.commit_ms", ratio(commit_ms, commits), "ms"},
      {"tfa.wasted_ms_per_commit", ratio(wasted_ms, commits), "ms"},
      {"tfa.retry_gap_ms", ratio(gap_ms, static_cast<double>(gaps)), "ms"},
      {"tfa.aborts.early_validation_per_commit", aborts(tfa::AbortCause::kEarlyValidation),
       "1/commit"},
      {"tfa.aborts.scheduler_denied_per_commit", aborts(tfa::AbortCause::kSchedulerDenied),
       "1/commit"},
      {"tfa.aborts.backoff_expired_per_commit", aborts(tfa::AbortCause::kBackoffExpired),
       "1/commit"},
      {"tfa.aborts.lock_conflict_per_commit", aborts(tfa::AbortCause::kLockConflict), "1/commit"},
      {"tfa.aborts.watchdog_per_commit", aborts(tfa::AbortCause::kWatchdog), "1/commit"},
      {"tfa.nested_abort_rate", w.nested_abort_rate(), "ratio"},
      {"tfa.nested_commits_per_commit", ratio(w.nested_commits, w.commits_root), "1/commit"},
      {"tfa.forwardings_per_commit", ratio(w.forwardings, w.commits_root), "1/commit"},
      {"core.conflicts_per_commit", ratio(w.conflicts_seen, w.commits_root), "1/commit"},
      {"core.enqueued_per_commit", ratio(w.enqueued, w.commits_root), "1/commit"},
      {"core.handoff_ratio", ratio(w.handoffs_received, w.enqueued), "ratio"},
      {"core.backoff_expired_ratio", ratio(w.backoff_expired, w.enqueued), "ratio"},
      {"core.queued_after_quiesce", static_cast<double>(queued), "count"},
      {"core.on_conflict_ns", on_conflict_ns(), "ns"},
      {"dsm.wrong_owner_retries_per_commit", ratio(w.wrong_owner_retries, w.commits_root),
       "1/commit"},
      {"dsm.object_payloads_per_commit", ratio(net.object_payloads, w.commits_root), "1/commit"},
      {"dsm.store_lock_unlock_ns", store_lock_unlock_ns(), "ns"},
      {"net.messages_per_commit", ratio(net.messages, w.commits_root), "1/commit"},
      {"net.bytes_per_commit", ratio(net.bytes, w.commits_root), "B/commit"},
      {"net.rpc_retries_per_commit", ratio(w.rpc_retries, w.commits_root), "1/commit"},
      {"net.round_trip_us", round_trip_us, "us"},
      {"net.delay_overshoot_us", overshoot_us, "us"},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: rtsbench --workload=<ll-read|bank-hot|dht-write> --seed=N "
               "--seconds=S --trace=<0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = Config::from_args(argc, argv);
  const std::string name = cli.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::int64_t seconds = cli.get_int("seconds", 0);
  const std::int64_t trace = cli.get_int("trace", -1);
  const Spec* spec = nullptr;
  for (const auto& s : kSpecs)
    if (name == s.name) spec = &s;
  if (!spec || seconds < 1 || seconds > 600 || (trace != 0 && trace != 1)) return usage();
  const bool traced = trace == 1;

#ifdef NDEBUG
  constexpr int kNdebug = 1;
#else
  constexpr int kNdebug = 0;
#endif
  std::printf("build: optimized=%d ndebug=%d lock_rank=%d\n", kOptimized ? 1 : 0, kNdebug,
              kLockRank ? 1 : 0);
  if (!kOptimized) {
    std::fprintf(stderr, "rtsbench: refusing to measure an unoptimised build\n");
    return 3;
  }

  runtime::ClusterConfig ccfg;
  ccfg.nodes = kNodes;
  ccfg.workers_per_node = 0;
  ccfg.scheduler.kind = "rts";
  ccfg.scheduler.cl_threshold = kClThreshold;
  ccfg.topology.seed = kTopologySeed;
  ccfg.seed = kTopologySeed;

  workloads::WorkloadConfig wcfg;
  wcfg.read_ratio = spec->read_ratio;
  wcfg.objects_per_node = spec->objects_per_node;
  wcfg.max_nested = 4;
  wcfg.local_work = sim_us(300);
  wcfg.seed = seed;
  for (SimDuration* d :
       {&ccfg.topology.min_delay, &ccfg.topology.max_delay, &ccfg.topology.local_delay,
        &ccfg.scheduler.min_backoff, &ccfg.scheduler.max_backoff,
        &ccfg.scheduler.contention_window, &ccfg.scheduler.handoff_slack,
        &ccfg.tfa.default_expected_duration, &ccfg.tfa.default_validation_hold,
        &ccfg.tfa.grant_ack_timeout, &ccfg.rpc.base_timeout, &ccfg.rpc.max_timeout,
        &wcfg.local_work})
    *d *= kTimeScale;

  const std::int64_t episodes_n = std::max<std::int64_t>(1, seconds / kEpisodeSeconds);
  const SimDuration window = sim_ms(seconds * 1000) / episodes_n;
  std::uint64_t seed_state = seed;
  std::vector<Episode> episodes;
  for (std::int64_t e = 0; e < episodes_n; ++e)
    episodes.push_back(run_episode(ccfg, *spec, wcfg, seed_state, window, traced));

  std::printf(
      "workload: %s (%s, read_ratio %.1f, %d objects/node) nodes=%u clients=%u policy=rts "
      "cl_threshold=%u time_scale=%lld seed=%llu episodes=%lld x %.3fs\n",
      spec->name, spec->workload, spec->read_ratio, spec->objects_per_node, kNodes, kNodes,
      kClThreshold, static_cast<long long>(kTimeScale), static_cast<unsigned long long>(seed),
      static_cast<long long>(episodes_n), ms(window) * 1e-3);

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<SimDuration> latency;
  std::vector<double> setup_s;
  // Per-episode figures. An episode now and then stalls in a bank-hot regime
  // or meets a host hiccup; the median over episodes keeps one such episode
  // from moving the run's figure.
  std::vector<double> ep_commits_per_s;
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    const auto& ep = episodes[e];
    correct &= ep.ok();
    std::printf(
        "episode %zu checks: verify=%s queued=%zu rpc_retries=%llu dedup_hits=%llu "
        "watchdog_aborts=%llu client_commits=%llu runtime_commits=%llu client_p50_ms=%.4f "
        "runtime_p50_ms=%.4f -> %s\n",
        e, ep.verified ? "ok" : "FAILED", ep.queued,
        static_cast<unsigned long long>(ep.lifetime.rpc_retries),
        static_cast<unsigned long long>(ep.lifetime.dedup_hits),
        static_cast<unsigned long long>(ep.lifetime.watchdog_aborts),
        static_cast<unsigned long long>(ep.client_commits),
        static_cast<unsigned long long>(ep.lifetime.commits_root), ep.client_p50_ms,
        ep.runtime_p50_ms, ep.ok() ? "ok" : "FAILED");
    std::vector<SimDuration> ep_latency;
    for (const auto& c : ep.clients) {
      for (const auto& op : c.ops) {
        if (!ep.in_window(op)) continue;
        ++attempted;
        if (op.failed) ++failed;
        if (op.committed) ep_latency.push_back(op.returned - op.issued);
      }
    }
    const auto ep_commits = static_cast<double>(ep_latency.size());
    ep_commits_per_s.push_back(ep_commits / ep.window_s());
    std::printf(
        "episode %zu window: commits_per_s=%.2f latency_p50_ms=%.3f cpu_ms_per_commit=%.4f\n", e,
        ep_commits_per_s.back(), ms(median(ep_latency)), ratio(ep.cpu_ms, ep_commits));
    latency.insert(latency.end(), ep_latency.begin(), ep_latency.end());
    setup_s.insert(setup_s.end(), ep.setup_s.begin(), ep.setup_s.end());
  }
  std::printf("samples: %zu window commits (latency percentiles), %llu ops attempted\n",
              latency.size(), static_cast<unsigned long long>(attempted));

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"commits_per_s", median(ep_commits_per_s), "1/s"},
        {"latency_p50_ms", ms(percentile(latency, 50)), "ms"},
        {"setup_s", median(setup_s), "s"},
        // Later episodes inherit the allocator's retained memory, which
        // varies by a tenth from run to run; the first episode does not.
        {"rss_mb", episodes.front().rss_mb, "MB"},
    };
  } else {
    metrics = layer_metrics(episodes);
  }
  for (const auto& m : metrics) correct &= m.value >= 0.0;
  correct &= !latency.empty();
  // A run that fails a check counts every op it attempted as failed.
  attempted = std::max<std::uint64_t>(attempted, 1);
  print_result(correct, attempted, correct ? failed : attempted, metrics);
  return correct ? 0 : 1;
}
