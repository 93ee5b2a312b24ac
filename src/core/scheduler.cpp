#include "core/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/log.hpp"

namespace hyflow::core {

namespace {

// What an admission rule sees, under the scheduler's mutex: the conflict, the
// object's list (already purged of the requester's stale entry), the config
// and Karma's loss book.
struct Admission {
  const ConflictContext& ctx;
  const RequesterList& list;
  const SchedulerConfig& cfg;
  Scheduler::LossBook& losses;
};

// An admission rule's verdict: refuse with `decision`, or park (kEnqueue)
// at `rank` — lower is served first, equal ranks in arrival order.
struct Verdict {
  ConflictDecision decision;
  std::uint64_t rank = 0;

  static Verdict abort() { return {{ConflictAction::kAbort, 0}}; }
  static Verdict stall(SimDuration d) { return {{ConflictAction::kAbortWithStall, d}}; }
  static Verdict park(std::uint64_t rank) { return {{ConflictAction::kEnqueue, 0}, rank}; }
};

// The requester's expected remaining execution (ETS.c - ETS.r), clamped.
SimDuration expected_rest(const ConflictContext& ctx, const SchedulerConfig& cfg) {
  return std::clamp<SimDuration>(ctx.request.ets.expected_commit - ctx.request.ets.request,
                                 cfg.min_backoff, cfg.max_backoff);
}

// RTS, Alg. 3: a losing parent transaction parks — keeping every object it
// fetched and the commits of its closed-nested children — unless it has run
// no longer than the wait ahead or the contention is high (enqueuing then
// only lengthens the convoy). The object's window CL (ctx.local_cl) reaches
// later requesters through the myCL piggyback (the paper's o1/o2/o3 case).
Verdict admit_rts(const Admission& a) {
  // Alg. 3 line 11 / Fig. 3: the wait ahead — the validator's remaining
  // time (|t7 - t4|) plus everything queued (`bk`) — must be shorter than
  // the execution so far; a short transaction loses less by restarting.
  const SimDuration wait_ahead = a.ctx.validator_remaining + a.list.bk();
  const SimDuration exec_so_far = a.ctx.request.ets.request - a.ctx.request.ets.start;
  if (wait_ahead >= exec_so_far) return Verdict::abort();
  // Alg. 3 lines 12-13: contention = queue CL + requester's myCL.
  const std::uint32_t contention = a.list.contention() + a.ctx.request.requester_cl;
  return contention >= a.cfg.cl_threshold ? Verdict::abort() : Verdict::park(0);
}

// The park-everything policies: no execution-time or CL admission (that
// contrast isolates RTS's reactive rule), only a queue cap.
Verdict park_below(std::uint32_t cap, const RequesterList& list, std::uint64_t rank) {
  return list.size() >= cap ? Verdict::abort() : Verdict::park(rank);
}

// Polka: uniform draw from a window doubling per consecutive loss.
SimDuration draw_stall(std::uint32_t losses, const SchedulerConfig& cfg, Xoshiro256& rng) {
  const std::uint32_t exponent = std::min<std::uint32_t>(losses, 10);
  const SimDuration window =
      std::min<SimDuration>(cfg.min_backoff << exponent, cfg.max_backoff);
  const auto lo = static_cast<std::uint64_t>(cfg.min_backoff);
  const auto hi = static_cast<std::uint64_t>(std::max<SimDuration>(window, cfg.min_backoff));
  return static_cast<SimDuration>(lo + rng.below(hi - lo + 1));
}

// Karma/Polka (Scherer & Scott, PODC 2005): the rank is the inverted work
// invested since the first attempt (ETS.r - ETS.s) plus one hand-off slack
// of karma per consecutive loss, so the biggest investor is served first and
// the list's tail is the bar a newcomer must clear. A loser (under-invested,
// or queue full) aborts with a randomized exponentially-growing stall, and
// its karma rises until it clears the bar.
Verdict admit_karma(const Admission& a) {
  auto& streaks = a.losses.streaks;
  const std::pair key{a.ctx.requester_node, a.ctx.request.ets.start};
  const auto it = streaks.find(key);
  const std::uint32_t losses = it == streaks.end() ? 0 : it->second;
  const SimDuration invested = a.ctx.request.ets.request - a.ctx.request.ets.start +
                               static_cast<SimDuration>(losses) * a.cfg.handoff_slack;
  const std::uint64_t rank = ~static_cast<std::uint64_t>(std::max<SimDuration>(invested, 0));
  if (a.list.size() >= a.cfg.max_queue || (!a.list.empty() && rank > a.list.tail_priority())) {
    if (streaks.size() > 4096) streaks.clear();  // crude bound; streaks re-learn
    streaks[key] = losses + 1;
    return Verdict::stall(draw_stall(losses + 1, a.cfg, a.losses.rng));
  }
  streaks.erase(key);
  return Verdict::park(rank);
}

}  // namespace

struct SchedulerPolicy {
  const char* canonical;
  const char* alias;  // nullptr = none
  const char* name;   // Scheduler::name()
  Verdict (*admit)(const Admission&);
  bool readers_first;  // pop rule: bi-interval's reading interval
};

namespace {

// Bench-sweep order: the paper's three, then the extension baselines and
// the classic contention-manager challengers. Adding a policy = one row;
// the conformance suite parameterizes over scheduler_names().
constexpr SchedulerPolicy kPolicies[] = {
    {"rts", nullptr, "rts", admit_rts, false},
    // Plain TFA: the loser aborts and re-fetches everything (§IV-C).
    {"tfa", nullptr, "tfa", [](const Admission&) { return Verdict::abort(); }, false},
    // TFA+Backoff (§IV-C): abort, stall for the expected rest, re-fetch.
    {"backoff", "tfa+backoff", "tfa+backoff",
     [](const Admission& a) { return Verdict::stall(expected_rest(a.ctx, a.cfg)); }, false},
    // Bi-interval (Kim & Ravindran, SSS 2010, ref [17]): FIFO, capped by
    // cl_threshold; every queued reader is released together.
    {"bi-interval", "bi", "bi-interval",
     [](const Admission& a) { return park_below(a.cfg.cl_threshold, a.list, 0); }, true},
    // Greedy (Guerraoui et al., PODC 2005): ranked by first-attempt start,
    // so the oldest transaction is served first and never starves.
    {"greedy", nullptr, "greedy",
     [](const Admission& a) {
       return park_below(a.cfg.max_queue, a.list,
                         static_cast<std::uint64_t>(a.ctx.request.ets.start));
     },
     false},
    {"karma", "polka", "karma", admit_karma, false},
    // Steal-on-abort (Ansari et al., HiPEAC 2009): FIFO; a stolen queue
    // handed off on commit re-parks behind the winner's own requesters.
    {"steal-on-abort", "steal", "steal-on-abort",
     [](const Admission& a) { return park_below(a.cfg.max_queue, a.list, 0); }, false},
};

const SchedulerPolicy* find_policy(const std::string& kind) {
  for (const auto& p : kPolicies)
    if (kind == p.canonical || (p.alias && kind == p.alias)) return &p;
  return nullptr;
}

const SchedulerPolicy& policy_or_die(const std::string& kind) {
  if (const SchedulerPolicy* p = find_policy(kind)) return *p;
  // A misspelled policy silently falling back to a default would corrupt
  // every result labelled with the requested name: die, with the menu.
  std::fprintf(stderr, "unknown scheduler kind '%s'; valid kinds:", kind.c_str());
  for (const auto& p : kPolicies) {
    std::fprintf(stderr, " %s", p.canonical);
    if (p.alias) std::fprintf(stderr, " (alias: %s)", p.alias);
  }
  std::fprintf(stderr, "\n");
  std::fflush(stderr);
  std::abort();
}

}  // namespace

Scheduler::Scheduler(const SchedulerConfig& cfg)
    : policy_(policy_or_die(cfg.kind)), cfg_(cfg), losses_{{}, Xoshiro256(cfg.karma_seed)} {}

const char* Scheduler::name() const { return policy_.name; }

ConflictDecision Scheduler::on_conflict(const ConflictContext& ctx) {
  MutexLock lk(mu_);
  RequesterList& list = lists_[ctx.oid];
  // Alg. 3 line 10: a requester whose backoff expired re-requests as a new
  // transaction attempt; purge its stale queue entry first.
  list.remove_duplicate(ctx.request.txid);
  const Verdict v = policy_.admit(Admission{ctx, list, cfg_, losses_});
  if (v.decision.action != ConflictAction::kEnqueue) {
    if (list.empty()) lists_.erase(ctx.oid);
    return v.decision;
  }
  // Alg. 3 lines 14-16: the assigned backoff covers the wait ahead (plus
  // slack for the hand-off hops); the requester's own expected remaining
  // execution is added to `bk` so the *next* arrival waits behind it
  // (Fig. 3: T5's backoff = |t7 - t5| + expected execution of T4). The
  // queue's CL accumulates each requester's myCL (Alg. 1 addRequester).
  const SimDuration backoff = ctx.validator_remaining + list.bk() + cfg_.handoff_slack;
  const std::uint32_t contention = list.contention() + ctx.request.requester_cl;
  list.add_bk(expected_rest(ctx, cfg_));
  list.add(contention, net::QueuedRequester{ctx.requester_node, ctx.request.txid,
                                            ctx.request_msg_id, ctx.request.mode, contention,
                                            v.rank});
  HYFLOW_DEBUG(name(), ": enqueue txn ", ctx.request.txid.value, " on object ", ctx.oid.value,
               " backoff_ns=", backoff, " contention=", contention);
  return {ConflictAction::kEnqueue, backoff};
}

std::vector<net::QueuedRequester> Scheduler::on_object_available(ObjectId oid) {
  MutexLock lk(mu_);
  const auto it = lists_.find(oid);
  if (it == lists_.end()) return {};
  auto group = policy_.readers_first ? it->second.pop_readers_first()
                                      : it->second.pop_head_group();
  if (it->second.empty()) lists_.erase(it);
  return group;
}

std::vector<net::QueuedRequester> Scheduler::extract_queue(ObjectId oid) {
  MutexLock lk(mu_);
  const auto it = lists_.find(oid);
  if (it == lists_.end()) return {};
  auto all = it->second.drain();
  lists_.erase(it);
  return all;
}

void Scheduler::absorb_queue(ObjectId oid, std::vector<net::QueuedRequester> queue) {
  if (queue.empty()) return;
  MutexLock lk(mu_);
  RequesterList& list = lists_[oid];
  for (auto& r : queue) {
    list.remove_duplicate(r.txid);
    list.add(std::max(list.contention(), r.contention), std::move(r));
  }
}

void Scheduler::remove_requester(ObjectId oid, TxnId txid) {
  MutexLock lk(mu_);
  const auto it = lists_.find(oid);
  if (it == lists_.end()) return;
  it->second.remove_duplicate(txid);
  if (it->second.empty()) lists_.erase(it);
}

std::size_t Scheduler::queue_depth(ObjectId oid) const {
  MutexLock lk(mu_);
  const auto it = lists_.find(oid);
  return it == lists_.end() ? 0 : it->second.size();
}

std::size_t Scheduler::total_queued() const {
  MutexLock lk(mu_);
  std::size_t total = 0;
  for (const auto& [oid, list] : lists_) total += list.size();
  return total;
}

std::uint32_t Scheduler::loss_streak(NodeId node, SimTime ets_start) const {
  MutexLock lk(mu_);
  const auto it = losses_.streaks.find({node, ets_start});
  return it == losses_.streaks.end() ? 0 : it->second;
}

std::unique_ptr<Scheduler> make_scheduler(const SchedulerConfig& cfg) {
  return std::make_unique<Scheduler>(cfg);
}

std::vector<std::string> scheduler_names() {
  std::vector<std::string> names;
  names.reserve(std::size(kPolicies));
  for (const auto& p : kPolicies) names.emplace_back(p.canonical);
  return names;
}

std::string canonical_scheduler_name(const std::string& kind) {
  const SchedulerPolicy* p = find_policy(kind);
  return p ? p->canonical : "";
}

}  // namespace hyflow::core
