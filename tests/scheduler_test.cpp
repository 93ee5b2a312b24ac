// Unit tests for the scheduler layer: Requester/RequesterList and the
// scheduler's per-object table (Alg. 1), the contention tracker, the RTS
// decision rule (Alg. 3), queue hand-off order (Alg. 4), the baselines and
// the zoo.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/contention.hpp"
#include "core/requester_list.hpp"
#include "core/scheduler.hpp"

namespace hyflow::core {
namespace {

net::QueuedRequester requester(std::uint64_t txn, net::AccessMode mode = net::AccessMode::kWrite,
                               std::uint32_t contention = 0) {
  net::QueuedRequester r;
  r.address = static_cast<NodeId>(txn % 7);
  r.txid = TxnId{txn};
  r.reply_msg_id = txn * 100;
  r.mode = mode;
  r.contention = contention;
  return r;
}

// -------------------------------------------------------- RequesterList ----

TEST(RequesterList, AddRecordsContention) {
  RequesterList list;
  EXPECT_EQ(list.contention(), 0u);
  list.add(3, requester(1));
  EXPECT_EQ(list.contention(), 3u);
  list.add(5, requester(2));
  EXPECT_EQ(list.contention(), 5u);  // Alg. 1: running value, telescoped by callers
  EXPECT_EQ(list.size(), 2u);
}

TEST(RequesterList, RemoveDuplicateByTxn) {
  RequesterList list;
  list.add(1, requester(1));
  list.add(2, requester(2));
  EXPECT_TRUE(list.remove_duplicate(TxnId{1}));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_FALSE(list.remove_duplicate(TxnId{1}));
}

TEST(RequesterList, PopHeadGroupSingleWriter) {
  RequesterList list;
  list.add(0, requester(1, net::AccessMode::kWrite));
  list.add(0, requester(2, net::AccessMode::kWrite));
  const auto group = list.pop_head_group();
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0].txid, TxnId{1});
  EXPECT_EQ(list.size(), 1u);
}

TEST(RequesterList, PopHeadGroupAllLeadingReaders) {
  // §III-B: a committed object is sent to all consecutive waiting readers
  // simultaneously.
  RequesterList list;
  list.add(0, requester(1, net::AccessMode::kRead));
  list.add(0, requester(2, net::AccessMode::kRead));
  list.add(0, requester(3, net::AccessMode::kWrite));
  list.add(0, requester(4, net::AccessMode::kRead));
  const auto group = list.pop_head_group();
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].txid, TxnId{1});
  EXPECT_EQ(group[1].txid, TxnId{2});
  EXPECT_EQ(list.size(), 2u);  // writer then trailing reader stay queued
}

TEST(RequesterList, BkResetsWhenQueueEmpties) {
  RequesterList list;
  list.add_bk(sim_ms(5));
  list.add(2, requester(1));
  EXPECT_EQ(list.bk(), sim_ms(5));
  (void)list.pop_head_group();
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.bk(), 0);
  EXPECT_EQ(list.contention(), 0u);
}

TEST(RequesterList, DrainReturnsAllInOrder) {
  RequesterList list;
  for (std::uint64_t i = 1; i <= 4; ++i) list.add(0, requester(i));
  const auto all = list.drain();
  ASSERT_EQ(all.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(all[i].txid, TxnId{i + 1});
  EXPECT_TRUE(list.empty());
}

TEST(SchedulingTable, DepthAndRemove) {
  // The scheduler's scheduling_List: one RequesterList per object, present
  // only while something is parked on it.
  SchedulerConfig cfg;
  cfg.kind = "steal-on-abort";
  Scheduler sched(cfg);
  for (std::uint64_t txn = 1; txn <= 2; ++txn) {
    ConflictContext ctx;
    ctx.oid = ObjectId{1};
    ctx.request.txid = TxnId{txn};
    ASSERT_EQ(sched.on_conflict(ctx).action, ConflictAction::kEnqueue);
  }
  EXPECT_EQ(sched.queue_depth(ObjectId{1}), 2u);
  EXPECT_EQ(sched.queue_depth(ObjectId{2}), 0u);
  EXPECT_EQ(sched.total_queued(), 2u);
  sched.remove_requester(ObjectId{1}, TxnId{1});
  sched.remove_requester(ObjectId{1}, TxnId{9});  // not parked: no-op
  EXPECT_EQ(sched.queue_depth(ObjectId{1}), 1u);
  // Popping the last entry empties the table.
  EXPECT_EQ(sched.on_object_available(ObjectId{1}).size(), 1u);
  EXPECT_EQ(sched.queue_depth(ObjectId{1}), 0u);
  EXPECT_EQ(sched.total_queued(), 0u);
}

// ---------------------------------------------------- ContentionTracker ----

TEST(ContentionTracker, CountsDistinctTransactionsInWindow) {
  ContentionTracker tracker(sim_ms(10));
  const SimTime t0 = 1000000;
  tracker.record_request(ObjectId{1}, TxnId{1}, t0);
  tracker.record_request(ObjectId{1}, TxnId{2}, t0 + sim_ms(1));
  tracker.record_request(ObjectId{1}, TxnId{1}, t0 + sim_ms(2));  // repeat
  EXPECT_EQ(tracker.local_cl(ObjectId{1}, t0 + sim_ms(3)), 2u);
  EXPECT_EQ(tracker.local_cl(ObjectId{2}, t0), 0u);
}

TEST(ContentionTracker, WindowExpires) {
  ContentionTracker tracker(sim_ms(10));
  const SimTime t0 = 1000000;
  tracker.record_request(ObjectId{1}, TxnId{1}, t0);
  tracker.record_request(ObjectId{1}, TxnId{2}, t0 + sim_ms(8));
  EXPECT_EQ(tracker.local_cl(ObjectId{1}, t0 + sim_ms(9)), 2u);
  EXPECT_EQ(tracker.local_cl(ObjectId{1}, t0 + sim_ms(15)), 1u);  // txn 1 aged out
  EXPECT_EQ(tracker.local_cl(ObjectId{1}, t0 + sim_ms(30)), 0u);
}

TEST(ContentionTracker, RepeatRefreshesWindow) {
  ContentionTracker tracker(sim_ms(10));
  const SimTime t0 = 1000000;
  tracker.record_request(ObjectId{1}, TxnId{1}, t0);
  tracker.record_request(ObjectId{1}, TxnId{1}, t0 + sim_ms(8));
  EXPECT_EQ(tracker.local_cl(ObjectId{1}, t0 + sim_ms(15)), 1u);  // still fresh
}

TEST(ContentionTracker, RefreshKeepsExpiryOrder) {
  // A repeat moves its sample behind younger ones: txn 2's sample expires
  // on time although txn 1's refreshed sample is still live.
  ContentionTracker tracker(sim_ms(10));
  const SimTime t0 = 1000000;
  tracker.record_request(ObjectId{1}, TxnId{1}, t0);
  tracker.record_request(ObjectId{1}, TxnId{2}, t0 + sim_ms(1));
  tracker.record_request(ObjectId{1}, TxnId{1}, t0 + sim_ms(8));
  EXPECT_EQ(tracker.local_cl(ObjectId{1}, t0 + sim_ms(15)), 1u);
}

TEST(ContentionTracker, ForgetDropsObject) {
  ContentionTracker tracker(sim_ms(10));
  tracker.record_request(ObjectId{1}, TxnId{1}, 1000);
  tracker.forget(ObjectId{1});
  EXPECT_EQ(tracker.local_cl(ObjectId{1}, 2000), 0u);
}

// ------------------------------------------------------------------ RTS ----

SchedulerConfig rts_config(std::uint32_t threshold = 3) {
  SchedulerConfig cfg;
  cfg.kind = "rts";
  cfg.cl_threshold = threshold;
  cfg.handoff_slack = sim_ms(1);
  return cfg;
}

ConflictContext conflict(std::uint64_t txn, SimDuration exec_so_far,
                         std::uint32_t requester_cl = 0,
                         SimDuration validator_remaining = sim_ms(1)) {
  ConflictContext ctx;
  ctx.oid = ObjectId{1};
  ctx.requester_node = 2;
  ctx.request_msg_id = txn * 10;
  ctx.request.oid = ObjectId{1};
  ctx.request.txid = TxnId{txn};
  ctx.request.mode = net::AccessMode::kWrite;
  ctx.request.requester_cl = requester_cl;
  ctx.request.ets.start = 1000000;
  ctx.request.ets.request = 1000000 + exec_so_far;
  ctx.request.ets.expected_commit = ctx.request.ets.request + sim_ms(4);
  ctx.validator_remaining = validator_remaining;
  ctx.now = ctx.request.ets.request;
  return ctx;
}

TEST(RtsScheduler, ShortTransactionAborts) {
  Scheduler rts(rts_config());
  // Execution so far (0.5ms) below the wait ahead (1ms validator remaining).
  const auto d = rts.on_conflict(conflict(1, sim_us(500)));
  EXPECT_EQ(d.action, ConflictAction::kAbort);
  EXPECT_EQ(rts.queue_depth(ObjectId{1}), 0u);
}

TEST(RtsScheduler, LongTransactionLowContentionEnqueues) {
  Scheduler rts(rts_config());
  const auto d = rts.on_conflict(conflict(1, sim_ms(10)));
  EXPECT_EQ(d.action, ConflictAction::kEnqueue);
  EXPECT_GE(d.backoff, sim_ms(1));  // at least the validator remaining
  EXPECT_EQ(rts.queue_depth(ObjectId{1}), 1u);
}

TEST(RtsScheduler, HighContentionAborts) {
  Scheduler rts(rts_config(/*threshold=*/3));
  const auto d = rts.on_conflict(conflict(1, sim_ms(10), /*requester_cl=*/5));
  EXPECT_EQ(d.action, ConflictAction::kAbort);
}

TEST(RtsScheduler, QueueContentionAccumulates) {
  Scheduler rts(rts_config(/*threshold=*/4));
  EXPECT_EQ(rts.on_conflict(conflict(1, sim_ms(50), 2)).action, ConflictAction::kEnqueue);
  // Queue contention (2) + requester CL (2) hits the threshold: abort.
  EXPECT_EQ(rts.on_conflict(conflict(2, sim_ms(50), 2)).action, ConflictAction::kAbort);
  // A low-CL late arrival with enough age still gets in behind the queue.
  const auto d = rts.on_conflict(conflict(3, sim_ms(50), 0));
  EXPECT_EQ(d.action, ConflictAction::kEnqueue);
  EXPECT_EQ(rts.queue_depth(ObjectId{1}), 2u);
}

TEST(RtsScheduler, LaterArrivalsWaitLonger) {
  Scheduler rts(rts_config(/*threshold=*/10));
  const auto first = rts.on_conflict(conflict(1, sim_ms(50)));
  const auto second = rts.on_conflict(conflict(2, sim_ms(60)));
  ASSERT_EQ(first.action, ConflictAction::kEnqueue);
  ASSERT_EQ(second.action, ConflictAction::kEnqueue);
  EXPECT_GT(second.backoff, first.backoff);  // waits behind txn 1 as well
}

TEST(RtsScheduler, DuplicateRequesterReplaced) {
  Scheduler rts(rts_config());
  ASSERT_EQ(rts.on_conflict(conflict(1, sim_ms(10))).action, ConflictAction::kEnqueue);
  // Same transaction re-requests (its backoff expired): still one entry.
  ASSERT_EQ(rts.on_conflict(conflict(1, sim_ms(20))).action, ConflictAction::kEnqueue);
  EXPECT_EQ(rts.queue_depth(ObjectId{1}), 1u);
}

TEST(RtsScheduler, HandoffAndQueueTransfer) {
  Scheduler rts(rts_config(/*threshold=*/10));
  rts.on_conflict(conflict(1, sim_ms(50)));
  rts.on_conflict(conflict(2, sim_ms(60)));
  // Ownership transfer drains the queue...
  auto moved = rts.extract_queue(ObjectId{1});
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(rts.queue_depth(ObjectId{1}), 0u);
  // ... and the new owner's scheduler absorbs it, preserving order.
  Scheduler new_owner(rts_config(10));
  new_owner.absorb_queue(ObjectId{1}, std::move(moved));
  const auto group = new_owner.on_object_available(ObjectId{1});
  ASSERT_EQ(group.size(), 1u);  // head writer only
  EXPECT_EQ(group[0].txid, TxnId{1});
  EXPECT_EQ(new_owner.queue_depth(ObjectId{1}), 1u);
}

TEST(RtsScheduler, RemoveRequesterOnNotInterested) {
  Scheduler rts(rts_config(/*threshold=*/10));
  rts.on_conflict(conflict(1, sim_ms(50)));
  rts.on_conflict(conflict(2, sim_ms(60)));
  rts.remove_requester(ObjectId{1}, TxnId{1});
  const auto group = rts.on_object_available(ObjectId{1});
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0].txid, TxnId{2});
}

// ------------------------------------------------------------ Baselines ----

TEST(TfaScheduler, AlwaysAborts) {
  SchedulerConfig cfg;
  cfg.kind = "tfa";
  Scheduler tfa(cfg);
  const auto d = tfa.on_conflict(conflict(1, sim_ms(100)));
  EXPECT_EQ(d.action, ConflictAction::kAbort);
  EXPECT_EQ(d.backoff, 0);
  EXPECT_TRUE(tfa.extract_queue(ObjectId{1}).empty());
}

TEST(BackoffScheduler, AbortsWithStall) {
  SchedulerConfig cfg;
  cfg.kind = "backoff";
  Scheduler backoff(cfg);
  const auto d = backoff.on_conflict(conflict(1, sim_ms(10)));
  EXPECT_EQ(d.action, ConflictAction::kAbortWithStall);
  EXPECT_EQ(d.backoff, sim_ms(4));  // ETS.c - ETS.r
}

TEST(BackoffScheduler, StallClamped) {
  SchedulerConfig cfg;
  cfg.kind = "backoff";
  cfg.min_backoff = sim_ms(2);
  cfg.max_backoff = sim_ms(3);
  Scheduler backoff(cfg);
  EXPECT_EQ(backoff.on_conflict(conflict(1, sim_ms(10))).backoff, sim_ms(3));
}

TEST(SchedulerFactory, MakesAllKinds) {
  SchedulerConfig cfg;
  cfg.kind = "rts";
  EXPECT_STREQ(Scheduler(cfg).name(), "rts");
  cfg.kind = "tfa";
  EXPECT_STREQ(Scheduler(cfg).name(), "tfa");
  cfg.kind = "backoff";
  EXPECT_STREQ(Scheduler(cfg).name(), "tfa+backoff");
  cfg.kind = "tfa+backoff";
  EXPECT_STREQ(Scheduler(cfg).name(), "tfa+backoff");
  cfg.kind = "bi";
  EXPECT_STREQ(Scheduler(cfg).name(), "bi-interval");
  cfg.kind = "greedy";
  EXPECT_STREQ(Scheduler(cfg).name(), "greedy");
  cfg.kind = "polka";
  EXPECT_STREQ(Scheduler(cfg).name(), "karma");
  cfg.kind = "steal";
  EXPECT_STREQ(Scheduler(cfg).name(), "steal-on-abort");
}

TEST(SchedulerFactory, NamesCoverTheZoo) {
  const auto names = scheduler_names();
  EXPECT_GE(names.size(), 7u);
  for (const char* expected : {"rts", "tfa", "backoff", "bi-interval", "greedy", "karma",
                               "steal-on-abort"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing policy: " << expected;
  }
  for (const auto& name : names) EXPECT_EQ(canonical_scheduler_name(name), name);
  EXPECT_EQ(canonical_scheduler_name("bi"), "bi-interval");
  EXPECT_EQ(canonical_scheduler_name("polka"), "karma");
  EXPECT_EQ(canonical_scheduler_name("no-such-policy"), "");
}

using SchedulerFactoryDeathTest = ::testing::Test;

TEST(SchedulerFactoryDeathTest, UnknownKindDiesListingValidNames) {
  SchedulerConfig cfg;
  cfg.kind = "rst";  // plausible typo for "rts"
  EXPECT_DEATH(Scheduler{cfg},
               "unknown scheduler kind 'rst'.*rts.*tfa.*backoff.*bi-interval.*greedy.*"
               "karma.*steal-on-abort");
}

// ----------------------------------------------------- zoo challengers ----

// Like conflict(), but with an explicit first-attempt start so timestamp /
// investment policies see distinct transaction identities and ages.
ConflictContext conflict_from(std::uint64_t txn, SimTime start, SimDuration exec_so_far,
                              net::AccessMode mode = net::AccessMode::kWrite) {
  ConflictContext ctx = conflict(txn, exec_so_far);
  ctx.request.mode = mode;
  ctx.request.ets.start = start;
  ctx.request.ets.request = start + exec_so_far;
  ctx.request.ets.expected_commit = ctx.request.ets.request + sim_ms(4);
  ctx.now = ctx.request.ets.request;
  return ctx;
}

SchedulerConfig zoo_config(const char* kind, std::uint32_t max_queue = 16) {
  SchedulerConfig cfg;
  cfg.kind = kind;
  cfg.max_queue = max_queue;
  cfg.handoff_slack = sim_ms(1);
  return cfg;
}

TEST(GreedyScheduler, OldestServedFirstRegardlessOfArrival) {
  Scheduler greedy(zoo_config("greedy"));
  // Younger (later start) arrives first, older second.
  EXPECT_EQ(greedy.on_conflict(conflict_from(1, 2000000, sim_ms(5))).action,
            ConflictAction::kEnqueue);
  EXPECT_EQ(greedy.on_conflict(conflict_from(2, 1000000, sim_ms(5))).action,
            ConflictAction::kEnqueue);
  const auto group = greedy.on_object_available(ObjectId{1});
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0].txid, TxnId{2});  // the older transaction wins
}

TEST(GreedyScheduler, EveryConflictParksBelowCap) {
  Scheduler greedy(zoo_config("greedy", /*max_queue=*/3));
  for (std::uint64_t txn = 1; txn <= 3; ++txn) {
    EXPECT_EQ(greedy.on_conflict(conflict_from(txn, 1000000 + txn, sim_us(10))).action,
              ConflictAction::kEnqueue);
  }
  // At the cap even a very old newcomer aborts (and will retry with its
  // timestamp intact).
  EXPECT_EQ(greedy.on_conflict(conflict_from(9, 1, sim_ms(50))).action,
            ConflictAction::kAbort);
  EXPECT_EQ(greedy.queue_depth(ObjectId{1}), 3u);
}

TEST(GreedyScheduler, AbsorbKeepsTimestampOrder) {
  Scheduler old_owner(zoo_config("greedy"));
  old_owner.on_conflict(conflict_from(1, 3000000, sim_ms(5)));
  old_owner.on_conflict(conflict_from(2, 1000000, sim_ms(5)));
  Scheduler new_owner(zoo_config("greedy"));
  new_owner.on_conflict(conflict_from(3, 2000000, sim_ms(5)));
  new_owner.absorb_queue(ObjectId{1}, old_owner.extract_queue(ObjectId{1}));
  // Served oldest-first across both origins: 2 (t=1ms), 3 (t=2ms), 1 (t=3ms).
  EXPECT_EQ(new_owner.on_object_available(ObjectId{1})[0].txid, TxnId{2});
  EXPECT_EQ(new_owner.on_object_available(ObjectId{1})[0].txid, TxnId{3});
  EXPECT_EQ(new_owner.on_object_available(ObjectId{1})[0].txid, TxnId{1});
}

TEST(KarmaScheduler, UnderInvestedLosesWithRandomizedStallAndGainsKarma) {
  auto cfg = zoo_config("karma");
  Scheduler karma(cfg);
  // A heavy investor parks first.
  ASSERT_EQ(karma.on_conflict(conflict_from(1, 1000000, sim_ms(20))).action,
            ConflictAction::kEnqueue);
  // A light newcomer loses: abort + stall, and its loss streak rises.
  const auto d = karma.on_conflict(conflict_from(2, 5000000, sim_us(100)));
  EXPECT_EQ(d.action, ConflictAction::kAbortWithStall);
  EXPECT_GE(d.backoff, cfg.min_backoff);
  EXPECT_LE(d.backoff, cfg.max_backoff);
  EXPECT_EQ(karma.loss_streak(2, 5000000), 1u);
  EXPECT_EQ(karma.queue_depth(ObjectId{1}), 1u);
}

TEST(KarmaScheduler, RepeatLoserEventuallyWins) {
  auto cfg = zoo_config("karma");
  Scheduler karma(cfg);
  ASSERT_EQ(karma.on_conflict(conflict_from(1, 1000000, sim_ms(50))).action,
            ConflictAction::kEnqueue);
  // The same light transaction keeps losing; each loss boosts its karma
  // until it out-ranks the queue and parks.
  int attempts = 0;
  ConflictDecision d{};
  do {
    d = karma.on_conflict(conflict_from(2, 5000000, sim_us(100)));
    ++attempts;
    ASSERT_LT(attempts, 200) << "karma boost never overcame the queue";
  } while (d.action == ConflictAction::kAbortWithStall);
  EXPECT_EQ(d.action, ConflictAction::kEnqueue);
  EXPECT_EQ(karma.loss_streak(2, 5000000), 0u);  // streak forgotten on win
  EXPECT_EQ(karma.queue_depth(ObjectId{1}), 2u);
}

TEST(KarmaScheduler, BiggestInvestmentServedFirst) {
  Scheduler karma(zoo_config("karma"));
  ASSERT_EQ(karma.on_conflict(conflict_from(1, 1000000, sim_ms(5))).action,
            ConflictAction::kEnqueue);
  ASSERT_EQ(karma.on_conflict(conflict_from(2, 2000000, sim_ms(30))).action,
            ConflictAction::kEnqueue);
  const auto group = karma.on_object_available(ObjectId{1});
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0].txid, TxnId{2});  // 30ms invested beats 5ms
}

TEST(StealOnAbortScheduler, FifoAndCap) {
  Scheduler steal(zoo_config("steal-on-abort", /*max_queue=*/2));
  EXPECT_EQ(steal.on_conflict(conflict_from(1, 1000000, sim_us(10))).action,
            ConflictAction::kEnqueue);
  EXPECT_EQ(steal.on_conflict(conflict_from(2, 500000, sim_ms(50))).action,
            ConflictAction::kEnqueue);
  EXPECT_EQ(steal.on_conflict(conflict_from(3, 1, sim_ms(90))).action,
            ConflictAction::kAbort);  // cap; age does not matter
  // Strict arrival order, no reordering by age or investment.
  EXPECT_EQ(steal.on_object_available(ObjectId{1})[0].txid, TxnId{1});
  EXPECT_EQ(steal.on_object_available(ObjectId{1})[0].txid, TxnId{2});
}

TEST(StealOnAbortScheduler, StolenRequestersQueueBehindTheWinners) {
  Scheduler loser(zoo_config("steal-on-abort"));
  loser.on_conflict(conflict_from(1, 1000000, sim_ms(5)));
  loser.on_conflict(conflict_from(2, 1000001, sim_ms(5)));
  Scheduler winner(zoo_config("steal-on-abort"));
  winner.on_conflict(conflict_from(3, 1000002, sim_ms(5)));
  winner.absorb_queue(ObjectId{1}, loser.extract_queue(ObjectId{1}));
  // The winner's own requester is served before the stolen ones.
  EXPECT_EQ(winner.on_object_available(ObjectId{1})[0].txid, TxnId{3});
  EXPECT_EQ(winner.on_object_available(ObjectId{1})[0].txid, TxnId{1});
  EXPECT_EQ(winner.on_object_available(ObjectId{1})[0].txid, TxnId{2});
}

// Serving bi-interval's reading interval must not reset `bk` while writers
// stay parked ("reset when the queue empties"): the next arrival waits
// behind them exactly as under the head-group policies — validator 0.2 ms +
// bk 8 ms (R1's and W2's expected 4 ms each) + hand-off slack 6 ms.
TEST(BiIntervalScheduler, ServingReadersKeepsParkedWritersInTheBackoff) {
  for (const char* kind : {"bi-interval", "rts", "steal-on-abort"}) {
    SchedulerConfig cfg;
    cfg.kind = kind;
    cfg.cl_threshold = 1000;
    Scheduler s(cfg);
    const auto request = [](std::uint64_t txn, net::AccessMode mode) {
      ConflictContext ctx = conflict_from(txn, 1000000, sim_ms(60), mode);
      ctx.validator_remaining = sim_us(200);
      return ctx;
    };
    ASSERT_EQ(s.on_conflict(request(1, net::AccessMode::kRead)).action,
              ConflictAction::kEnqueue);
    ASSERT_EQ(s.on_conflict(request(2, net::AccessMode::kWrite)).action,
              ConflictAction::kEnqueue);
    const auto served = s.on_object_available(ObjectId{1});
    ASSERT_EQ(served.size(), 1u) << kind;
    EXPECT_EQ(served[0].txid, TxnId{1}) << kind;
    const auto d = s.on_conflict(request(3, net::AccessMode::kWrite));
    ASSERT_EQ(d.action, ConflictAction::kEnqueue) << kind;
    EXPECT_EQ(d.backoff, sim_us(14200)) << kind;
  }
}

// --------------------------------------- policy-parameterized coverage ----
//
// Every registered policy — present and future — passes this block; it is
// instantiated straight from the factory's name list, so adding a row to
// the registry automatically adds coverage (the deep queue-protocol
// invariants live in tests/scheduler_conformance_test.cpp).

class SchedulerPolicyTest : public ::testing::TestWithParam<std::string> {
 protected:
  SchedulerConfig config() const {
    SchedulerConfig cfg;
    cfg.kind = GetParam();
    cfg.cl_threshold = 8;
    cfg.max_queue = 8;
    cfg.handoff_slack = sim_ms(1);
    return cfg;
  }
  std::unique_ptr<Scheduler> make() const { return std::make_unique<Scheduler>(config()); }
};

TEST_P(SchedulerPolicyTest, FactoryRoundTrip) {
  auto s = make();
  ASSERT_NE(s, nullptr);
  EXPECT_STRNE(s->name(), "");
}

TEST_P(SchedulerPolicyTest, DecisionIsWellFormedAndQueueConsistent) {
  auto s = make();
  const auto d = s->on_conflict(conflict_from(1, 1000000, sim_ms(20)));
  EXPECT_GE(d.backoff, 0);
  if (d.action == ConflictAction::kEnqueue) {
    EXPECT_EQ(s->queue_depth(ObjectId{1}), 1u);
    EXPECT_EQ(s->total_queued(), 1u);
  } else {
    EXPECT_EQ(s->queue_depth(ObjectId{1}), 0u);
    EXPECT_EQ(s->total_queued(), 0u);
  }
}

TEST_P(SchedulerPolicyTest, ReRequestNeverDoubleQueues) {
  auto s = make();
  for (int attempt = 0; attempt < 3; ++attempt) {
    s->on_conflict(conflict_from(1, 1000000, sim_ms(20) + sim_ms(10) * attempt));
    EXPECT_LE(s->queue_depth(ObjectId{1}), 1u) << "attempt " << attempt;
  }
}

TEST_P(SchedulerPolicyTest, ExtractAbsorbConservesRequesters) {
  auto old_owner = make();
  std::set<std::uint64_t> parked;
  for (std::uint64_t txn = 1; txn <= 6; ++txn) {
    const auto mode = txn % 3 == 0 ? net::AccessMode::kRead : net::AccessMode::kWrite;
    if (old_owner->on_conflict(conflict_from(txn, 1000000 + txn * 1000, sim_ms(30), mode))
            .action == ConflictAction::kEnqueue) {
      parked.insert(txn);
    }
  }
  ASSERT_EQ(old_owner->total_queued(), parked.size());

  auto moved = old_owner->extract_queue(ObjectId{1});
  EXPECT_EQ(old_owner->queue_depth(ObjectId{1}), 0u);
  std::set<std::uint64_t> moved_txns;
  for (const auto& r : moved) moved_txns.insert(r.txid.value);
  EXPECT_EQ(moved_txns, parked);  // nothing lost, nothing invented

  auto new_owner = make();
  new_owner->absorb_queue(ObjectId{1}, std::move(moved));
  EXPECT_EQ(new_owner->total_queued(), parked.size());

  // Drain: every parked requester is served exactly once.
  std::set<std::uint64_t> served;
  while (new_owner->total_queued() > 0) {
    const auto group = new_owner->on_object_available(ObjectId{1});
    ASSERT_FALSE(group.empty()) << "queue non-empty but nothing served";
    for (const auto& r : group) EXPECT_TRUE(served.insert(r.txid.value).second);
  }
  EXPECT_EQ(served, parked);
}

TEST_P(SchedulerPolicyTest, RemoveRequesterDropsExactlyThatEntry) {
  auto s = make();
  std::set<std::uint64_t> parked;
  for (std::uint64_t txn = 1; txn <= 3; ++txn) {
    if (s->on_conflict(conflict_from(txn, 1000000 + txn, sim_ms(30))).action ==
        ConflictAction::kEnqueue) {
      parked.insert(txn);
    }
  }
  s->remove_requester(ObjectId{1}, TxnId{2});
  parked.erase(2);
  EXPECT_EQ(s->total_queued(), parked.size());
  std::set<std::uint64_t> served;
  while (s->total_queued() > 0) {
    for (const auto& r : s->on_object_available(ObjectId{1})) served.insert(r.txid.value);
  }
  EXPECT_EQ(served, parked);
}

INSTANTIATE_TEST_SUITE_P(Zoo, SchedulerPolicyTest, ::testing::ValuesIn(scheduler_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-' || c == '+') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace hyflow::core
