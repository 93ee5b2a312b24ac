// Unit tests for the network substrate: topology/latency model, message
// delivery, RPC matching (single reply, double reply, orphans, shutdown),
// and transport statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "net/comm.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"

namespace hyflow::net {
namespace {

TopologyConfig fast_topology(std::uint32_t nodes) {
  TopologyConfig cfg;
  cfg.nodes = nodes;
  cfg.min_delay = sim_us(50);
  cfg.max_delay = sim_us(300);
  cfg.local_delay = sim_us(1);
  cfg.seed = 42;
  return cfg;
}

// ------------------------------------------------------------- Topology ----

TEST(Topology, DelaysSymmetricAndBounded) {
  Topology topo(fast_topology(16));
  for (NodeId i = 0; i < 16; ++i) {
    for (NodeId j = 0; j < 16; ++j) {
      const auto d = topo.delay(i, j);
      EXPECT_EQ(d, topo.delay(j, i));
      if (i == j) {
        EXPECT_EQ(d, sim_us(1));
      } else {
        EXPECT_GE(d, sim_us(50));
        EXPECT_LE(d, sim_us(300));
      }
    }
  }
}

TEST(Topology, DeterministicBySeed) {
  Topology a(fast_topology(8)), b(fast_topology(8));
  auto cfg = fast_topology(8);
  cfg.seed = 1234;
  Topology c(cfg);
  bool differs = false;
  for (NodeId i = 0; i < 8; ++i) {
    for (NodeId j = 0; j < 8; ++j) {
      EXPECT_EQ(a.delay(i, j), b.delay(i, j));
      differs |= a.delay(i, j) != c.delay(i, j);
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Topology, TriangleInequalityOnDistances) {
  Topology topo(fast_topology(10));
  for (NodeId i = 0; i < 10; ++i)
    for (NodeId j = 0; j < 10; ++j)
      for (NodeId k = 0; k < 10; ++k)
        EXPECT_LE(topo.distance(i, j), topo.distance(i, k) + topo.distance(k, j) + 1e-12);
}

TEST(Topology, FullDelayRangeUsed) {
  Topology topo(fast_topology(32));
  SimDuration lo = sim_ms(1000), hi = 0;
  for (NodeId i = 0; i < 32; ++i)
    for (NodeId j = 0; j < 32; ++j)
      if (i != j) {
        lo = std::min(lo, topo.delay(i, j));
        hi = std::max(hi, topo.delay(i, j));
      }
  EXPECT_GE(lo, sim_us(50));   // never below the configured minimum
  EXPECT_EQ(hi, sim_us(300));  // the diameter pair is pinned to the maximum
  EXPECT_LT(lo, hi);           // and the range is genuinely spread
}

// -------------------------------------------------------------- Network ----

struct TestNet {
  explicit TestNet(std::uint32_t nodes) : network(Topology(fast_topology(nodes))) {
    inboxes.resize(nodes);
    for (NodeId id = 0; id < nodes; ++id) {
      network.register_handler(id, [this, id](Message m) {
        std::scoped_lock lk(mu);
        inboxes[id].push_back(std::move(m));
      });
    }
    network.start();
  }
  // Stop (and join) the dispatcher before the members its handlers touch —
  // `mu`/`inboxes` — are destroyed; members destruct in reverse order, so
  // without this the handlers race the fixture teardown.
  ~TestNet() { network.stop(); }
  std::vector<Message> inbox(NodeId id) {
    std::scoped_lock lk(mu);
    return inboxes[id];
  }
  Network network;
  std::mutex mu;
  std::vector<std::vector<Message>> inboxes;
};

Message make_msg(NodeId from, NodeId to) {
  Message m;
  m.from = from;
  m.to = to;
  m.payload = FindOwnerRequest{ObjectId{1}};
  return m;
}

TEST(Network, DeliversToHandler) {
  TestNet net(4);
  const auto id = net.network.send(make_msg(0, 3));
  EXPECT_GT(id, 0u);
  net.network.wait_idle();
  const auto inbox = net.inbox(3);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].from, 0u);
  EXPECT_EQ(inbox[0].msg_id, id);
}

TEST(Network, PerPairFifo) {
  TestNet net(2);
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 50; ++i) sent.push_back(net.network.send(make_msg(0, 1)));
  net.network.wait_idle();
  const auto inbox = net.inbox(1);
  ASSERT_EQ(inbox.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(inbox[i].msg_id, sent[i]);
}

TEST(Network, SelfSendWorks) {
  TestNet net(2);
  net.network.send(make_msg(1, 1));
  net.network.wait_idle();
  EXPECT_EQ(net.inbox(1).size(), 1u);
}

TEST(Network, LatencyRespected) {
  TestNet net(8);
  // Find the farthest pair and check wall-clock delivery takes >= its delay.
  NodeId a = 0, b = 1;
  SimDuration best = 0;
  for (NodeId i = 0; i < 8; ++i)
    for (NodeId j = 0; j < 8; ++j)
      if (net.network.topology().delay(i, j) > best) {
        best = net.network.topology().delay(i, j);
        a = i;
        b = j;
      }
  const SimTime t0 = sim_now();
  net.network.send(make_msg(a, b));
  net.network.wait_idle();
  EXPECT_GE(sim_now() - t0, best);
}

TEST(Network, StatsCount) {
  TestNet net(3);
  for (int i = 0; i < 7; ++i) net.network.send(make_msg(0, 1));
  net.network.wait_idle();
  EXPECT_EQ(net.network.stats().messages.load(), 7u);
  EXPECT_GT(net.network.stats().bytes.load(), 0u);
}

TEST(Network, SendAfterStopDropped) {
  auto net = std::make_unique<TestNet>(2);
  net->network.stop();
  EXPECT_EQ(net->network.send(make_msg(0, 1)), 0u);
}

// Regression: stop() used to notify timer_cv_ without holding timer_mu_.
// The dispatcher's wake condition includes st.stop_requested(), which is not
// written under that mutex, so the notify could land between the
// dispatcher's check and its wait and be lost — stop() then hung joining a
// dispatcher that slept forever. Not deterministically reproducible (the
// window is a few instructions), so hammer start/stop cycles against an
// idle dispatcher: pre-fix this eventually wedges, post-fix every stop()
// returns promptly.
TEST(Network, StopWakesIdleDispatcher) {
  for (int i = 0; i < 200; ++i) {
    TestNet net(2);
    if (i % 2 == 0) {
      net.network.send(make_msg(0, 1));  // alternate idle and busy stops
      net.network.wait_idle();
    }
    net.network.stop();
  }
}

// With every link equal and no jitter, delivery order is send order across
// destinations too: the one dispatcher runs each handler as its message
// falls due. Per-node delivery lanes could reorder nodes on different lanes.
TEST(Network, HandlersRunInDueOrderAcrossNodes) {
  TopologyConfig cfg;
  cfg.nodes = 4;
  cfg.min_delay = sim_us(200);
  cfg.max_delay = sim_us(200);
  Network net{Topology(cfg)};
  std::mutex mu;
  std::vector<std::uint64_t> handled;
  for (NodeId id = 0; id < 4; ++id) {
    net.register_handler(id, [&](Message m) {
      std::scoped_lock lk(mu);
      handled.push_back(m.msg_id);
    });
  }
  net.start();
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 60; ++i) sent.push_back(net.send(make_msg(0, 1 + i % 3)));
  net.wait_idle();
  net.stop();
  EXPECT_EQ(handled, sent);
}

// The tick runs on the thread that runs the handlers, and stop() ends it:
// once stop() returns, the tick never runs again.
TEST(Network, TickRunsOnTheDispatcherUntilStop) {
  Network net{Topology(fast_topology(2))};
  std::atomic<std::thread::id> handler_thread{};
  std::atomic<int> ticks{0};
  std::atomic<int> ticks_off_dispatcher{0};
  net.register_handler(0, [](Message) {});
  net.register_handler(1, [&](Message) { handler_thread = std::this_thread::get_id(); });
  net.set_tick(sim_ms(1), [&](SimTime) {
    const auto h = handler_thread.load();
    if (h != std::thread::id{} && h != std::this_thread::get_id()) ++ticks_off_dispatcher;
    ++ticks;
  });
  net.start();
  net.send(make_msg(0, 1));
  net.wait_idle();
  ASSERT_NE(handler_thread.load(), std::thread::id{});
  ASSERT_NE(handler_thread.load(), std::this_thread::get_id());
  const int seen = ticks.load();
  // Generous deadline: three more ticks at 1 ms each, on a loaded host.
  for (int i = 0; i < 10000 && ticks.load() < seen + 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(ticks.load(), seen + 3);
  EXPECT_EQ(ticks_off_dispatcher.load(), 0);
  net.stop();
  const int at_stop = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ticks.load(), at_stop);
}

// ----------------------------------------------------------------- RPC -----

TEST(PendingCalls, SingleReply) {
  PendingCalls pending;
  auto call = pending.open(10);
  Message reply;
  reply.reply_to = 10;
  reply.payload = FindOwnerResponse{ObjectId{1}, 2, true};
  EXPECT_TRUE(pending.deliver(reply));
  const auto got = pending.wait(call, 10, sim_ms(500));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(std::get<FindOwnerResponse>(got->payload).owner, 2u);
  pending.done(10);
  EXPECT_EQ(pending.open_count(), 0u);
}

TEST(PendingCalls, TwoRepliesSameCall) {
  // The enqueue-then-handoff flow: one request, two replies.
  PendingCalls pending;
  auto call = pending.open(5);
  Message first;
  first.reply_to = 5;
  first.payload = ObjectResponse{};  // "enqueued"
  Message second;
  second.reply_to = 5;
  second.payload = ObjectResponse{};  // the pushed object
  EXPECT_TRUE(pending.deliver(first));
  EXPECT_TRUE(pending.deliver(second));
  EXPECT_TRUE(pending.wait(call, 5, sim_ms(500)).has_value());
  EXPECT_TRUE(pending.wait(call, 5, sim_ms(500)).has_value());
  pending.done(5);
}

TEST(PendingCalls, ReplyWinsRaceAgainstTimeout) {
  PendingCalls pending;
  auto call = pending.open(9);
  std::jthread replier([&pending] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Message reply;
    reply.reply_to = 9;
    pending.deliver(reply);
  });
  // Generous timeout: the reply must be returned before it runs out.
  const auto got = pending.wait(call, 9, sim_ms(500));
  EXPECT_TRUE(got.has_value());
  pending.done(9);
}

TEST(PendingCalls, CloseAllUnblocksWaiters) {
  PendingCalls pending;
  auto call = pending.open(11);
  std::jthread closer([&pending] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pending.close_all();
  });
  // The bound is far beyond the close: the wait must end closed, not timed out.
  EXPECT_FALSE(pending.wait(call, 11, sim_ms(10000)).has_value());
  const auto closed = [](const PendingCalls::CallPtr& c) {
    MutexLock lk(c->mu);
    return c->closed;
  };
  EXPECT_TRUE(closed(call));
  // After close, new calls fail fast.
  auto call2 = pending.open(12);
  EXPECT_FALSE(pending.wait(call2, 12, sim_ms(10000)).has_value());
  EXPECT_TRUE(closed(call2));
}

TEST(PendingCalls, UnknownReplyIsOrphan) {
  PendingCalls pending;
  Message reply;
  reply.reply_to = 999;
  EXPECT_FALSE(pending.deliver(reply));
}

TEST(Network, StopCountsAndReportsInFlightMessages) {
  // Messages still ticking in the timer queue when stop() cuts them off
  // must be accounted, not silently discarded.
  TopologyConfig cfg;
  cfg.nodes = 2;
  cfg.min_delay = sim_ms(200);  // far enough out that stop() beats delivery
  cfg.max_delay = sim_ms(200);
  cfg.local_delay = sim_ms(200);
  Network net{Topology(cfg)};
  net.register_handler(0, [](Message) {});
  net.register_handler(1, [](Message) {});
  net.start();
  for (int i = 0; i < 10; ++i) net.send(make_msg(0, 1));
  net.stop();
  EXPECT_EQ(net.stats().dropped_on_stop.load(), 10u);
  EXPECT_EQ(net.stats().messages.load(), 10u);
}

TEST(Network, CleanStopDropsNothing) {
  TestNet net(2);
  for (int i = 0; i < 10; ++i) net.network.send(make_msg(0, 1));
  net.network.wait_idle();
  net.network.stop();
  EXPECT_EQ(net.network.stats().dropped_on_stop.load(), 0u);
}

TEST(RetryPolicy, TimeoutsGrowAndStayBounded) {
  RetryPolicy policy;
  policy.base_timeout = sim_ms(8);
  policy.max_timeout = sim_ms(50);
  for (std::uint64_t id = 1; id <= 20; ++id) {
    SimDuration prev = 0;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const SimDuration t = policy.timeout_for(attempt, id);
      EXPECT_GE(t, static_cast<SimDuration>(static_cast<double>(policy.base_timeout) * 0.74));
      EXPECT_LE(t, static_cast<SimDuration>(static_cast<double>(policy.max_timeout) * 1.26));
      // Deterministic: same (attempt, id) always yields the same timeout.
      EXPECT_EQ(t, policy.timeout_for(attempt, id));
      if (attempt >= 4) {
        EXPECT_GT(t, prev / 2);  // capped region stays high
      }
      prev = t;
    }
  }
}

}  // namespace
}  // namespace hyflow::net
