// Overload coverage for the sessioned RPC path (DESIGN.md §15): the three
// E16 stress shapes — slow-server, incast, retry-storm — run small enough
// for the tier-1 suite, under the invariant checker + race detector at
// every-event cadence, with the one property the whole PR exists to defend
// asserted directly: every logical call's method body executes EXACTLY once,
// no matter how many timeouts, duplicates, or retries the overload produced.
//
// Parameterized over session_slots like the rebind regression: 0 drives the
// legacy dedup window, >0 the slot-sequenced sessions. Both must uphold
// exactly-once here; only the sessioned runs additionally bound the server's
// concurrent in-flight work (admission happens client-side, so the server
// never sees more than slots x clients bodies at once). The checker
// assertions hold only where the checker is compiled in; the nocheck preset
// still runs every body and reply assertion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/check_context.h"
#include "runtime/testbed.h"

namespace dcdo::rpc {
namespace {

using check::CheckContext;

class OverloadTest : public ::testing::TestWithParam<int> {
 protected:
  Testbed::Options MakeOptions() const {
    Testbed::Options options;
    options.check_options.cadence = CheckContext::Cadence::kEveryEvent;
    options.cost_model.session_slots = GetParam();  // 0 = legacy window
    return options;
  }

  bool Sessions() const { return GetParam() > 0; }

  static void ExpectBodiesRanExactlyOnce(
      const std::map<std::string, int>& executions, std::size_t expected) {
    EXPECT_EQ(executions.size(), expected);
    for (const auto& [tag, runs] : executions) {
      EXPECT_EQ(runs, 1) << "body for call " << tag << " ran " << runs
                         << " times";
    }
  }
};

// A server whose service time exceeds invocation_timeout: every call's retry
// arrives while the original body is still executing. The duplicate must be
// dropped (in-flight suppression), never run a second body, and the original
// answer must still reach the caller.
TEST_P(OverloadTest, SlowServerRetriesNeverReExecuteTheParkedBody) {
  Testbed testbed(MakeOptions());
  const ObjectAddress address{1, 70, 1};
  std::map<std::string, int> executions;
  testbed.transport().RegisterEndpoint(
      address.node, address.pid, address.epoch,
      [&](const MethodInvocation& inv, ReplyFn reply) {
        const std::string tag = inv.args().ToString();
        ++executions[tag];
        // Service takes 12 s against a 10 s invocation timeout: the reply is
        // parked past at least one client retry.
        testbed.simulation().Schedule(
            sim::SimDuration::Seconds(12.0),
            [reply = std::move(reply), tag]() mutable {
              reply(MethodResult::Ok(ByteBuffer::FromString("ok:" + tag)));
            });
      });
  ObjectId target = ObjectId::Next(domains::kInstance);
  testbed.agent().Bind(target, address);

  constexpr int kClients = 8;
  constexpr int kCallsPerClient = 3;  // > session_slots: admission queues
  std::vector<std::unique_ptr<RpcClient>> clients;
  int replies = 0;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(testbed.MakeClient(1 + static_cast<std::size_t>(c)));
    for (int i = 0; i < kCallsPerClient; ++i) {
      const std::string tag =
          "c" + std::to_string(c) + ".i" + std::to_string(i);
      clients.back()->Invoke(target, "slow", ByteBuffer::FromString(tag),
                             [&replies, tag](Result<ByteBuffer> r) {
                               ++replies;
                               ASSERT_TRUE(r.ok()) << r.status().ToString();
                               EXPECT_EQ(r->ToString(), "ok:" + tag);
                             });
    }
  }
  testbed.RunAll();

  ExpectBodiesRanExactlyOnce(executions, kClients * kCallsPerClient);
  EXPECT_EQ(replies, kClients * kCallsPerClient);
  if (Sessions()) {
    // Every parked call's retry was suppressed by its slot, and the third
    // call per client had to wait for a slot.
    EXPECT_GT(testbed.transport().session_hits(), 0u);
    EXPECT_EQ(testbed.transport().dedup_hits(), 0u);
    for (const auto& client : clients) {
      EXPECT_GT(client->backpressure_waits(), 0u);
      EXPECT_EQ(client->queued_calls(), 0u);
    }
  } else {
    EXPECT_GT(testbed.transport().dedup_hits(), 0u);
  }
#if defined(DCDO_CHECK_ENABLED)
  ASSERT_NE(testbed.checker(), nullptr);
  EXPECT_TRUE(testbed.checker()->diagnostics().Clean())
      << testbed.checker()->diagnostics().DumpText();
#endif
}

// Incast: a dozen clients converge on one endpoint at once. Sessions turn
// the unbounded pile-up into client-side queueing — the server's concurrent
// in-flight bodies stay under clients x slots — while the legacy path admits
// everything. Exactly-once must hold either way.
TEST_P(OverloadTest, IncastBoundsServerConcurrencyUnderSessions) {
  Testbed testbed(MakeOptions());
  const ObjectAddress address{1, 71, 1};
  std::map<std::string, int> executions;
  int in_flight = 0;
  int max_in_flight = 0;
  testbed.transport().RegisterEndpoint(
      address.node, address.pid, address.epoch,
      [&](const MethodInvocation& inv, ReplyFn reply) {
        ++executions[inv.args().ToString()];
        ++in_flight;
        max_in_flight = std::max(max_in_flight, in_flight);
        testbed.simulation().Schedule(
            sim::SimDuration::Seconds(1.0),
            [&in_flight, reply = std::move(reply)]() mutable {
              --in_flight;
              reply(MethodResult::Ok({}));
            });
      });
  ObjectId target = ObjectId::Next(domains::kInstance);
  testbed.agent().Bind(target, address);

  constexpr int kClients = 12;
  constexpr int kCallsPerClient = 6;
  std::vector<std::unique_ptr<RpcClient>> clients;
  int replies = 0;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(testbed.MakeClient(1 + static_cast<std::size_t>(c)));
    for (int i = 0; i < kCallsPerClient; ++i) {
      clients.back()->Invoke(
          target, "burst",
          ByteBuffer::FromString("c" + std::to_string(c) + ".i" +
                                 std::to_string(i)),
          [&replies](Result<ByteBuffer> r) { replies += r.ok(); });
    }
  }
  testbed.RunAll();

  ExpectBodiesRanExactlyOnce(executions, kClients * kCallsPerClient);
  EXPECT_EQ(replies, kClients * kCallsPerClient);
  if (Sessions()) {
    EXPECT_LE(max_in_flight, kClients * GetParam());
    for (const auto& client : clients) {
      EXPECT_GT(client->backpressure_waits(), 0u);
      EXPECT_EQ(client->queued_calls(), 0u);
    }
  } else {
    // No admission control: the full incast lands on the server at once.
    EXPECT_EQ(max_in_flight, kClients * kCallsPerClient);
  }
#if defined(DCDO_CHECK_ENABLED)
  ASSERT_NE(testbed.checker(), nullptr);
  EXPECT_TRUE(testbed.checker()->diagnostics().Clean())
      << testbed.checker()->diagnostics().DumpText();
#endif
}

// Retry storm: the body executes on the FIRST attempt, then the link drops
// before the reply escapes, and every retry of the whole probe schedule is
// lost too. When the partition heals mid-schedule, the landing retry must be
// answered from the cached reply (window entry or session slot) — the bodies
// must not run a second time even though, from the clients' point of view,
// the server was silent for ~50 s.
TEST_P(OverloadTest, RetryStormAfterPartitionHealReplaysCachedReplies) {
  Testbed testbed(MakeOptions());
  const ObjectAddress address{1, 72, 1};
  std::map<std::string, int> executions;
  testbed.transport().RegisterEndpoint(
      address.node, address.pid, address.epoch,
      [&](const MethodInvocation& inv, ReplyFn reply) {
        const std::string tag = inv.args().ToString();
        ++executions[tag];
        // The body has run; the reply tries to leave at t=2 — after the
        // partition closed at t=0.5 — and is lost.
        testbed.simulation().Schedule(
            sim::SimDuration::Seconds(2.0),
            [reply = std::move(reply), tag]() mutable {
              reply(MethodResult::Ok(ByteBuffer::FromString("first:" + tag)));
            });
      });
  ObjectId target = ObjectId::Next(domains::kInstance);
  testbed.agent().Bind(target, address);

  constexpr int kClients = 8;
  std::vector<std::unique_ptr<RpcClient>> clients;
  int replies = 0;
  for (int c = 0; c < kClients; ++c) {
    const auto client_node = static_cast<sim::NodeId>(2 + c);
    clients.push_back(testbed.MakeClient(1 + static_cast<std::size_t>(c)));
    const std::string tag = "storm.c" + std::to_string(c);
    clients.back()->Invoke(target, "storm", ByteBuffer::FromString(tag),
                           [&replies, tag](Result<ByteBuffer> r) {
                             ++replies;
                             ASSERT_TRUE(r.ok()) << r.status().ToString();
                             // The cached FIRST execution's answer, not a
                             // re-run.
                             EXPECT_EQ(r->ToString(), "first:" + tag);
                           });
    // Cut each client's link to the server after attempt #1 has landed
    // (delivery is sub-millisecond) but before the parked reply departs;
    // heal at 45 s so the refreshed round's last retry (50.9 s) gets
    // through while the schedule is still alive.
    testbed.simulation().Schedule(
        sim::SimDuration::Seconds(0.5), [&testbed, client_node]() {
          testbed.network().SetPartitioned(client_node, 1, true);
        });
    testbed.simulation().Schedule(
        sim::SimDuration::Seconds(45.0), [&testbed, client_node]() {
          testbed.network().SetPartitioned(client_node, 1, false);
        });
  }
  testbed.RunAll();

  ExpectBodiesRanExactlyOnce(executions, kClients);
  EXPECT_EQ(replies, kClients);
  if (Sessions()) {
    // One replay per client: the landing retry carried the original
    // (session, slot, seq) through the whole storm.
    EXPECT_GE(testbed.transport().session_hits(),
              static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(testbed.transport().dedup_hits(), 0u);
  } else {
    // The window entry (TTL 60.9 s) outlived the storm; the retry hit it.
    EXPECT_GE(testbed.transport().dedup_hits(),
              static_cast<std::uint64_t>(kClients));
  }
#if defined(DCDO_CHECK_ENABLED)
  ASSERT_NE(testbed.checker(), nullptr);
  EXPECT_TRUE(testbed.checker()->diagnostics().Clean())
      << testbed.checker()->diagnostics().DumpText();
#endif
}

INSTANTIATE_TEST_SUITE_P(LegacyWindowAndSessions, OverloadTest,
                         ::testing::Values(0, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0 ? "LegacyWindow"
                                                  : "Sessions";
                         });

}  // namespace
}  // namespace dcdo::rpc
