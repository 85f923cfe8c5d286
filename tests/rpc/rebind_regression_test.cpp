// Regression: lease rebinds re-opening retry double-execution (DESIGN.md
// §15.2).
//
// The PR 4 dedup window's TTL was derived from the legacy retry schedule:
// last possible retry at 50.9 s, entries retire at 60.9 s. PR 7's lease
// pushes broke that derivation — every pushed rebind RESTARTS the client's
// retry round, so a call chasing a churning binding keeps sending retries
// past 60.9 s. A retry landing after the server purged the entry re-executes
// the method body: exactly the double execution the window exists to
// prevent, re-opened by the feature interaction.
//
// The scenario (default model: 10 s timeout, 2 retries, 0.9 s rebind query,
// leases on):
//   t~0    attempt #1 reaches activation A=(2,10,1); the body runs; the
//          reply parks 2 s and is then lost to a partition. A's window entry
//          is cached, old-TTL good until 60.9 s.
//   1..65  the 1<->2 link is partitioned; every probe of A vanishes.
//   0..30  the normal first round times out (attempts at 0/10/20).
//   30.9   rebind query: the directory still says A; refreshed round starts.
//   32     the object "migrates": the directory now says B=(3,20,2) and
//          leases push B into the client's cache. Nothing listens at B.
//   40.9   the timed-out client sees pushed B, switches, and — here is the
//          bug — resets its per-binding attempt count (round 2).
//   40.9/50.9/60.9  attempts at B vanish (no endpoint).
//   62     the object "migrates back": leases push A again.
//   70.9   the client switches back to A (round 3) and retries; the
//          partition healed at 65, so the retry LANDS at A — after the old
//          TTL purged A's entry.
//
// On the unfixed code the body runs twice. The fix is two-sided: the legacy
// path caps pushed rebinds at CostModel::lease_rebind_limit and extends the
// TTL to budget for exactly those rounds (DedupWindowTtl); the sessioned
// path (session_slots > 0) removes the TTL entirely — the retry carries the
// same (session, slot, seq) even across the rebind round-trip, and the
// server replays the slot's cached reply.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "rpc/client.h"

namespace dcdo::rpc {
namespace {

constexpr sim::NodeId kClientNode = 1;
constexpr sim::NodeId kShardNode = 9;
const ObjectAddress kActivationA{2, 10, 1};
const ObjectAddress kActivationB{3, 20, 2};

class RebindRegressionTest : public ::testing::TestWithParam<int> {
 protected:
  RebindRegressionTest() : network_(&simulation_, Model()), transport_(&network_) {
    network_.AddNode(kClientNode);
    network_.AddNode(2);
    network_.AddNode(3);
    network_.AddNode(kShardNode);
    target_ = ObjectId::Next(domains::kInstance);
  }

  void SetUp() override {
    ASSERT_TRUE(agent_.Configure(&network_, {kShardNode}).ok());
    // After Configure: the client's cache registers as a leaseholder only if
    // the agent already grants leases when the client is built.
    client_ = std::make_unique<RpcClient>(&transport_, &agent_, kClientNode);
  }

  RpcClient& client() { return *client_; }

  sim::CostModel Model() const {
    sim::CostModel cost;
    // Long enough that lease expiry never interferes; the pushes do the work.
    cost.binding_lease_duration = sim::SimDuration::Seconds(300.0);
    cost.session_slots = GetParam();  // 0 = legacy window, >0 = sessions
    return cost;
  }

  sim::Simulation simulation_;
  sim::SimNetwork network_;
  RpcTransport transport_;
  BindingAgent agent_;
  std::unique_ptr<RpcClient> client_;
  ObjectId target_;
};

TEST_P(RebindRegressionTest, RebindRoundTripRetryReplaysInsteadOfReExecuting) {
  int body_runs = 0;
  transport_.RegisterEndpoint(
      kActivationA.node, kActivationA.pid, kActivationA.epoch,
      [&](const MethodInvocation& inv, ReplyFn reply) {
        ++body_runs;
        ByteBuffer answer = ByteBuffer::FromString(
            "run#" + std::to_string(body_runs) + ":" +
            std::string(inv.method_name()));
        // A slow, not lost, method: the body HAS executed by the time the
        // client starts probing.
        simulation_.Schedule(sim::SimDuration::Seconds(2.0),
                             [reply = std::move(reply),
                              answer = std::move(answer)]() mutable {
                               reply(MethodResult::Ok(std::move(answer)));
                             });
      });
  agent_.Bind(target_, kActivationA);

  // The client-server link drops just after attempt #1 lands and heals only
  // after the old 60.9 s TTL would have expired.
  simulation_.Schedule(sim::SimDuration::Seconds(1.0),
                       [&]() { network_.SetPartitioned(1, 2, true); });
  simulation_.Schedule(sim::SimDuration::Seconds(65.0),
                       [&]() { network_.SetPartitioned(1, 2, false); });
  // Migration churn, pushed to the leaseholder: away at 32 s, back at 62 s.
  simulation_.Schedule(sim::SimDuration::Seconds(32.0),
                       [&]() { agent_.Bind(target_, kActivationB); });
  simulation_.Schedule(sim::SimDuration::Seconds(62.0),
                       [&]() { agent_.Bind(target_, kActivationA); });

  int callback_runs = 0;
  std::string payload;
  client().Invoke(target_, "transferFunds", {}, [&](Result<ByteBuffer> result) {
    ++callback_runs;
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    payload = result->ToString();
  });
  simulation_.Run();

  // The heart of the regression: the retry that lands back at A after the
  // rebind round-trip must get attempt #1's cached answer, not a second
  // execution.
  EXPECT_EQ(body_runs, 1);
  EXPECT_EQ(callback_runs, 1);
  EXPECT_EQ(payload, "run#1:transferFunds");
  // Both pushed switches happened (A -> B at 40.9 s, B -> A at 70.9 s) and
  // stayed under the cap.
  EXPECT_EQ(client().lease_rebinds(), 2u);
  if (GetParam() == 0) {
    EXPECT_EQ(transport_.dedup_hits(), 1u);
  } else {
    EXPECT_EQ(transport_.session_hits(), 1u);
    EXPECT_EQ(transport_.dedup_hits(), 0u);  // sessions bypass the window
  }
}

// The cap itself: a target that migrates forever must not retry forever.
// Bindings flip to a dead address on every timeout; after lease_rebind_limit
// pushed rounds the call falls back to the ordinary schedule and fails with
// kTimeout instead of chasing pushes unboundedly.
TEST_P(RebindRegressionTest, PerpetualChurnExhaustsRebindCapAndFails) {
  // Two dead activations the directory flips between; nothing ever listens.
  agent_.Bind(target_, ObjectAddress{2, 40, 5});
  // Flip the binding every 9.5 s, forever-ish: each 10 s client timeout then
  // finds a pushed address different from the one it just probed, so an
  // uncapped client switches on EVERY timeout and never terminates its
  // schedule.
  for (int i = 1; i <= 60; ++i) {
    simulation_.Schedule(sim::SimDuration::Seconds(9.5 * i), [this, i]() {
      agent_.Bind(target_, (i % 2 != 0) ? ObjectAddress{3, 41, 6}
                                        : ObjectAddress{2, 40, 5});
    });
  }

  int callback_runs = 0;
  Status failure = Status::Ok();
  sim::SimTime failed_at;
  client().Invoke(target_, "chase", {}, [&](Result<ByteBuffer> result) {
    ++callback_runs;
    ASSERT_FALSE(result.ok());
    failure = result.status();
    failed_at = simulation_.Now();
  });
  simulation_.Run();  // runs past the call failure: the flips keep firing

  EXPECT_EQ(callback_runs, 1);  // the call terminated
  EXPECT_EQ(failure.code(), ErrorCode::kTimeout);
  const sim::CostModel cost = Model();
  EXPECT_LE(client().lease_rebinds(),
            static_cast<std::uint64_t>(cost.lease_rebind_limit));
  // And it terminated within the budget the dedup TTL is derived from: the
  // capped schedule's last send plus one timeout of transit slack.
  EXPECT_LE(failed_at - sim::SimTime{},
            cost.DedupWindowTtl() + sim::SimDuration::Seconds(30.0));
}

INSTANTIATE_TEST_SUITE_P(LegacyWindowAndSessions, RebindRegressionTest,
                         ::testing::Values(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0 ? "LegacyWindow"
                                                  : "Sessions";
                         });

}  // namespace
}  // namespace dcdo::rpc
