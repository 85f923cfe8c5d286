#include "naming/binding_agent.h"
#include "naming/binding_cache.h"

#include <gtest/gtest.h>

namespace dcdo {
namespace {

TEST(BindingAgentTest, BindAndLookup) {
  BindingAgent agent;
  ObjectId id = ObjectId::Next(domains::kInstance);
  ObjectAddress address{1, 42, 1};
  agent.Bind(id, address);
  auto found = agent.Lookup(id);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, address);
}

TEST(BindingAgentTest, LookupUnknownFails) {
  BindingAgent agent;
  auto found = agent.Lookup(ObjectId::Next(domains::kInstance));
  EXPECT_FALSE(found.ok());
  EXPECT_EQ(found.status().code(), ErrorCode::kNotFound);
}

TEST(BindingAgentTest, RebindReplaces) {
  BindingAgent agent;
  ObjectId id = ObjectId::Next(domains::kInstance);
  agent.Bind(id, ObjectAddress{1, 42, 1});
  agent.Bind(id, ObjectAddress{2, 7, 2});
  EXPECT_EQ(agent.Lookup(id)->node, 2u);
  EXPECT_EQ(agent.size(), 1u);
}

TEST(BindingAgentTest, UnbindRemoves) {
  BindingAgent agent;
  ObjectId id = ObjectId::Next(domains::kInstance);
  agent.Bind(id, ObjectAddress{1, 42, 1});
  agent.Unbind(id);
  EXPECT_FALSE(agent.Bound(id));
  EXPECT_FALSE(agent.Lookup(id).ok());
}

TEST(BindingAgentTest, CountsLookups) {
  BindingAgent agent;
  ObjectId id = ObjectId::Next(domains::kInstance);
  agent.Bind(id, ObjectAddress{1, 1, 1});
  (void)agent.Lookup(id);
  (void)agent.Lookup(id);
  EXPECT_EQ(agent.lookups_served(), 2u);
}

// Configure reads the layout from the network's cost model and refuses one
// it cannot serve, including a shard-host list longer than the shard count.
TEST(BindingAgentTest, ConfigureValidatesTheLayout) {
  sim::Simulation simulation;
  BindingAgent agent;
  EXPECT_EQ(agent.Configure(nullptr, {}).code(), ErrorCode::kInvalidArgument);

  sim::CostModel no_shards;
  no_shards.naming_shard_count = 0;
  sim::SimNetwork unshardable(&simulation, no_shards);
  EXPECT_EQ(agent.Configure(&unshardable, {}).code(),
            ErrorCode::kInvalidArgument);

  sim::SimNetwork plain(&simulation, sim::CostModel{});
  EXPECT_EQ(agent.Configure(&plain, {9, 10}).code(),
            ErrorCode::kInvalidArgument);

  sim::CostModel leased;
  leased.naming_shard_count = 2;
  leased.binding_lease_duration = sim::SimDuration::Seconds(60.0);
  sim::SimNetwork network(&simulation, leased);
  EXPECT_EQ(agent.Configure(&network, {9}).code(),
            ErrorCode::kInvalidArgument);
  ASSERT_TRUE(agent.Configure(&network, {9, 10}).ok());
  EXPECT_EQ(agent.shard_count(), 2);
  EXPECT_TRUE(agent.leases_enabled());
  EXPECT_FALSE(agent.lookup_service_modeled());

  agent.Bind(ObjectId::Next(domains::kInstance), ObjectAddress{1, 42, 1});
  EXPECT_EQ(agent.Configure(&network, {9, 10}).code(),
            ErrorCode::kFailedPrecondition);
}

TEST(AddressTest, ValidityAndFormat) {
  EXPECT_FALSE(ObjectAddress::Invalid().valid());
  ObjectAddress address{3, 17, 2};
  EXPECT_TRUE(address.valid());
  EXPECT_EQ(address.ToString(), "node3/pid17@e2");
  EXPECT_EQ(ObjectAddress::Invalid().ToString(), "<unbound>");
}

class BindingCacheTest : public ::testing::Test {
 protected:
  BindingCacheTest() : cache_(&agent_) {
    id_ = ObjectId::Next(domains::kInstance);
    agent_.Bind(id_, ObjectAddress{1, 42, 1});
  }
  BindingAgent agent_;
  BindingCache cache_;
  ObjectId id_;
};

TEST_F(BindingCacheTest, FirstResolveMissesThenHits) {
  ASSERT_TRUE(cache_.Resolve(id_).ok());
  EXPECT_EQ(cache_.misses(), 1u);
  EXPECT_EQ(cache_.hits(), 0u);
  ASSERT_TRUE(cache_.Resolve(id_).ok());
  EXPECT_EQ(cache_.hits(), 1u);
  EXPECT_EQ(agent_.lookups_served(), 1u) << "second resolve served locally";
}

// The crux of the stale-binding problem: the cache keeps serving a dead
// address until explicitly refreshed.
TEST_F(BindingCacheTest, CachedEntryGoesStaleSilently) {
  ASSERT_TRUE(cache_.Resolve(id_).ok());
  agent_.Bind(id_, ObjectAddress{2, 99, 2});  // the object moved
  auto stale = cache_.Resolve(id_);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->node, 1u) << "cache still returns the old address";
  auto fresh = cache_.RefreshFromAgent(id_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->node, 2u);
  EXPECT_EQ(cache_.refreshes(), 1u);
}

TEST_F(BindingCacheTest, InvalidateForcesAgentRoundTrip) {
  ASSERT_TRUE(cache_.Resolve(id_).ok());
  cache_.Invalidate(id_);
  EXPECT_FALSE(cache_.Cached(id_));
  ASSERT_TRUE(cache_.Resolve(id_).ok());
  EXPECT_EQ(agent_.lookups_served(), 2u);
}

TEST_F(BindingCacheTest, RefreshOfUnboundObjectFails) {
  agent_.Unbind(id_);
  cache_.InvalidateAll();
  EXPECT_FALSE(cache_.Resolve(id_).ok());
  EXPECT_FALSE(cache_.RefreshFromAgent(id_).ok());
}

}  // namespace
}  // namespace dcdo
