// Deterministic whole-substrate churn scenarios for the Fom equivalence
// suite (tests/runtime/fom_equivalence_test.cpp).
//
// Each scenario drives a heavy EXPERIMENTS.md workload to quiescence and
// folds everything observable into a RunSummary: the per-affinity SimTime
// event-order digest, total events fired, the final clock, and a final-state
// fingerprint. Two runs are "the same execution" iff their summaries are
// equal — that is the contract the suite asserts, run to run and across the
// continuation-chain → Fom conversion (DESIGN.md §16).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "check/check_context.h"
#include "core/manager.h"
#include "naming/binding_cache.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo::testing {

inline std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

struct RunSummary {
  std::uint64_t digest = 0;
  std::uint64_t fired = 0;
  std::int64_t end_ns = 0;
  std::uint64_t state_hash = 0;
  bool checker_clean = true;
  std::string diagnostics;

  bool operator==(const RunSummary& other) const {
    return digest == other.digest && fired == other.fired &&
           end_ns == other.end_ns && state_hash == other.state_hash;
  }
};

inline void FinishSummary(Testbed& testbed, RunSummary& summary) {
  summary.digest = testbed.simulation().DeterminismDigest();
  summary.fired = testbed.simulation().events_fired();
  summary.end_ns = testbed.simulation().Now().nanos();
  if (check::CheckContext* checker = testbed.checker()) {
    summary.checker_clean = checker->diagnostics().Clean();
    if (!summary.checker_clean) {
      summary.diagnostics = checker->diagnostics().DumpText();
    }
  }
}

// ===== E13: fetch-churn (concurrent creations, evolutions, migrations) =====

inline RunSummary RunFetchChurn(int fetch_concurrency = 8) {
  ObjectId::ResetCounterForTest();
  std::mt19937 rng(1999);

  Testbed::Options options;
  options.check_options.cadence = check::CheckContext::Cadence::kEveryEvent;
  options.cost_model.fetch_concurrency = fetch_concurrency;
  options.cost_model.component_cache_capacity = 4;
  Testbed testbed(options);
  testbed.simulation().EnableDeterminismDigest(true);

  DcdoManager manager("pardet", testbed.host(0), &testbed.transport(),
                      &testbed.agent(), &testbed.registry(),
                      MakeMultiVersionIncreasing());

  std::vector<ImplementationComponent> pool;
  const char* fns[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 6; ++i) {
    pool.push_back(testing::MakeEchoComponent(
        testbed.registry(), "pd" + std::to_string(i),
        {fns[i % 3], fns[(i + 1) % 3]}, 256 * 1024));
    EXPECT_TRUE(manager.PublishComponent(pool[i]).ok());
  }

  VersionId root = *manager.CreateRootVersion();
  {
    DfmDescriptor* d = *manager.MutableDescriptor(root);
    EXPECT_TRUE(d->IncorporateComponent(pool[0]).ok());
    EXPECT_TRUE(d->EnableFunction("alpha", pool[0].id).ok());
    EXPECT_TRUE(d->EnableFunction("beta", pool[0].id).ok());
    EXPECT_TRUE(manager.MarkInstantiable(root).ok());
    EXPECT_TRUE(manager.SetCurrentVersion(root).ok());
  }
  std::vector<VersionId> instantiable{root};
  for (int v = 0; v < 3; ++v) {
    VersionId derived = *manager.DeriveVersion(instantiable.back());
    DfmDescriptor* d = *manager.MutableDescriptor(derived);
    for (int i = 0; i < 3; ++i) {
      const ImplementationComponent& comp = pool[(v + i) % pool.size()];
      (void)d->IncorporateComponent(comp);
      for (const FunctionImplDescriptor& fn : comp.functions) {
        (void)d->SwitchImplementation(fn.function.name, comp.id);
      }
    }
    EXPECT_TRUE(manager.MarkInstantiable(derived).ok());
    instantiable.push_back(derived);
  }

  std::vector<ObjectId> instances;
  {
    std::vector<std::optional<Result<ObjectId>>> created(4);
    for (int i = 0; i < 4; ++i) {
      manager.CreateInstance(testbed.host(1 + i / 2),
                             [&created, i](Result<ObjectId> r) {
                               created[i] = r;
                             });
    }
    testbed.simulation().Run();
    for (auto& result : created) {
      EXPECT_TRUE(result.has_value() && (*result).ok());
      if (result.has_value() && (*result).ok()) instances.push_back(**result);
    }
  }

  std::uniform_int_distribution<int> op_dist(0, 2);
  std::uniform_int_distribution<std::size_t> version_pick(
      0, instantiable.size() - 1);
  std::uniform_int_distribution<std::size_t> host_pick(1, 3);
  for (int round = 0; round < 12; ++round) {
    int pending = 0;
    for (const ObjectId& instance : instances) {
      switch (op_dist(rng)) {
        case 0:
          ++pending;
          manager.EvolveInstanceTo(instance, instantiable[version_pick(rng)],
                                   [&pending](Status) { --pending; });
          break;
        case 1:
          ++pending;
          manager.MigrateInstance(instance, testbed.host(host_pick(rng)),
                                  [&pending](Status) { --pending; });
          break;
        case 2: {
          Dcdo* object = manager.FindInstance(instance);
          EXPECT_NE(object, nullptr);
          if (object != nullptr) (void)object->Call(fns[round % 3], ByteBuffer{});
          break;
        }
      }
    }
    testbed.simulation().RunWhile([&] { return pending > 0; });
    testbed.simulation().Run();
  }

  RunSummary summary;
  summary.state_hash = 1469598103934665603ull;
  for (const ObjectId& instance : instances) {
    Dcdo* object = manager.FindInstance(instance);
    EXPECT_NE(object, nullptr);
    if (object == nullptr) continue;
    for (std::uint32_t part : object->version().parts()) {
      summary.state_hash = Fnv(summary.state_hash, part);
    }
    summary.state_hash = Fnv(summary.state_hash, object->host().node());
    summary.state_hash = Fnv(
        summary.state_hash,
        object->mapper().state().ValidateComplete().ok() ? 1u : 0u);
  }
  FinishSummary(testbed, summary);
  return summary;
}

// ===== E14: rebind storm over the leased, sharded, remote directory ========

inline RunSummary RunRebindStorm() {
  ObjectId::ResetCounterForTest();

  Testbed::Options options;
  options.host_count = 8;
  options.check_options.cadence = check::CheckContext::Cadence::kEveryEvent;
  options.cost_model.naming_shard_count = 2;
  options.cost_model.binding_lease_duration = sim::SimDuration::Seconds(60.0);
  // The modelled per-lookup service time, routed as real request messages to
  // the shard hosts.
  options.cost_model.directory_lookup_service = sim::SimDuration::Micros(100);
  options.cost_model.directory_remote_requests = true;
  Testbed testbed(options);
  testbed.simulation().EnableDeterminismDigest(true);
  BindingAgent& agent = testbed.agent();

  constexpr int kHolders = 24;
  constexpr int kTargets = 4;
  // Real (checkable) activations: every bound address is a live registered
  // endpoint, and a migration retires the old activation before the new one
  // is served — the binding-coherence invariant watches all of it.
  auto address_of = [](int t, std::uint64_t epoch) {
    return ObjectAddress{
        static_cast<sim::NodeId>(1 + (static_cast<std::uint64_t>(t) + epoch) % 8),
        static_cast<sim::ProcessId>(100 + t), epoch};
  };
  std::vector<ObjectId> targets;
  auto serve = [&](int t, std::uint64_t epoch) {
    const ObjectAddress address = address_of(t, epoch);
    testbed.transport().RegisterEndpoint(
        address.node, address.pid, address.epoch,
        [](const rpc::MethodInvocation& inv, rpc::ReplyFn reply) {
          reply(rpc::MethodResult::Ok(
              ByteBuffer::FromString(std::string(inv.method_name()))));
        });
    agent.Bind(targets[static_cast<std::size_t>(t)], address);
  };
  for (int t = 0; t < kTargets; ++t) {
    targets.push_back(ObjectId::Next(domains::kInstance));
    serve(t, 1);
  }
  std::vector<std::unique_ptr<BindingCache>> caches;
  int resolved = 0;
  for (int i = 0; i < kHolders; ++i) {
    caches.push_back(std::make_unique<BindingCache>(
        &agent, /*capacity=*/16,
        static_cast<sim::NodeId>(1 + i % options.host_count)));
    caches.back()->RefreshFromAgentAsync(targets[i % kTargets],
                                         [&resolved](Result<ObjectAddress> r) {
                                           EXPECT_TRUE(r.ok());
                                           ++resolved;
                                         });
  }
  testbed.RunAll();
  EXPECT_EQ(resolved, kHolders);

  // Three storms: every target migrates, the shards fan the fresh bindings
  // out to all leaseholders, the run settles, repeat.
  for (std::uint64_t epoch = 2; epoch <= 4; ++epoch) {
    for (int t = 0; t < kTargets; ++t) {
      const ObjectAddress old = address_of(t, epoch - 1);
      testbed.transport().UnregisterEndpoint(old.node, old.pid);
      serve(t, epoch);
    }
    testbed.RunAll();
  }

  RunSummary summary;
  summary.state_hash = 1469598103934665603ull;
  for (int i = 0; i < kHolders; ++i) {
    auto cached = caches[static_cast<std::size_t>(i)]->CachedAddress(
        targets[i % kTargets]);
    summary.state_hash = Fnv(summary.state_hash, cached.has_value() ? 1u : 0u);
    if (cached.has_value()) {
      summary.state_hash = Fnv(summary.state_hash, cached->node);
      summary.state_hash = Fnv(summary.state_hash, cached->pid);
      summary.state_hash = Fnv(summary.state_hash, cached->epoch);
    }
  }
  summary.state_hash = Fnv(summary.state_hash, agent.invalidations_delivered());
  summary.state_hash = Fnv(summary.state_hash, agent.lookups_served());
  FinishSummary(testbed, summary);
  return summary;
}

// ===== E16-shaped batched + sessioned RPC traffic ==========================
//
// Data-plane calls to kParallel endpoints (delivery affinity = destination
// node) interleave with urgent config-plane calls (delivery affinity =
// global) from the same senders, so one batch carries mixed affinities and
// the flush groups them; sessions bound the in-flight calls per client.
inline RunSummary RunBatchedSessionTraffic() {
  ObjectId::ResetCounterForTest();

  Testbed::Options options;
  options.host_count = 8;
  options.check_options.cadence = check::CheckContext::Cadence::kEveryEvent;
  options.cost_model.send_batch_window = sim::SimDuration::Millis(1);
  options.cost_model.formation_policy = true;
  options.cost_model.session_slots = 2;
  Testbed testbed(options);
  testbed.simulation().EnableDeterminismDigest(true);
  BindingAgent& agent = testbed.agent();
  sim::Simulation& simulation = testbed.simulation();

  // Four served targets on nodes 1..4, each tallying its data-plane calls.
  constexpr int kTargets = 4;
  std::vector<ObjectId> targets;
  std::vector<std::uint64_t> served(kTargets, 0);
  for (int t = 0; t < kTargets; ++t) {
    targets.push_back(ObjectId::Next(domains::kInstance));
    const ObjectAddress address{static_cast<sim::NodeId>(1 + t),
                                static_cast<sim::ProcessId>(50 + t), 1};
    testbed.transport().RegisterEndpoint(
        address.node, address.pid, address.epoch,
        [&served, t](const rpc::MethodInvocation& inv, rpc::ReplyFn reply) {
          if (!rpc::IsConfigMethodName(inv.method_name())) {
            ++served[static_cast<std::size_t>(t)];
          }
          reply(rpc::MethodResult::Ok(
              ByteBuffer::FromString(std::string(inv.method_name()))));
        },
        rpc::EndpointConcurrency::kParallel);
    agent.Bind(targets.back(), address);
  }

  // Four clients on nodes 5..8. Each round sends a back-to-back burst to one
  // target — six data-plane calls (twice the slot bound, so admission
  // queues) plus a config-plane call that the formation policy flushes
  // urgently — forming mixed-affinity batches on the (client node, server
  // node) lane. The 350 us per-call stagger lands 2-3 calls inside each 1 ms
  // batch window, so coalescing stays exercised.
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(std::make_unique<rpc::RpcClient>(
        &testbed.transport(), &agent, static_cast<sim::NodeId>(5 + c)));
  }
  std::uint64_t replies = 0;
  for (int round = 0; round < 6; ++round) {
    for (int c = 0; c < 4; ++c) {
      const ObjectId& target =
          targets[static_cast<std::size_t>((c + round) % kTargets)];
      for (int i = 0; i < 7; ++i) {
        const bool poke = i == 6;  // the urgent config call rides last
        const auto at = sim::SimDuration::Millis(10 * round) +
                        sim::SimDuration::Micros(100 * c + 350 * i);
        simulation.Schedule(at, [&, c, target, poke]() {
          clients[static_cast<std::size_t>(c)]->Invoke(
              target, poke ? "dcdo.poke" : "work", {},
              [&replies](Result<ByteBuffer> r) { replies += r.ok(); });
        });
      }
    }
  }
  testbed.RunAll();

  RunSummary summary;
  summary.state_hash = 1469598103934665603ull;
  summary.state_hash = Fnv(summary.state_hash, replies);
  for (int t = 0; t < kTargets; ++t) {
    summary.state_hash = Fnv(summary.state_hash, served[t]);
  }
  summary.state_hash =
      Fnv(summary.state_hash, testbed.transport().session_hits());
  // The scenario must actually exercise what it claims to: batches formed,
  // messages coalesced, admission queued.
  EXPECT_GT(testbed.network().batches_sent(), 0u);
  EXPECT_GT(testbed.network().messages_coalesced(), 0u);
  for (const auto& client : clients) {
    EXPECT_GT(client->backpressure_waits(), 0u);
    EXPECT_EQ(client->queued_calls(), 0u);  // all admitted by quiescence
  }
  EXPECT_EQ(replies, 4u * 6u * 7u);
  FinishSummary(testbed, summary);
  return summary;
}

}  // namespace dcdo::testing
