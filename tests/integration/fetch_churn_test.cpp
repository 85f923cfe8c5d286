// Randomized churn with the parallel fetch pipeline engaged: concurrent
// creations, evolutions, and migrations at fetch_concurrency 8 over a small
// bounded component cache, with the checker at every-event cadence and the
// race detector watching. The pipeline reorders component arrivals relative
// to request order, so this is the test that proves completion-order
// incorporation never violates the dependency/permanence invariants or the
// happens-before rules — a long run of legal operations must end with zero
// reports.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "check/check_context.h"
#include "core/manager.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

using check::CheckContext;

Testbed::Options PipelineChurnOptions() {
  Testbed::Options options;
  options.check_options.cadence = CheckContext::Cadence::kEveryEvent;
  options.cost_model.fetch_concurrency = 8;
  // Small enough that churn keeps evicting and re-fetching images.
  options.cost_model.component_cache_capacity = 4;
  return options;
}

class FetchChurn : public ::testing::TestWithParam<int> {};

TEST_P(FetchChurn, PipelinedChurnLeavesNoReports) {
  std::mt19937 rng(GetParam());
  Testbed testbed{PipelineChurnOptions()};
  CheckContext* checker = testbed.checker();
  if (checker == nullptr) GTEST_SKIP() << "checking compiled out";

  DcdoManager manager("fetchchurn", testbed.host(0), &testbed.transport(),
                      &testbed.agent(), &testbed.registry(),
                      MakeMultiVersionIncreasing());

  // Six components over three function names; images big enough that their
  // transfers genuinely overlap in the pipeline.
  std::vector<ImplementationComponent> pool;
  const char* fns[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 6; ++i) {
    pool.push_back(testing::MakeEchoComponent(
        testbed.registry(), "fc" + std::to_string(i),
        {fns[i % 3], fns[(i + 1) % 3]}, 256 * 1024));
    ASSERT_TRUE(manager.PublishComponent(pool[i]).ok());
  }

  VersionId root = *manager.CreateRootVersion();
  {
    DfmDescriptor* d = *manager.MutableDescriptor(root);
    ASSERT_TRUE(d->IncorporateComponent(pool[0]).ok());
    ASSERT_TRUE(d->EnableFunction("alpha", pool[0].id).ok());
    ASSERT_TRUE(d->EnableFunction("beta", pool[0].id).ok());
    ASSERT_TRUE(manager.MarkInstantiable(root).ok());
    ASSERT_TRUE(manager.SetCurrentVersion(root).ok());
  }
  // A chain of instantiable versions, each derived from the last and
  // incorporating a different slice of the pool, so evolutions between them
  // add and remove components.
  std::vector<VersionId> instantiable{root};
  for (int v = 0; v < 4; ++v) {
    VersionId derived = *manager.DeriveVersion(instantiable.back());
    DfmDescriptor* d = *manager.MutableDescriptor(derived);
    for (int i = 0; i < 3; ++i) {
      const ImplementationComponent& comp = pool[(v + i) % pool.size()];
      (void)d->IncorporateComponent(comp);
      for (const FunctionImplDescriptor& fn : comp.functions) {
        (void)d->SwitchImplementation(fn.function.name, comp.id);
      }
    }
    ASSERT_TRUE(manager.MarkInstantiable(derived).ok());
    instantiable.push_back(derived);
  }

  // Four instances, co-hosted in pairs so their fetches single-flight.
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
      ASSERT_TRUE(result.has_value() && (*result).ok());
      instances.push_back(**result);
    }
  }

  std::uniform_int_distribution<int> op_dist(0, 2);
  std::uniform_int_distribution<std::size_t> version_pick(
      0, instantiable.size() - 1);
  std::uniform_int_distribution<std::size_t> host_pick(1, 3);
  for (int round = 0; round < 30; ++round) {
    // Launch one operation per instance, all concurrently: overlapping
    // evolutions and migrations are what drive the pipeline and the
    // single-flight map hardest.
    int pending = 0;
    for (const ObjectId& instance : instances) {
      switch (op_dist(rng)) {
        case 0:  // evolve (the policy may legally refuse; ignore status)
          ++pending;
          manager.EvolveInstanceTo(instance, instantiable[version_pick(rng)],
                                   [&pending](Status) { --pending; });
          break;
        case 1:  // migrate
          ++pending;
          manager.MigrateInstance(instance, testbed.host(host_pick(rng)),
                                  [&pending](Status) { --pending; });
          break;
        case 2: {  // call (typed failure allowed while a version lacks it)
          Dcdo* object = manager.FindInstance(instance);
          ASSERT_NE(object, nullptr);
          auto result = object->Call(fns[round % 3], ByteBuffer{});
          if (!result.ok()) {
            ErrorCode code = result.status().code();
            ASSERT_TRUE(code == ErrorCode::kFunctionMissing ||
                        code == ErrorCode::kFunctionDisabled)
                << result.status();
          }
          break;
        }
      }
    }
    testbed.simulation().RunWhile([&] { return pending > 0; });
    testbed.simulation().Run();
    // After the dust settles, every instance's configuration is complete.
    for (const ObjectId& instance : instances) {
      Dcdo* object = manager.FindInstance(instance);
      ASSERT_NE(object, nullptr);
      ASSERT_TRUE(object->mapper().state().ValidateComplete().ok());
    }
  }

  EXPECT_TRUE(checker->diagnostics().Clean())
      << checker->diagnostics().DumpText();
  EXPECT_EQ(checker->diagnostics().CountFor("race-forced-removal"), 0u);
  EXPECT_EQ(checker->diagnostics().CountFor("race-overlapping-evolution"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FetchChurn, ::testing::Values(7, 1999));

}  // namespace
}  // namespace dcdo
