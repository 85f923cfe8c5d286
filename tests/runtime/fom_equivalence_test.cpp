// Fom conversion equivalence (DESIGN.md §16): the converted operations —
// creation, evolution incorporation, poll/removal, migration, coordinated
// update — must replay the *byte-identical* simulated
// execution the legacy continuation chains produced. Control flow moved out
// of `shared_ptr<std::function>` chains into pooled Foms; every Schedule
// call, every simulated cost, every event timestamp stays exactly the same.
//
// The constants below were captured from the legacy implementation (the
// commit immediately before the Fom runtime landed) by running this suite
// with DCDO_EQUIV_CAPTURE=1, which prints each scenario's summary instead
// of asserting. Any drift in digest / fired / end_ns / state_hash means the
// conversion changed the simulated execution — an instant failure, not a
// tolerance band. Scenarios run with the every-event invariant checker +
// race detector live (the suite is also in the TSan CI regex).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "check/check_context.h"
#include "core/coordinator.h"
#include "core/manager.h"
#include "runtime/testbed.h"
#include "testing/churn_scenarios.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

using check::CheckContext;
using testing::Fnv;
using testing::RunBatchedSessionTraffic;
using testing::RunFetchChurn;
using testing::RunRebindStorm;
using testing::RunSummary;

// ===== Coordinated-update batches (apply, mid-batch failure, rollback) =====
//
// Two managers under the increasing-version policy. Batch 1 evolves one
// instance of each type to its v2 (prefetch + ordered apply, all steps
// succeed). Batch 2 validates but fails at apply time, driving the
// coordinator's failure spine (apply loop, mid-batch failure, best-effort
// rollback, refusal notes) under the digest.
RunSummary RunCoordinatorBatches() {
  ObjectId::ResetCounterForTest();

  Testbed::Options options;
  options.check_options.cadence = CheckContext::Cadence::kEveryEvent;
  Testbed testbed(options);
  testbed.simulation().EnableDeterminismDigest(true);

  struct Type {
    std::unique_ptr<DcdoManager> manager;
    ObjectId instance;
    VersionId v2;
  };
  std::vector<Type> types;
  const char* fns[] = {"alpha", "beta"};
  for (int t = 0; t < 2; ++t) {
    Type type;
    type.manager = std::make_unique<DcdoManager>(
        "coord" + std::to_string(t), testbed.host(0), &testbed.transport(),
        &testbed.agent(), &testbed.registry(), MakeMultiVersionIncreasing());
    std::vector<ImplementationComponent> comps;
    for (int c = 0; c < 3; ++c) {
      comps.push_back(testing::MakeEchoComponent(
          testbed.registry(), "co" + std::to_string(t) + "_" + std::to_string(c),
          {fns[c % 2]}, 128 * 1024));
      EXPECT_TRUE(type.manager->PublishComponent(comps.back()).ok());
    }
    VersionId v1 = *type.manager->CreateRootVersion();
    {
      DfmDescriptor* d = *type.manager->MutableDescriptor(v1);
      EXPECT_TRUE(d->IncorporateComponent(comps[0]).ok());
      EXPECT_TRUE(d->EnableFunction("alpha", comps[0].id).ok());
      EXPECT_TRUE(type.manager->MarkInstantiable(v1).ok());
      EXPECT_TRUE(type.manager->SetCurrentVersion(v1).ok());
    }
    type.v2 = *type.manager->DeriveVersion(v1);
    {
      DfmDescriptor* d = *type.manager->MutableDescriptor(type.v2);
      for (int c = 1; c < 3; ++c) {
        EXPECT_TRUE(d->IncorporateComponent(comps[c]).ok());
        for (const FunctionImplDescriptor& fn : comps[c].functions) {
          (void)d->SwitchImplementation(fn.function.name, comps[c].id);
        }
      }
      EXPECT_TRUE(type.manager->MarkInstantiable(type.v2).ok());
    }
    bool created = false;
    type.manager->CreateInstance(testbed.host(1 + t),
                                 [&](Result<ObjectId> r) {
                                   EXPECT_TRUE(r.ok());
                                   type.instance = *r;
                                   created = true;
                                 });
    testbed.simulation().RunWhile([&] { return !created; });
    types.push_back(std::move(type));
  }

  RunSummary summary;
  summary.state_hash = 1469598103934665603ull;
  UpdateCoordinator coordinator;

  // Batch 1: both types move to v2 together.
  {
    std::vector<UpdateCoordinator::Step> steps;
    for (Type& type : types) {
      steps.push_back({type.manager.get(), type.instance, type.v2});
    }
    bool done = false;
    coordinator.Execute(std::move(steps),
                        [&](UpdateCoordinator::Outcome outcome) {
                          EXPECT_TRUE(outcome.ok());
                          summary.state_hash =
                              Fnv(summary.state_hash, outcome.applied);
                          summary.state_hash =
                              Fnv(summary.state_hash, outcome.rolled_back);
                          summary.state_hash = Fnv(summary.state_hash,
                                                   outcome.notes.size());
                          done = true;
                        });
    testbed.simulation().RunWhile([&] { return !done; });
    testbed.simulation().Run();
  }

  // Batch 2: fails mid-apply. Both steps are legal against the pre-batch
  // state (the instance sits at v2; v3 and v2 both derive from it), but
  // after step one lands on v3 the second step's v3 -> v2 downgrade is
  // refused — and so is the rollback of step one, for the same reason.
  {
    Type& type = types[0];
    VersionId v3 = *type.manager->DeriveVersion(type.v2);
    EXPECT_TRUE(type.manager->MarkInstantiable(v3).ok());
    std::vector<UpdateCoordinator::Step> steps;
    steps.push_back({type.manager.get(), type.instance, v3});
    steps.push_back({type.manager.get(), type.instance, type.v2});
    bool done = false;
    coordinator.Execute(std::move(steps),
                        [&](UpdateCoordinator::Outcome outcome) {
                          EXPECT_FALSE(outcome.ok());
                          summary.state_hash =
                              Fnv(summary.state_hash, outcome.applied);
                          summary.state_hash =
                              Fnv(summary.state_hash, outcome.rolled_back);
                          summary.state_hash = Fnv(summary.state_hash,
                                                   outcome.notes.size());
                          done = true;
                        });
    testbed.simulation().RunWhile([&] { return !done; });
    testbed.simulation().Run();
  }

  for (const Type& type : types) {
    Dcdo* object = type.manager->FindInstance(type.instance);
    EXPECT_NE(object, nullptr);
    if (object == nullptr) continue;
    for (std::uint32_t part : object->version().parts()) {
      summary.state_hash = Fnv(summary.state_hash, part);
    }
  }
  testing::FinishSummary(testbed, summary);
  return summary;
}

// ===== Pinned legacy executions ============================================

struct Pinned {
  std::uint64_t digest;
  std::uint64_t fired;
  std::int64_t end_ns;
  std::uint64_t state_hash;
};

bool CaptureMode() { return std::getenv("DCDO_EQUIV_CAPTURE") != nullptr; }

void ExpectMatchesLegacy(const char* name, const Pinned& pinned,
                         RunSummary (*run)()) {
  const RunSummary actual = run();
  EXPECT_TRUE(actual.checker_clean) << name << ":\n" << actual.diagnostics;
  if (CaptureMode()) {
    std::printf("constexpr Pinned %s = {%lluull, %lluull, %lld, %lluull};\n",
                name, static_cast<unsigned long long>(actual.digest),
                static_cast<unsigned long long>(actual.fired),
                static_cast<long long>(actual.end_ns),
                static_cast<unsigned long long>(actual.state_hash));
    return;
  }
  EXPECT_EQ(actual.digest, pinned.digest) << name;
  EXPECT_EQ(actual.fired, pinned.fired) << name;
  EXPECT_EQ(actual.end_ns, pinned.end_ns) << name;
  EXPECT_EQ(actual.state_hash, pinned.state_hash) << name;
}

// Captured from the legacy continuation-chain implementation; see the file
// comment. Refresh ONLY for a change that deliberately alters the simulated
// schedule — never to paper over accidental drift from a control-flow edit.
constexpr Pinned kFetchChurnPipelined = {11990163674873321486ull, 97ull,
                                         16991345864, 10806504725990349857ull};
// kFetchChurnOneStream and kCoordinatorBatches were re-captured once when
// fetch_concurrency 1 moved from the sequential fetch path onto the
// pipeline: the host-wide one-stream bound, single-flight and NIC sharing
// change the schedule (FetchChurn: 103 events ending at 21,134,985,962 ns
// became 167 ending at 22,563,854,143 ns; CoordinatorBatches: 10 events
// became 16 at the same end time), while both state hashes stayed the same.
constexpr Pinned kFetchChurnOneStream = {11977715076626135513ull, 167ull,
                                         22563854143, 10806504725990349857ull};
// kRebindStorm was re-captured once when the remote directory-lookup model
// was retired: the previous implementation, run with the scenario's lookups
// switched to in-place shard queueing, produced this value, and the
// implementation without the remote model must reproduce it byte for byte.
constexpr Pinned kRebindStorm = {12624792850163606884ull, 96ull, 2976480,
                                 5379307963124079595ull};
constexpr Pinned kCoordinatorBatches = {16876413580541902132ull, 16ull,
                                        4811245836, 11468531600831910452ull};

TEST(FomEquivalence, FetchChurnPipelinedMatchesLegacy) {
  ExpectMatchesLegacy("kFetchChurnPipelined", kFetchChurnPipelined,
                      [] { return RunFetchChurn(8); });
}

TEST(FomEquivalence, FetchChurnOneStreamMatchesLegacy) {
  // fetch_concurrency = 1: the pipeline with one stream per host, plus the
  // inline poll/removal chain.
  ExpectMatchesLegacy("kFetchChurnOneStream", kFetchChurnOneStream,
                      [] { return RunFetchChurn(1); });
}

TEST(FomEquivalence, RebindStormMatchesLegacy) {
  ExpectMatchesLegacy("kRebindStorm", kRebindStorm, &RunRebindStorm);
}

TEST(FomEquivalence, CoordinatorBatchesMatchLegacy) {
  ExpectMatchesLegacy("kCoordinatorBatches", kCoordinatorBatches,
                      &RunCoordinatorBatches);
}

// Run-to-run stability of the instrument itself: two runs must agree before
// equality with a pinned capture means anything (a global counter or
// container-order dependence would already break this).
TEST(FomEquivalence, LegacyBaselineIsRunToRunStable) {
  EXPECT_TRUE(RunFetchChurn() == RunFetchChurn());
  EXPECT_TRUE(RunRebindStorm() == RunRebindStorm());
}

TEST(FomEquivalence, BatchedSessionTrafficIsRunToRunStable) {
  const RunSummary first = RunBatchedSessionTraffic();
  ASSERT_GT(first.fired, 0u);
  EXPECT_TRUE(first.checker_clean) << first.diagnostics;
  EXPECT_TRUE(first == RunBatchedSessionTraffic());
}

}  // namespace
}  // namespace dcdo
