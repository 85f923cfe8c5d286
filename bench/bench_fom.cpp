// E17 — FOM runtime: heap allocations and wall time per operation.
//
// The Fom conversion (DESIGN.md §16) changes *control flow*, not simulated
// cost: every SimTime_* entry must stay byte-identical to the continuation-
// chain implementation. The win is measured here, in two host-side units:
//
//   * allocations — this binary replaces global operator new/delete with
//     counting forwarders, and each workload reports the number of heap
//     allocations performed inside the measured operation as the `allocs`
//     counter (and `alloc_bytes` for the cumulative request size). The
//     legacy chains paid one shared_ptr control block plus a std::function
//     spill per continuation step; a Fom carries its whole state in one
//     pooled block, so E17 must show ≥30% fewer allocations on the
//     500-function creation and 4-type coordinated-evolution workloads.
//   * wall time — Wall_E17_* run the E13-style fetch/evolution churn on
//     the single-threaded engine and report host time. Less allocator traffic
//     and fewer event-queue round trips is a real-time win even when the
//     simulated clock is unchanged.
//
// SimTime_E17_CreateDcdo/500/50/1 must equal SimTime_CreateDcdo/500/50/0 and
// SimTime_E13_CreateDcdo/500/50/1; SimTime_E17_CoordinatedEvolution/4/1 must
// equal SimTime_E13_CoordinatedEvolution/4/1. The alloc counters ride along
// in BENCH_dcdo.json so regressions in allocator discipline show up in
// review even though bench.sh --compare only gates on time.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>

#include "bench_util.h"
#include "core/coordinator.h"

// ===== Global allocation counting =====
//
// Counting forwarders around malloc/free. Relaxed atomics: the benchmark
// workloads are single-threaded, the counters only need to not tear.

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocAligned(std::size_t size, std::size_t alignment) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

// Out of line on purpose: were the replaced operator delete inlined down to
// std::free, GCC would pair that free with the caller's operator new and
// report -Wmismatched-new-delete, although both sides are the replacements
// above and below.
[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }

struct AllocSnapshot {
  std::uint64_t count;
  std::uint64_t bytes;
};

AllocSnapshot TakeAllocSnapshot() {
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = CountedAllocAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = CountedAllocAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace dcdo::bench {
namespace {

bool SmokeMode() { return std::getenv("DCDO_BENCH_SMOKE") != nullptr; }

Testbed::Options FomOptions(int fetch_concurrency) {
  Testbed::Options options = BenchOptions();
  options.cost_model.fetch_concurrency = fetch_concurrency;
  return options;
}

void ReportAllocs(benchmark::State& state, const AllocSnapshot& before,
                  const AllocSnapshot& after) {
  state.counters["allocs"] = benchmark::Counter(
      static_cast<double>(after.count - before.count), benchmark::Counter::kAvgIterations);
  state.counters["alloc_bytes"] = benchmark::Counter(
      static_cast<double>(after.bytes - before.bytes), benchmark::Counter::kAvgIterations);
}

// The paper's 500-fn / 50-component cold-cache creation (E13 workload) with
// the allocation meter around the CreateInstance drive.
void SimTime_E17_CreateDcdo(benchmark::State& state) {
  std::size_t functions = static_cast<std::size_t>(state.range(0));
  std::size_t components = static_cast<std::size_t>(state.range(1));
  int concurrency = static_cast<int>(state.range(2));
  for (auto _ : state) {
    Testbed testbed{FomOptions(concurrency)};  // cold caches
    auto grid = MakeFunctionGrid(testbed, "grid", functions, components);
    auto manager = MakeManagerWithVersion(testbed, "bench", grid,
                                          MakeSingleVersionExplicit());
    AllocSnapshot before = TakeAllocSnapshot();
    double seconds = SimSeconds(testbed, [&] {
      (void)CreateInstanceBlocking(testbed, *manager, testbed.host(1));
    });
    AllocSnapshot after = TakeAllocSnapshot();
    ReportAllocs(state, before, after);
    state.SetIterationTime(seconds);
  }
  state.SetLabel(std::to_string(functions) + " fns / " +
                 std::to_string(components) + " comps, concurrency " +
                 std::to_string(concurrency));
}
BENCHMARK(SimTime_E17_CreateDcdo)
    ->UseManualTime()
    ->Iterations(1)
    ->Args({500, 50, 1});

// The 4-type coordinated evolution batch (E13 workload): prefetch + four
// strictly ordered EvolveInstanceTo applies through UpdateCoordinator.
void SimTime_E17_CoordinatedEvolution(benchmark::State& state) {
  std::size_t types = static_cast<std::size_t>(state.range(0));
  int concurrency = static_cast<int>(state.range(1));
  constexpr std::size_t kBaseComponents = 10;
  constexpr std::size_t kAddedComponents = 10;
  constexpr std::size_t kFunctions = 100;
  for (auto _ : state) {
    Testbed testbed{FomOptions(concurrency)};
    std::vector<std::unique_ptr<DcdoManager>> managers;
    std::vector<UpdateCoordinator::Step> steps;
    for (std::size_t t = 0; t < types; ++t) {
      std::string type_name = "type" + std::to_string(t);
      auto v1_grid = MakeFunctionGrid(testbed, type_name + "v1", kFunctions,
                                      kBaseComponents);
      auto v2_grid = MakeFunctionGrid(testbed, type_name + "v2", kFunctions,
                                      kAddedComponents);
      auto manager = MakeManagerWithVersion(testbed, type_name, v1_grid,
                                            MakeMultiVersionIncreasing());
      for (const ImplementationComponent& comp : v2_grid) {
        if (!manager->PublishComponent(comp).ok()) std::abort();
      }
      VersionId v1 = manager->current_version();
      VersionId v2 = *manager->DeriveVersion(v1);
      DfmDescriptor* d2 = *manager->MutableDescriptor(v2);
      for (const ImplementationComponent& comp : v2_grid) {
        if (!d2->IncorporateComponent(comp).ok()) std::abort();
        for (const FunctionImplDescriptor& fn : comp.functions) {
          if (!d2->EnableFunction(fn.function.name, comp.id).ok()) {
            std::abort();
          }
        }
      }
      if (!manager->MarkInstantiable(v2).ok()) std::abort();
      ObjectId instance =
          CreateInstanceBlocking(testbed, *manager, testbed.host(1));
      steps.push_back({manager.get(), instance, v2});
      managers.push_back(std::move(manager));
    }
    UpdateCoordinator coordinator;
    AllocSnapshot before = TakeAllocSnapshot();
    double seconds = SimSeconds(testbed, [&] {
      bool done = false;
      coordinator.Execute(std::move(steps),
                          [&](UpdateCoordinator::Outcome outcome) {
                            if (!outcome.ok()) std::abort();
                            done = true;
                          });
      testbed.simulation().RunWhile([&] { return !done; });
    });
    AllocSnapshot after = TakeAllocSnapshot();
    ReportAllocs(state, before, after);
    state.SetIterationTime(seconds);
  }
  state.SetLabel(std::to_string(types) + " types x +" +
                 std::to_string(kAddedComponents) + " comps, concurrency " +
                 std::to_string(concurrency));
}
BENCHMARK(SimTime_E17_CoordinatedEvolution)
    ->UseManualTime()
    ->Iterations(1)
    ->Args({4, 1});

// The E13-style churn suite on the single-threaded engine, measured in host
// time: four instances over three derived versions, rounds of random
// evolve / migrate. This is the wall-clock contract: same simulated
// schedule, fewer event round trips and allocations per round.
void Wall_E17_FetchChurnInline(benchmark::State& state) {
  int concurrency = static_cast<int>(state.range(0));
  std::size_t rounds = SmokeMode() ? 4 : 24;
  constexpr std::size_t kComponents = 6;
  constexpr std::size_t kFunctions = 36;
  std::uint64_t total_allocs = 0;
  for (auto _ : state) {
    Testbed testbed{FomOptions(concurrency)};
    auto grid =
        MakeFunctionGrid(testbed, "churn", kFunctions, kComponents, 64 * 1024);
    auto manager = MakeManagerWithVersion(testbed, "churn", grid,
                                          MakeMultiVersionIncreasing());
    VersionId v1 = manager->current_version();
    std::vector<VersionId> versions{v1};
    for (int d = 0; d < 3; ++d) {
      VersionId derived = *manager->DeriveVersion(v1);
      if (!manager->MarkInstantiable(derived).ok()) std::abort();
      versions.push_back(derived);
    }
    std::vector<ObjectId> instances;
    for (int i = 0; i < 4; ++i) {
      instances.push_back(
          CreateInstanceBlocking(testbed, *manager, testbed.host(1 + i % 2)));
    }
    std::mt19937 rng(1999);
    AllocSnapshot before = TakeAllocSnapshot();
    for (std::size_t round = 0; round < rounds; ++round) {
      const ObjectId& instance = instances[rng() % instances.size()];
      bool done = false;
      // Policy-refused transitions (downgrades under the increasing policy)
      // still drive the full validation path; any status counts as done.
      if (rng() % 2 == 0) {
        manager->EvolveInstanceTo(instance, versions[rng() % versions.size()],
                                  [&](Status) { done = true; });
      } else {
        manager->MigrateInstance(instance, testbed.host(1 + rng() % 4),
                                 [&](Status) { done = true; });
      }
      testbed.simulation().RunWhile([&] { return !done; });
    }
    AllocSnapshot after = TakeAllocSnapshot();
    total_allocs += after.count - before.count;
  }
  state.counters["allocs"] = benchmark::Counter(
      static_cast<double>(total_allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(Wall_E17_FetchChurnInline)->Arg(1)->Arg(8);

}  // namespace
}  // namespace dcdo::bench

DCDO_BENCH_MAIN();
