// Real-thread hammering of the DynamicFunctionMapper: the mapper is the one
// component of the reproduction that must be *actually* thread-safe (every
// call in a real deployment races configuration changes). These tests run
// OS threads, not simulated ones.
#include <atomic>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dfm/mapper.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

constexpr auto kArch = sim::Architecture::kX86Linux;

class NullCtx : public CallContext {
 public:
  Result<ByteBuffer> CallInternal(const std::string&,
                                  const ByteBuffer&) override {
    return FunctionMissingError("none");
  }
  ObjectId self_id() const override { return ObjectId(); }
  void BlockOnOutcall(double) override {}
};

TEST(MapperConcurrency, CallersRaceConfigurationSafely) {
  NativeCodeRegistry registry;
  auto comp_a = testing::MakeEchoComponent(registry, "ca", {"f"});
  auto comp_b = testing::MakeEchoComponent(registry, "cb", {"f"});
  DynamicFunctionMapper mapper;
  ASSERT_TRUE(mapper.IncorporateComponent(comp_a, registry, kArch).ok());
  ASSERT_TRUE(mapper.IncorporateComponent(comp_b, registry, kArch).ok());
  ASSERT_TRUE(mapper.EnableFunction("f", comp_a.id).ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> successes{0};
  std::atomic<std::uint64_t> typed_failures{0};
  // The configurator starts only once every caller has finished one
  // Acquire. Without it the configurator can run all its iterations before
  // any caller is scheduled, leaving nothing raced and no success counted.
  constexpr int kCallers = 4;
  std::latch callers_started(kCallers);

  // 4 caller threads: every outcome must be success or a typed evolution
  // error; anything else (crash, data race, wrong payload) fails the test.
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      NullCtx ctx;
      ByteBuffer args = ByteBuffer::FromString("x");
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        auto guard = mapper.Acquire("f", CallOrigin::kExternal);
        if (first) {
          callers_started.count_down();
          first = false;
        }
        if (!guard.ok()) {
          ASSERT_TRUE(guard.status().code() == ErrorCode::kFunctionDisabled ||
                      guard.status().code() == ErrorCode::kFunctionMissing)
              << guard.status();
          ++typed_failures;
          continue;
        }
        auto result = guard->body()(ctx, args);
        ASSERT_TRUE(result.ok());
        std::string reply = result->ToString();
        ASSERT_TRUE(reply == "ca.f:x" || reply == "cb.f:x") << reply;
        ++successes;
      }
    });
  }

  // 1 configurator thread: keeps switching f's implementation and
  // occasionally disables/re-enables it.
  std::thread configurator([&] {
    callers_started.wait();
    bool to_b = true;
    for (int i = 0; i < 3000; ++i) {
      ObjectId target = to_b ? comp_b.id : comp_a.id;
      (void)mapper.SwitchImplementation("f", target);
      to_b = !to_b;
      if (i % 100 == 0) {
        const DfmEntry* enabled = nullptr;
        // Snapshot under the mapper's own synchronization via public API.
        enabled = mapper.state().EnabledImpl("f");
        if (enabled != nullptr) {
          (void)mapper.DisableFunction("f", enabled->component,
                                       /*respect_active_dependents=*/false);
          (void)mapper.EnableFunction("f", target);
        }
      }
    }
    stop.store(true, std::memory_order_relaxed);
  });

  configurator.join();
  stop.store(true);
  for (std::thread& thread : callers) thread.join();

  EXPECT_GT(successes.load(), 0u);
  EXPECT_EQ(mapper.TotalActive(), 0) << "all guards released";
  // The mapper's own counters are consistent with what the threads saw.
  EXPECT_GE(mapper.calls_resolved(), successes.load());
}

TEST(MapperConcurrency, RemovalRacesActiveGuards) {
  NativeCodeRegistry registry;
  auto comp = testing::MakeEchoComponent(registry, "cr", {"f"});
  DynamicFunctionMapper mapper;
  ASSERT_TRUE(mapper.IncorporateComponent(comp, registry, kArch).ok());
  ASSERT_TRUE(mapper.EnableFunction("f", comp.id).ok());

  std::atomic<bool> stop{false};
  std::thread caller([&] {
    NullCtx ctx;
    while (!stop.load(std::memory_order_relaxed)) {
      auto guard = mapper.Acquire("f", CallOrigin::kExternal);
      if (guard.ok()) {
        (void)guard->body()(ctx, ByteBuffer{});
      }
    }
  });

  // Try to remove while calls are in flight: must either succeed (no active
  // threads at that instant) or fail with kActiveThreads — never crash.
  int removed_attempts = 0;
  bool removed = false;
  for (int i = 0; i < 2000; ++i) {
    Status status = mapper.RemoveComponent(comp.id);
    ++removed_attempts;
    if (status.ok()) {
      removed = true;
      break;
    }
    ASSERT_EQ(status.code(), ErrorCode::kActiveThreads);
  }
  stop.store(true);
  caller.join();
  if (!removed) {
    // All attempts raced with an active call (likely on a fast machine, where
    // the caller thread reacquires immediately). Give it one guaranteed-quiet
    // chance now that the caller has stopped.
    EXPECT_TRUE(mapper.RemoveComponent(comp.id).ok());
  }
  EXPECT_FALSE(mapper.state().HasComponent(comp.id));
  EXPECT_GT(removed_attempts, 0);
}

}  // namespace
}  // namespace dcdo
