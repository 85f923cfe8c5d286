// E4 — Implementation download times (paper Section 4, "Cost").
//
// Paper claims reproduced here:
//   * a 5.1 MB object implementation (typical for moderately sized Legion
//     objects) downloads in 15-25 s;
//   * a 550 KB implementation downloads in about 4 s.
//
// The sweep also characterizes the transfer-size curve (session setup +
// goodput-limited streaming) that the evolution benches build on.
#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "common/strings.h"
#include "component/ico.h"

namespace dcdo::bench {
namespace {

// Executable download via the class-object path (host file store).
void SimTime_ExecutableDownload(benchmark::State& state) {
  std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Testbed testbed{BenchOptions()};
    double seconds = SimSeconds(testbed, [&] {
      bool done = false;
      testbed.network().BulkTransfer(testbed.host(0)->node(),
                                     testbed.host(1)->node(), bytes,
                                     [&] { done = true; });
      testbed.simulation().RunWhile([&] { return !done; });
    });
    state.SetIterationTime(seconds);
  }
  state.SetLabel(HumanBytes(bytes));
}
BENCHMARK(SimTime_ExecutableDownload)
    ->UseManualTime()
    ->Iterations(3)
    ->Arg(100'000)
    ->Arg(550'000)     // paper: ~4 s
    ->Arg(1'000'000)
    ->Arg(2'500'000)
    ->Arg(5'100'000)   // paper: 15-25 s
    ->Arg(10'000'000);

// Component download via the ICO fetch path (ends in the component cache).
void SimTime_ComponentFetch(benchmark::State& state) {
  std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Testbed testbed{BenchOptions()};
    auto comp = ComponentBuilder("blob")
                    .SetCodeBytes(bytes)
                    .AddFunction("f", "v()", "blob/f")
                    .Build();
    if (!comp.ok()) std::abort();
    testbed.registry().Register("blob/f", ImplementationType::Portable(),
                                [](CallContext&, const ByteBuffer&) {
                                  return Result<ByteBuffer>(ByteBuffer{});
                                });
    ImplementationComponentObject ico(testbed.host(0), &testbed.transport(),
                                      &testbed.agent(), *comp);
    double seconds = SimSeconds(testbed, [&] {
      bool done = false;
      ico.StreamTo(testbed.host(1), [&](Status status) {
        if (!status.ok()) std::abort();
        done = true;
      });
      testbed.simulation().RunWhile([&] { return !done; });
    });
    state.SetIterationTime(seconds);
  }
  state.SetLabel("component " + HumanBytes(bytes));
}
BENCHMARK(SimTime_ComponentFetch)
    ->UseManualTime()
    ->Iterations(3)
    ->Arg(100'000)
    ->Arg(550'000)
    ->Arg(5'100'000);

// The cached path for contrast: ~free (the paper's 200 us applies at
// incorporate time, not fetch time).
void SimTime_ComponentFetchCached(benchmark::State& state) {
  Testbed testbed{BenchOptions()};
  auto comp = ComponentBuilder("blob")
                  .SetCodeBytes(550'000)
                  .AddFunction("f", "v()", "blob/f")
                  .Build();
  if (!comp.ok()) std::abort();
  testbed.registry().Register("blob/f", ImplementationType::Portable(),
                              [](CallContext&, const ByteBuffer&) {
                                return Result<ByteBuffer>(ByteBuffer{});
                              });
  ImplementationComponentObject ico(testbed.host(0), &testbed.transport(),
                                    &testbed.agent(), *comp);
  testbed.host(1)->CacheComponent(comp->id, comp->code_bytes);
  for (auto _ : state) {
    double seconds = SimSeconds(testbed, [&] {
      bool done = false;
      ico.StreamTo(testbed.host(1), [&](Status) { done = true; });
      testbed.simulation().RunWhile([&] { return !done; });
    });
    state.SetIterationTime(std::max(seconds, 1e-9));
  }
  state.SetLabel("component 550 KB, already cached");
}
BENCHMARK(SimTime_ComponentFetchCached)->UseManualTime()->Iterations(3);

}  // namespace
}  // namespace dcdo::bench

DCDO_BENCH_MAIN();
