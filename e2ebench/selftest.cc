// Attribution self-test of the traced binary (`e2e_traced --selftest`) and
// the span section of its report.
//
// 1. A synthetic run of busy-waits of known length inside known nesting
//    checks the self-time arithmetic: each child is subtracted from its
//    parent exactly once, self times sum to the root, and the unclaimed
//    share is the root's own time plus unknown-layer time over the root.
// 2. Events scheduled through the interposed engine check callback
//    ownership: a callback scheduled with no span open runs unclaimed, one
//    scheduled under a span runs under that span's layer.
// 3. A short run of every workload checks that every span closes, that each
//    interposed entry point fires on the workloads where it should and stays
//    silent where it should not, so a wrapper that stops matching (or a
//    layer that starts doing work it should not) is caught, and that every
//    registered endpoint handler is attributed to a known module.
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "spans.h"
#include "workloads.h"

namespace e2e {

std::vector<std::string>& UnrecognisedHandlerTypes();  // wrappers.cc

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void Spin(std::int64_t ns) {
  std::int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

constexpr std::int64_t kMs = 1000000;

void SelfTimeArithmetic() {
  static SpanSite root{"selftest.root", Layer::kBench};
  static SpanSite outer{"selftest.outer", Layer::kCore};
  static SpanSite inner{"selftest.inner", Layer::kDfm};
  static SpanSite leaf{"selftest.leaf", Layer::kApp};
  static SpanSite stray{"selftest.stray", Layer::kUnknown};
  SpanRecorder& r = SpanRecorder::Get();
  r.SetActive(true);
  r.ResetStats();
  {
    SpanScope s0(root);
    Spin(1 * kMs);
    {
      SpanScope a(outer);
      Spin(2 * kMs);
      {
        SpanScope b(inner);
        Spin(3 * kMs);
        SpanScope c(leaf);
        Spin(1 * kMs);
      }
      SpanScope b2(inner);
      Spin(1 * kMs);
    }
    SpanScope u(stray);
    Spin(1 * kMs);
  }
  Expect(r.depth() == 0, "synthetic: every span closed");
  auto R = r.Site("selftest.root");
  auto O = r.Site("selftest.outer");
  auto I = r.Site("selftest.inner");
  auto L = r.Site("selftest.leaf");
  auto U = r.Site("selftest.stray");
  Expect(R.count == 1 && O.count == 1 && I.count == 2 && L.count == 1 &&
             U.count == 1,
         "synthetic: span counts");
  Expect(L.self_ns == L.inclusive_ns, "synthetic: a leaf's self is its span");
  Expect(I.self_ns == I.inclusive_ns - L.inclusive_ns,
         "synthetic: inner self = inner spans - leaf");
  Expect(O.self_ns == O.inclusive_ns - I.inclusive_ns,
         "synthetic: outer self = outer - both inner spans (leaf not "
         "subtracted twice)");
  Expect(R.self_ns == R.inclusive_ns - O.inclusive_ns - U.inclusive_ns,
         "synthetic: root self = root - direct children");
  Expect(r.TotalSelf() == R.inclusive_ns,
         "synthetic: self times sum exactly to the root");
  // Busy-waits set lower bounds; a preempted host only adds time.
  Expect(L.self_ns >= 1 * kMs && I.self_ns >= 4 * kMs &&
             O.self_ns >= 2 * kMs && U.self_ns >= 1 * kMs &&
             R.self_ns >= 1 * kMs,
         "synthetic: self times cover their busy-waits");
  Expect(L.self_ns < 3 * kMs && I.self_ns < 12 * kMs && O.self_ns < 6 * kMs,
         "synthetic: self times exclude their children's busy-waits");
  SpanRecorder::Closure c = r.ComputeClosure("selftest.root");
  Expect(c.root_ns == R.inclusive_ns && c.unclaimed_ns == R.self_ns + U.self_ns,
         "synthetic: unclaimed = root self + unknown-layer self");
  Expect(c.unclaimed_share ==
             static_cast<double>(R.self_ns + U.self_ns) /
                 static_cast<double>(R.inclusive_ns),
         "synthetic: unclaimed_share = unclaimed / root");
  Expect(c.unclaimed_share > 0.15 && c.unclaimed_share < 0.45,
         "synthetic: unclaimed_share near 2/9 (" +
             std::to_string(c.unclaimed_share) + ")");
  Expect(c.closure_error == 0, "synthetic: closure error is 0");
}

void CallbackOwnership() {
  static SpanSite root{"selftest.events", Layer::kBench};
  static SpanSite owner{"selftest.owner", Layer::kCore};
  SpanRecorder& r = SpanRecorder::Get();
  r.SetActive(true);
  dcdo::sim::Simulation sim;
  sim.Schedule(dcdo::sim::SimDuration::Seconds(1), [] { Spin(2 * kMs); });
  {
    SpanScope s(owner);
    sim.Schedule(dcdo::sim::SimDuration::Seconds(2), [] { Spin(1 * kMs); });
  }
  r.ResetStats();  // keep only the events' own run
  {
    SpanScope s(root);
    sim.Run();
  }
  Expect(r.depth() == 0, "events: every span closed");
  auto stray = r.Site("event.unknown");
  auto owned = r.Site("event.core");
  Expect(stray.count == 1 && owned.count == 1,
         "events: one callback per owner (unknown " +
             std::to_string(stray.count) + ", core " +
             std::to_string(owned.count) + ")");
  Expect(r.LayerSelf(Layer::kUnknown) >= 2 * kMs &&
             r.LayerSelf(Layer::kCore) >= 1 * kMs,
         "events: each callback's time is charged to its owner's layer");
  SpanRecorder::Closure c = r.ComputeClosure("selftest.events");
  Expect(c.unclaimed_ns ==
             r.Site("selftest.events").self_ns + r.LayerSelf(Layer::kUnknown),
         "events: a callback scheduled with no span open is unclaimed");
  Expect(c.unclaimed_share > 0.5 && c.unclaimed_share < 1.0,
         "events: unclaimed_share near 2/3 (" +
             std::to_string(c.unclaimed_share) + ")");
}

struct Coverage {
  const char* workload;
  int seconds;  // long enough for every reconfiguration kind to occur
  std::vector<const char*> fire;    // must fire in the timed phase
  std::vector<const char*> silent;  // must not fire in the timed phase
};

// Entry points every workload's call path crosses.
const std::vector<const char*> kCallPath = {
    "sim.RunUntil",
    "sim.Simulation::Schedule",
    "sim.SimNetwork::Send",
    "rpc.RpcClient::Invoke",
    "rpc.RpcTransport::Invoke",
    "naming.BindingCache::Resolve",
    "dfm.DynamicFunctionMapper::Acquire",
    "handler.core",
    "app.body",
};
// Entry points only reconfiguration reaches.
const std::vector<const char*> kReconfigPath = {
    "core.Dcdo::EvolveTo",
    "dfm.DynamicFunctionMapper::IncorporateComponent",
    "dfm.DynamicFunctionMapper::RemoveComponent",
    "component.ComponentFetcher::AcquireAll",
    "runtime.FomScheduler::Start",
    "runtime.FomScheduler::Wake",
    "naming.BindingAgent::Bind",
    "rpc.RpcTransport::RegisterEndpoint",
};

std::vector<const char*> Join(std::vector<const char*> a,
                              const std::vector<const char*>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

void WorkloadCoverage() {
  std::vector<const char*> churn_only = {
      "core.DcdoManager::EvolveInstanceTo",
      "core.DcdoManager::MigrateInstance",
      "core.DcdoManager::CreateInstanceAt",
      "core.DcdoManager::DestroyInstance",
      "naming.BindingAgent::Unbind",
      "naming.BindingAgent::Lookup",
      "rpc.RpcTransport::UnregisterEndpoint",
  };
  std::vector<const char*> evolve_only = {
      "core.UpdateCoordinator::Execute",
      "core.DcdoManager::MigrateInstance",
      "component.ComponentFetcher::Prefetch",
  };
  std::vector<Coverage> table = {
      {"steady_calls", 1, kCallPath,
       Join(Join(kReconfigPath, churn_only), evolve_only)},
      {"reconfig_churn", 1, Join(Join(kCallPath, kReconfigPath), churn_only),
       {"core.UpdateCoordinator::Execute"}},
      {"evolve_under_load", 3, Join(Join(kCallPath, kReconfigPath), evolve_only),
       {"core.DcdoManager::DestroyInstance",
        "core.DcdoManager::CreateInstanceAt"}},
  };
  for (const Coverage& row : table) {
    SpanRecorder& r = SpanRecorder::Get();
    r.SetActive(true);
    r.ResetStats();
    RunOptions options;
    options.workload = row.workload;
    options.seed = 1;
    options.seconds = row.seconds;
    options.setups = 1;
    RunReport report;
    bool ran = RunWorkload(options, &report);
    std::string w = row.workload;
    Expect(ran && report.correct, w + ": run is correct " + report.error);
    Expect(r.depth() == 0, w + ": every span closed");
    SpanRecorder::Closure c = r.ComputeClosure("bench.timed");
    Expect(c.root_ns > 0 && c.closure_error == 0,
           w + ": layer self times close on the timed host time");
    for (const char* name : row.fire) {
      auto stats = r.Site(name);
      Expect(stats.count > 0, w + ": " + name + " fired " +
                                  std::to_string(stats.count) + " times");
    }
    for (const char* name : row.silent) {
      auto stats = r.Site(name);
      Expect(stats.count == 0, w + ": " + name + " silent (" +
                                   std::to_string(stats.count) + ")");
    }
    std::printf("  %s timed-phase sites:\n", row.workload);
    for (const auto& site : r.sites()) {
      if (site.count == 0) continue;
      std::printf("    %-52s %10llu\n", site.name,
                  static_cast<unsigned long long>(site.count));
    }
  }
  const std::vector<std::string>& unrecognised = UnrecognisedHandlerTypes();
  Expect(unrecognised.empty(),
         "every registered endpoint handler has a known module (" +
             std::to_string(unrecognised.size()) + " unrecognised" +
             (unrecognised.empty() ? "" : ", first " + unrecognised.front()) +
             ")");
}

}  // namespace

int RunSelfTest() {
  SelfTimeArithmetic();
  CallbackOwnership();
  WorkloadCoverage();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

void WriteSpanReport(std::ostream& out) {
  const SpanRecorder& r = SpanRecorder::Get();
  out << ", \"spans\": {";
  bool first = true;
  for (const auto& site : r.sites()) {
    if (site.count == 0) continue;
    out << (first ? "" : ", ") << "\"" << site.name << "\": [" << site.count
        << ", " << site.inclusive_ns << ", " << site.self_ns << "]";
    first = false;
  }
  out << "}, \"layer_self_ns\": {";
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    out << (l ? ", " : "") << "\"" << LayerName(static_cast<Layer>(l))
        << "\": " << r.LayerSelf(static_cast<Layer>(l));
  }
  out << "}, \"layer_kind_self_ns\": {";
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    out << (l ? ", " : "") << "\"" << LayerName(static_cast<Layer>(l))
        << "\": {";
    for (int k = 0; k < static_cast<int>(OpKind::kCount); ++k) {
      out << (k ? ", " : "") << "\"" << OpKindName(static_cast<OpKind>(k))
          << "\": "
          << r.LayerKindSelf(static_cast<Layer>(l), static_cast<OpKind>(k));
    }
    out << "}";
  }
  SpanRecorder::Closure c = r.ComputeClosure("bench.timed");
  out << "}, \"closure\": {\"root_ns\": " << c.root_ns
      << ", \"unclaimed_ns\": " << c.unclaimed_ns
      << ", \"unclaimed_share\": " << c.unclaimed_share
      << ", \"closure_error\": " << c.closure_error
      << "}, \"unrecognised_handlers\": " << UnrecognisedHandlerTypes().size()
      << ", \"spans_closed\": " << r.spans_closed()
      << ", \"open_spans\": " << r.depth();
}

}  // namespace e2e
