// Testbed: one-call assembly of the simulated Centurion cluster.
//
// The paper's experiments ran on a 16-node subset of the Legion "Centurion"
// machine (dual 400 MHz Pentium IIs, 100 Mbps switched Ethernet). Testbed
// wires up the full substrate — simulation, cost model, network, hosts,
// binding agent, RPC transport, and the native-code registry — so tests,
// benches, and examples start from the same environment the paper did.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "check/check_context.h"
#include "common/status.h"
#include "component/native_code_registry.h"
#include "naming/binding_agent.h"
#include "naming/name_service.h"
#include "rpc/client.h"
#include "rpc/transport.h"
#include "sim/host.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "trace/trace_context.h"

namespace dcdo {

class Testbed {
 public:
  struct Options {
    int host_count = 16;
    // All hosts x86/Linux by default (the Centurion subset was homogeneous);
    // set true to alternate architectures for heterogeneity experiments.
    bool heterogeneous = false;
    sim::CostModel cost_model = {};
    // Install an always-on CheckContext (invariants + race detection) over
    // this testbed. Default on — tests run checked; benches measuring the
    // raw runtime turn it off. No effect when the build has DCDO_CHECKING
    // off.
    bool checking = true;
    check::CheckContext::Options check_options = {};
    // Install a TraceContext (causal spans + metrics) over this testbed.
    // Default off — tracing is opt-in per scenario so benches and the bulk
    // of the suite measure the uninstrumented fast path. No effect when the
    // build has DCDO_TRACING off.
    bool tracing = false;
    trace::TraceContext::Options trace_options = {};
  };

  explicit Testbed(const Options& options);
  Testbed() : Testbed(Options{}) {}
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulation& simulation() { return simulation_; }
  const sim::CostModel& cost_model() const { return network_->cost_model(); }
  sim::SimNetwork& network() { return *network_; }
  BindingAgent& agent() { return agent_; }
  NameService& names() { return names_; }
  rpc::RpcTransport& transport() { return *transport_; }
  NativeCodeRegistry& registry() { return registry_; }

  sim::SimHost* host(std::size_t index) { return hosts_.at(index).get(); }
  std::size_t host_count() const { return hosts_.size(); }

  // Hosts serving directory shards (empty unless the cost model opts into
  // the sharded/leased naming directory; see CostModel::NamingDirectoryModeled).
  // Shard hosts take NodeIds above the regular host range.
  sim::SimHost* shard_host(std::size_t shard) {
    return shard_hosts_.at(shard).get();
  }
  std::size_t shard_host_count() const { return shard_hosts_.size(); }

  // A client running on host `index` with its own binding cache.
  std::unique_ptr<rpc::RpcClient> MakeClient(std::size_t host_index);

  // Drives the simulation until idle.
  void RunAll() { simulation_.Run(); }

  // The installed checking context, or nullptr when checking is off (by
  // option or because the build has DCDO_CHECKING off).
  check::CheckContext* checker() { return checker_.get(); }

  // The installed tracing context, or nullptr when tracing is off (by
  // option or because the build has DCDO_TRACING off).
  trace::TraceContext* tracer() { return tracer_.get(); }

  // Exports the collected trace as Chrome trace-event JSON (chrome://tracing
  // / Perfetto). Snapshots the substrate counters into the metrics registry
  // first so the export carries them. Fails when tracing is not installed.
  [[nodiscard]] Status DumpTrace(const std::string& path);

 private:
  sim::Simulation simulation_;
  sim::CostModel cost_model_;
  std::unique_ptr<check::CheckContext> checker_;
  std::unique_ptr<trace::TraceContext> tracer_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::vector<std::unique_ptr<sim::SimHost>> hosts_;
  std::vector<std::unique_ptr<sim::SimHost>> shard_hosts_;
  BindingAgent agent_;
  NameService names_;
  std::unique_ptr<rpc::RpcTransport> transport_;
  NativeCodeRegistry registry_;
};

}  // namespace dcdo
