#include "runtime/testbed.h"

#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "trace/chrome_trace.h"

namespace dcdo {

Testbed::Testbed(const Options& options) : cost_model_(options.cost_model) {
#if defined(DCDO_CHECK_ENABLED)
  if (options.checking) {
    // Installed before anything else exists, so every binding cache and
    // DCDO constructed over this testbed registers its probe.
    checker_ = std::make_unique<check::CheckContext>(options.check_options);
    checker_->Install();
    checker_->AttachSimulation(&simulation_);
  }
#endif
#if defined(DCDO_TRACE_ENABLED)
  if (options.tracing) {
    // Before the network exists: the first spans come from the substrate.
    tracer_ = std::make_unique<trace::TraceContext>(options.trace_options);
    tracer_->AttachSimulation(&simulation_);
    tracer_->Install();
  }
#endif
  network_ = std::make_unique<sim::SimNetwork>(&simulation_, cost_model_);
  transport_ = std::make_unique<rpc::RpcTransport>(network_.get());
#if defined(DCDO_CHECK_ENABLED)
  if (checker_) {
    checker_->SetEndpointLiveness(
        [this](std::uint32_t node, std::uint64_t pid, std::uint64_t epoch) {
          return transport_->EndpointEpoch(static_cast<sim::NodeId>(node),
                                           static_cast<sim::ProcessId>(pid)) ==
                     epoch &&
                 epoch != 0;
        });
    checker_->SetNetworkProbe([this]() {
      check::NetworkCounters counters;
      counters.sent = network_->messages_sent();
      counters.delivered = network_->messages_delivered();
      counters.dropped_in_flight = network_->messages_dropped_in_flight();
      counters.in_flight = network_->messages_in_flight();
      return counters;
    });
  }
#endif
  static constexpr sim::Architecture kRotation[] = {
      sim::Architecture::kX86Linux, sim::Architecture::kSparcSolaris,
      sim::Architecture::kAlphaOsf, sim::Architecture::kX86Nt};
  for (int i = 0; i < options.host_count; ++i) {
    sim::Architecture arch =
        options.heterogeneous ? kRotation[i % 4] : sim::Architecture::kX86Linux;
    hosts_.push_back(std::make_unique<sim::SimHost>(
        &simulation_, network_.get(), static_cast<sim::NodeId>(i + 1), arch));
  }
  if (cost_model_.NamingDirectoryModeled()) {
    // The partitioned/leased directory: one dedicated host per shard, with
    // NodeIds stacked above the regular host range so workload hosts keep
    // their legacy ids. With the default cost model this block never runs
    // and the agent stays the unattached monolithic store.
    std::vector<sim::NodeId> shard_nodes;
    shard_nodes.reserve(
        static_cast<std::size_t>(cost_model_.naming_shard_count));
    for (int s = 0; s < cost_model_.naming_shard_count; ++s) {
      auto node = static_cast<sim::NodeId>(options.host_count + 1 + s);
      shard_hosts_.push_back(std::make_unique<sim::SimHost>(
          &simulation_, network_.get(), node, sim::Architecture::kX86Linux));
      shard_nodes.push_back(node);
    }
    Status configured =
        agent_.Configure(DirectoryConfig::FromCostModel(cost_model_),
                         &simulation_, network_.get(), std::move(shard_nodes));
    // The config came from a cost model the caller controls; surface a bad
    // one loudly instead of silently running the legacy directory.
    if (!configured.ok()) {
      DCDO_LOG(kError) << "testbed: directory configuration rejected: "
                       << configured.message();
      std::abort();
    }
  }
}

Testbed::~Testbed() {
  if (checker_) {
    // Final sweep: catches quiescence-only violations (messages still in
    // flight) and anything an every-N cadence stepped over.
    checker_->EvaluateAtEnd();
    checker_->Uninstall();
  }
  if (tracer_) tracer_->Uninstall();
}

Status Testbed::DumpTrace(const std::string& path) {
  if (!tracer_) {
    return FailedPreconditionError(
        "tracing is not installed on this testbed (Options::tracing, build "
        "option DCDO_TRACING)");
  }
  // Substrate totals that live as component members rather than registry
  // metrics: snapshot them into the registry at export time so the JSON
  // carries the complete picture. (Registry-native metrics — rpc.dedup_hits,
  // rpc.timeouts, net.drops, evolve.* — are already live-incremented; only
  // the member-counter mirrors are set here.)
  trace::MetricsRegistry& m = tracer_->metrics();
  m.SetCounter("net.messages_sent", network_->messages_sent());
  m.SetCounter("net.messages_delivered", network_->messages_delivered());
  m.SetCounter("net.messages_dropped", network_->messages_dropped());
  m.SetCounter("net.bytes_sent", network_->bytes_sent());
  m.SetCounter("rpc.invocations_delivered",
               transport_->invocations_delivered());
  std::uint64_t evictions = 0;
  for (const auto& host : hosts_) evictions += host->component_evictions();
  m.SetCounter("host.component_cache_evictions", evictions);
  return trace::WriteChromeTrace(*tracer_, path);
}

std::unique_ptr<rpc::RpcClient> Testbed::MakeClient(std::size_t host_index) {
  return std::make_unique<rpc::RpcClient>(transport_.get(), &agent_,
                                          hosts_.at(host_index)->node());
}

}  // namespace dcdo
