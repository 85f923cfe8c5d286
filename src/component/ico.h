// Implementation Component Objects (paper Section 2.3).
//
// "An implementation component object (ICO) is an active distributed object
// that maintains an implementation component's data — the executable code
// that comprises the component, the descriptor that describes the contents
// of the executable code, and the component's implementation type."
//
// ICOs exist so that components live in the system's global namespace (they
// are named by ObjectId and resolvable through binding agents like any other
// object) and so that the image bytes stay put until someone actually needs
// them. A DCDO incorporating a component first reads the small metadata via
// RPC, then — only if the image is not already in its host's component
// cache — streams the image via bulk transfer.
#pragma once

#include <functional>

#include "component/component.h"
#include "naming/binding_agent.h"
#include "rpc/transport.h"
#include "sim/host.h"
#include "trace/metrics.h"

namespace dcdo {

class ImplementationComponentObject {
 public:
  // Exported method names in the ICO's interface.
  static constexpr const char* kGetDescriptor = "getDescriptor";
  static constexpr const char* kGetSize = "getSize";

  // Activates the ICO on `host`: registers an RPC endpoint and binds its
  // component's id in the binding agent. The component id *is* the ICO's
  // global name (the ICO is the component, as an active object).
  ImplementationComponentObject(sim::SimHost* host,
                                rpc::RpcTransport* transport,
                                BindingAgent* agent,
                                ImplementationComponent component);
  ~ImplementationComponentObject();

  ImplementationComponentObject(const ImplementationComponentObject&) = delete;
  ImplementationComponentObject& operator=(
      const ImplementationComponentObject&) = delete;

  const ObjectId& id() const { return component_.id; }
  const ImplementationComponent& component() const { return component_; }
  sim::NodeId node() const { return host_.node(); }

  // Streams the component image to `dest`'s component cache; `done` runs when
  // the image is cached there (immediately if it already was). The caller
  // observes the download time the paper describes for non-cached
  // components: the transfer goes through SimNetwork::StreamTransfer, so a
  // lone stream costs exactly CostModel::ComponentDownloadTime (DiskRead on
  // the ICO's own host) and concurrent streams fair-share the wire. Failures
  // (unreachable, dropped in flight) come back as a Status naming this
  // component and the destination.
  void StreamTo(sim::SimHost* dest, std::function<void(Status)> done);

  std::uint64_t fetches_served() const { return fetches_served_.value(); }

 private:
  sim::SimHost& host_;
  rpc::RpcTransport& transport_;
  BindingAgent& agent_;
  ImplementationComponent component_;
  sim::ProcessId pid_ = 0;
  trace::Counter fetches_served_;
};

}  // namespace dcdo
