#include "component/ico.h"

#include "common/logging.h"
#include "common/serialize.h"
#include "trace/trace_context.h"

namespace dcdo {

ImplementationComponentObject::ImplementationComponentObject(
    sim::SimHost* host, rpc::RpcTransport* transport, BindingAgent* agent,
    ImplementationComponent component)
    : host_(*host), transport_(*transport), agent_(*agent),
      component_(std::move(component)) {
  pid_ = host_.AdoptProcess(component_.id);
  // The ICO stores its image in the host file store and caches it locally —
  // fetching a component to its own home host is free.
  host_.StoreFile("ico/" + component_.id.ToString(), component_.code_bytes);
  host_.CacheComponent(component_.id, component_.code_bytes);
  agent_.Bind(component_.id,
              ObjectAddress{host_.node(), pid_, /*epoch=*/1});

  transport_.RegisterEndpoint(
      host_.node(), pid_, /*epoch=*/1,
      [this](const rpc::MethodInvocation& invocation, rpc::ReplyFn reply) {
        const std::string_view method = invocation.method_name();
        if (method == kGetDescriptor) {
          reply(rpc::MethodResult::Ok(SerializeComponentMeta(component_)));
          return;
        }
        if (method == kGetSize) {
          Writer writer;
          writer.WriteU64(component_.code_bytes);
          reply(rpc::MethodResult::Ok(std::move(writer).Take()));
          return;
        }
        reply(rpc::MethodResult::Error(NotFoundError(
            "ICO " + component_.name + " has no method '" +
            std::string(method) + "'")));
      });
}

ImplementationComponentObject::~ImplementationComponentObject() {
  transport_.UnregisterEndpoint(host_.node(), pid_);
  agent_.Unbind(component_.id);
  (void)host_.KillProcess(pid_);
}

void ImplementationComponentObject::StreamTo(sim::SimHost* dest,
                                             std::function<void(Status)> done) {
  if (dest->ComponentCached(component_.id)) {
    done(Status::Ok());
    return;
  }
  fetches_served_.Increment();
  DCDO_TRACE_HOOK(metrics().GetCounter("ico.fetches_served").Increment());
  DCDO_LOG(kDebug) << "ico " << component_.name << ": streaming "
                   << component_.code_bytes << "B to node " << dest->node();
  ObjectId component_id = component_.id;
  std::string name = component_.name;
  std::size_t bytes = component_.code_bytes;
  const sim::CostModel& cost = host_.cost_model();
  // Components stream object-to-object, not through the slow file-object
  // path executables use. ComponentDownloadTime re-expressed for the
  // fair-shared link: the per-component session overhead is the fixed
  // setup, then the image streams at up to efficiency × wire speed, so a
  // solo stream lands at exactly ComponentDownloadTime.
  bool local = host_.node() == dest->node();
  sim::SimDuration setup =
      local ? cost.DiskRead(bytes) : cost.component_fetch_overhead;
  double peak =
      cost.wire_bandwidth_bytes_per_sec * cost.component_transfer_efficiency;
  sim::NodeId dest_node = dest->node();
  host_.network().StreamTransfer(
      host_.node(), dest_node, bytes, setup, peak,
      [dest, dest_node, component_id, name = std::move(name), bytes,
       done = std::move(done)](bool delivered) mutable {
        if (!delivered) {
          done(UnavailableError("component '" + name + "' (" +
                                component_id.ToString() +
                                ") fetch to node " +
                                std::to_string(dest_node) + " failed"));
          return;
        }
        dest->CacheComponent(component_id, bytes);
        done(Status::Ok());
      });
}

}  // namespace dcdo
