// Link-time interposition of the runtime's cross-library entry points.
//
// The traced binary links with -Wl,--wrap=<symbol> for every mangled symbol
// quoted in a SYM_* macro below (CMakeLists.txt collects them from this
// file): each call from one object file of the runtime into another then
// lands in the __wrap_ function below, which opens a span and calls the
// original through __real_. Calls inside one object file are not
// interposed, which is why only entry points that cross files are listed.
//
// Callbacks handed to a wrapped function (event callbacks, delivery and
// reply continuations, endpoint handlers, fetch and evolve completions) are
// wrapped too, so their work is charged to the layer that handed them over
// and carries the request tag that was current then.
//
// Each wrapper is declared with the member function's C++ signature written
// as a free function whose first parameter is `this`; under the Itanium C++
// ABI that is the same calling convention, including the hidden result
// pointer of class-returning members, which precedes `this` in both forms.
#include <array>
#include <functional>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "component/fetcher.h"
#include "core/dcdo.h"
#include "dfm/mapper.h"
#include "naming/binding_agent.h"
#include "naming/binding_cache.h"
#include "rpc/transport.h"
#include "runtime/fom.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "spans.h"

#define E2E_REAL(sym) __asm__("__real_" sym)
#define E2E_WRAP(sym) __asm__("__wrap_" sym)

namespace e2e {
namespace {

using dcdo::ObjectId;
using dcdo::Result;
using dcdo::Status;
using EventFn = dcdo::sim::Simulation::Callback;
using DeliveryFn = dcdo::sim::SimNetwork::Delivery;

constexpr int kLayers = static_cast<int>(Layer::kCount);

// "<prefix>.<layer>" sites for wrapped callbacks, one per owning layer.
class CallbackSites {
 public:
  explicit CallbackSites(const char* prefix) {
    for (int l = 0; l < kLayers; ++l) {
      names_[static_cast<std::size_t>(l)] =
          std::string(prefix) + "." + LayerName(static_cast<Layer>(l));
      sites_[static_cast<std::size_t>(l)] = SpanSite{
          names_[static_cast<std::size_t>(l)].c_str(), static_cast<Layer>(l)};
    }
  }
  SpanSite& operator[](Layer layer) {
    return sites_[static_cast<std::size_t>(layer)];
  }

 private:
  std::array<std::string, kLayers> names_;
  std::array<SpanSite, kLayers> sites_;
};

CallbackSites g_event_sites("event");
CallbackSites g_delivery_sites("delivery");
CallbackSites g_reply_sites("reply");
CallbackSites g_handler_sites("handler");
CallbackSites g_fetch_cb_sites("fetch_callback");
CallbackSites g_evolve_cb_sites("evolve_callback");

// The layer and request tag a callback handed over now should run under.
struct Owner {
  Layer layer;
  std::uint64_t tag;
};
Owner CurrentOwner() {
  SpanRecorder& r = SpanRecorder::Get();
  return {r.CurrentLayer(), r.CurrentTag()};
}

template <std::size_t N>
dcdo::common::MoveFunction<void(), N> WrapVoid(
    dcdo::common::MoveFunction<void(), N> fn, CallbackSites& sites) {
  if (!fn) return fn;
  Owner owner = CurrentOwner();
  return [inner = std::move(fn), owner, &sites]() mutable {
    SpanScope span(sites[owner.layer], owner.layer, owner.tag);
    inner();
  };
}

template <typename R, typename... Args>
std::function<R(Args...)> WrapStd(std::function<R(Args...)> fn,
                                  CallbackSites& sites) {
  if (!fn) return fn;
  Owner owner = CurrentOwner();
  return [inner = std::move(fn), owner, &sites](Args... args) -> R {
    SpanScope span(sites[owner.layer], owner.layer, owner.tag);
    return inner(std::forward<Args>(args)...);
  };
}

}  // namespace

// Closure types of registered endpoint handlers that HandlerLayer did not
// recognise; their work is charged to Layer::kUnknown (unclaimed).
std::vector<std::string>& UnrecognisedHandlerTypes() {
  static std::vector<std::string> types;
  return types;
}

namespace {

// An endpoint handler belongs to the module whose object registered it; the
// handler's closure type names that object's class.
Layer HandlerLayer(const dcdo::rpc::Handler& handler) {
  std::string type = handler.target_type().name();
  if (type.find("DcdoManager") != std::string::npos) return Layer::kCore;
  if (type.find("ImplementationComponentObject") != std::string::npos) {
    return Layer::kComponent;
  }
  if (type.find("ClassObject") != std::string::npos) return Layer::kRuntime;
  if (type.find("Dcdo") != std::string::npos) return Layer::kCore;
  UnrecognisedHandlerTypes().push_back(type);
  return Layer::kUnknown;
}

}  // namespace

}  // namespace e2e

// ===== sim =====

#define SYM_SCHEDULE \
  "_ZN4dcdo3sim10Simulation8ScheduleENS0_11SimDurationENS_6common12MoveFunctionIFvvELm64EEE"
#define SYM_SCHEDULE_AT \
  "_ZN4dcdo3sim10Simulation10ScheduleAtENS0_7SimTimeENS_6common12MoveFunctionIFvvELm64EEE"
#define SYM_SCHEDULE_FOR \
  "_ZN4dcdo3sim10Simulation11ScheduleForEjNS0_11SimDurationENS_6common12MoveFunctionIFvvELm64EEE"
#define SYM_SCHEDULE_AT_FOR \
  "_ZN4dcdo3sim10Simulation13ScheduleAtForEjNS0_7SimTimeENS_6common12MoveFunctionIFvvELm64EEE"
#define SYM_SEND \
  "_ZN4dcdo3sim10SimNetwork4SendEjjmNS_6common12MoveFunctionIFvvELm32EEEjNS1_9SendClassE"

namespace e2e::wrap {
using dcdo::sim::NodeId;
using dcdo::sim::SimDuration;
using dcdo::sim::SimNetwork;
using dcdo::sim::SimTime;
using dcdo::sim::Simulation;

std::uint64_t RealSchedule(Simulation*, SimDuration, EventFn)
    E2E_REAL(SYM_SCHEDULE);
std::uint64_t WrapSchedule(Simulation*, SimDuration, EventFn)
    E2E_WRAP(SYM_SCHEDULE);
std::uint64_t WrapSchedule(Simulation* self, SimDuration delay, EventFn fn) {
  EventFn wrapped = WrapVoid(std::move(fn), g_event_sites);
  E2E_SPAN("sim.Simulation::Schedule", Layer::kSim, 0);
  return RealSchedule(self, delay, std::move(wrapped));
}

std::uint64_t RealScheduleAt(Simulation*, SimTime, EventFn)
    E2E_REAL(SYM_SCHEDULE_AT);
std::uint64_t WrapScheduleAt(Simulation*, SimTime, EventFn)
    E2E_WRAP(SYM_SCHEDULE_AT);
std::uint64_t WrapScheduleAt(Simulation* self, SimTime when, EventFn fn) {
  EventFn wrapped = WrapVoid(std::move(fn), g_event_sites);
  E2E_SPAN("sim.Simulation::ScheduleAt", Layer::kSim, 0);
  return RealScheduleAt(self, when, std::move(wrapped));
}

std::uint64_t RealScheduleFor(Simulation*, std::uint32_t, SimDuration, EventFn)
    E2E_REAL(SYM_SCHEDULE_FOR);
std::uint64_t WrapScheduleFor(Simulation*, std::uint32_t, SimDuration, EventFn)
    E2E_WRAP(SYM_SCHEDULE_FOR);
std::uint64_t WrapScheduleFor(Simulation* self, std::uint32_t affinity,
                              SimDuration delay, EventFn fn) {
  EventFn wrapped = WrapVoid(std::move(fn), g_event_sites);
  E2E_SPAN("sim.Simulation::ScheduleFor", Layer::kSim, 0);
  return RealScheduleFor(self, affinity, delay, std::move(wrapped));
}

std::uint64_t RealScheduleAtFor(Simulation*, std::uint32_t, SimTime, EventFn)
    E2E_REAL(SYM_SCHEDULE_AT_FOR);
std::uint64_t WrapScheduleAtFor(Simulation*, std::uint32_t, SimTime, EventFn)
    E2E_WRAP(SYM_SCHEDULE_AT_FOR);
std::uint64_t WrapScheduleAtFor(Simulation* self, std::uint32_t affinity,
                                SimTime when, EventFn fn) {
  EventFn wrapped = WrapVoid(std::move(fn), g_event_sites);
  E2E_SPAN("sim.Simulation::ScheduleAtFor", Layer::kSim, 0);
  return RealScheduleAtFor(self, affinity, when, std::move(wrapped));
}

void RealSend(SimNetwork*, NodeId, NodeId, std::size_t, DeliveryFn,
              std::uint32_t, SimNetwork::SendClass) E2E_REAL(SYM_SEND);
void WrapSend(SimNetwork*, NodeId, NodeId, std::size_t, DeliveryFn,
              std::uint32_t, SimNetwork::SendClass) E2E_WRAP(SYM_SEND);
void WrapSend(SimNetwork* self, NodeId from, NodeId to, std::size_t bytes,
              DeliveryFn on_delivery, std::uint32_t affinity,
              SimNetwork::SendClass send_class) {
  DeliveryFn wrapped = WrapVoid(std::move(on_delivery), g_delivery_sites);
  E2E_SPAN("sim.SimNetwork::Send", Layer::kSim, 0);
  RealSend(self, from, to, bytes, std::move(wrapped), affinity, send_class);
}

}  // namespace e2e::wrap

// ===== rpc =====

#define SYM_TRANSPORT_INVOKE \
  "_ZN4dcdo3rpc12RpcTransport6InvokeEjjmNS0_16MethodInvocationENS_6common12MoveFunctionIFvNS0_12MethodResultEELm32EEE"
#define SYM_REGISTER_ENDPOINT \
  "_ZN4dcdo3rpc12RpcTransport16RegisterEndpointEjmmSt8functionIFvRKNS0_16MethodInvocationENS_6common12MoveFunctionIFvNS0_12MethodResultEELm32EEEEENS0_19EndpointConcurrencyE"
#define SYM_UNREGISTER_ENDPOINT \
  "_ZN4dcdo3rpc12RpcTransport18UnregisterEndpointEjm"

namespace e2e::wrap {
using dcdo::rpc::EndpointConcurrency;
using dcdo::rpc::Handler;
using dcdo::rpc::MethodInvocation;
using dcdo::rpc::MethodResult;
using dcdo::rpc::ReplyFn;
using dcdo::rpc::RpcTransport;
using dcdo::sim::NodeId;
using dcdo::sim::ProcessId;

ReplyFn WrapReply(ReplyFn fn, CallbackSites& sites, Layer layer) {
  if (!fn) return fn;
  std::uint64_t tag = SpanRecorder::Get().CurrentTag();
  return [inner = std::move(fn), &sites, layer, tag](MethodResult result) mutable {
    SpanScope span(sites[layer], layer, tag);
    inner(std::move(result));
  };
}

void RealTransportInvoke(RpcTransport*, NodeId, NodeId, ProcessId,
                         MethodInvocation, ReplyFn)
    E2E_REAL(SYM_TRANSPORT_INVOKE);
void WrapTransportInvoke(RpcTransport*, NodeId, NodeId, ProcessId,
                         MethodInvocation, ReplyFn)
    E2E_WRAP(SYM_TRANSPORT_INVOKE);
void WrapTransportInvoke(RpcTransport* self, NodeId from, NodeId to,
                         ProcessId pid, MethodInvocation invocation,
                         ReplyFn on_reply) {
  ReplyFn wrapped = WrapReply(std::move(on_reply), g_reply_sites,
                              SpanRecorder::Get().CurrentLayer());
  E2E_SPAN("rpc.RpcTransport::Invoke", Layer::kRpc, 0);
  RealTransportInvoke(self, from, to, pid, std::move(invocation),
                      std::move(wrapped));
}

void RealRegisterEndpoint(RpcTransport*, NodeId, ProcessId, std::uint64_t,
                          Handler, EndpointConcurrency)
    E2E_REAL(SYM_REGISTER_ENDPOINT);
void WrapRegisterEndpoint(RpcTransport*, NodeId, ProcessId, std::uint64_t,
                          Handler, EndpointConcurrency)
    E2E_WRAP(SYM_REGISTER_ENDPOINT);
void WrapRegisterEndpoint(RpcTransport* self, NodeId node, ProcessId pid,
                          std::uint64_t epoch, Handler handler,
                          EndpointConcurrency concurrency) {
  Layer layer = HandlerLayer(handler);
  // The handler runs under its owner's layer; the reply it sends back runs
  // transport code, charged to rpc.
  Handler wrapped = [inner = std::move(handler), layer](
                        const MethodInvocation& invocation, ReplyFn reply) {
    SpanScope span(g_handler_sites[layer], layer, 0);
    inner(invocation, WrapReply(std::move(reply), g_reply_sites, Layer::kRpc));
  };
  E2E_SPAN("rpc.RpcTransport::RegisterEndpoint", Layer::kRpc, 0);
  RealRegisterEndpoint(self, node, pid, epoch, std::move(wrapped), concurrency);
}

void RealUnregisterEndpoint(RpcTransport*, NodeId, ProcessId)
    E2E_REAL(SYM_UNREGISTER_ENDPOINT);
void WrapUnregisterEndpoint(RpcTransport*, NodeId, ProcessId)
    E2E_WRAP(SYM_UNREGISTER_ENDPOINT);
void WrapUnregisterEndpoint(RpcTransport* self, NodeId node, ProcessId pid) {
  E2E_SPAN("rpc.RpcTransport::UnregisterEndpoint", Layer::kRpc, 0);
  RealUnregisterEndpoint(self, node, pid);
}

}  // namespace e2e::wrap

// ===== naming =====

#define SYM_CACHE_RESOLVE "_ZN4dcdo12BindingCache7ResolveERKNS_8ObjectIdE"
#define SYM_AGENT_LOOKUP "_ZNK4dcdo12BindingAgent6LookupERKNS_8ObjectIdE"
#define SYM_AGENT_BIND \
  "_ZN4dcdo12BindingAgent4BindERKNS_8ObjectIdERKNS_13ObjectAddressE"
#define SYM_AGENT_UNBIND "_ZN4dcdo12BindingAgent6UnbindERKNS_8ObjectIdE"

namespace e2e::wrap {
using dcdo::BindingAgent;
using dcdo::BindingCache;
using dcdo::ObjectAddress;

Result<ObjectAddress> RealResolve(BindingCache*, const ObjectId&)
    E2E_REAL(SYM_CACHE_RESOLVE);
Result<ObjectAddress> WrapResolve(BindingCache*, const ObjectId&)
    E2E_WRAP(SYM_CACHE_RESOLVE);
Result<ObjectAddress> WrapResolve(BindingCache* self, const ObjectId& id) {
  E2E_SPAN("naming.BindingCache::Resolve", Layer::kNaming, 0);
  return RealResolve(self, id);
}

Result<ObjectAddress> RealLookup(const BindingAgent*, const ObjectId&)
    E2E_REAL(SYM_AGENT_LOOKUP);
Result<ObjectAddress> WrapLookup(const BindingAgent*, const ObjectId&)
    E2E_WRAP(SYM_AGENT_LOOKUP);
Result<ObjectAddress> WrapLookup(const BindingAgent* self, const ObjectId& id) {
  E2E_SPAN("naming.BindingAgent::Lookup", Layer::kNaming, 0);
  return RealLookup(self, id);
}

void RealBind(BindingAgent*, const ObjectId&, const ObjectAddress&)
    E2E_REAL(SYM_AGENT_BIND);
void WrapBind(BindingAgent*, const ObjectId&, const ObjectAddress&)
    E2E_WRAP(SYM_AGENT_BIND);
void WrapBind(BindingAgent* self, const ObjectId& id,
              const ObjectAddress& address) {
  E2E_SPAN("naming.BindingAgent::Bind", Layer::kNaming, 0);
  RealBind(self, id, address);
}

void RealUnbind(BindingAgent*, const ObjectId&) E2E_REAL(SYM_AGENT_UNBIND);
void WrapUnbind(BindingAgent*, const ObjectId&) E2E_WRAP(SYM_AGENT_UNBIND);
void WrapUnbind(BindingAgent* self, const ObjectId& id) {
  E2E_SPAN("naming.BindingAgent::Unbind", Layer::kNaming, 0);
  RealUnbind(self, id);
}

}  // namespace e2e::wrap

// ===== dfm =====

#define SYM_ACQUIRE \
  "_ZN4dcdo21DynamicFunctionMapper7AcquireENS_10FunctionIdENS_10CallOriginE"
#define SYM_INCORPORATE \
  "_ZN4dcdo21DynamicFunctionMapper20IncorporateComponentERKNS_23ImplementationComponentERKNS_18NativeCodeRegistryENS_3sim12ArchitectureEb"
#define SYM_REMAP \
  "_ZN4dcdo21DynamicFunctionMapper11RemapBodiesERKNS_18NativeCodeRegistryENS_3sim12ArchitectureE"
#define SYM_ADOPT \
  "_ZN4dcdo21DynamicFunctionMapper18AdoptConfigurationERKNS_8DfmStateEb"
#define SYM_REMOVE \
  "_ZN4dcdo21DynamicFunctionMapper15RemoveComponentERKNS_8ObjectIdENS_18ActiveThreadPolicyE"

namespace e2e::wrap {
using dcdo::ActiveThreadPolicy;
using dcdo::CallOrigin;
using dcdo::DfmState;
using dcdo::DynamicFunctionMapper;
using dcdo::FunctionId;
using dcdo::ImplementationComponent;
using dcdo::NativeCodeRegistry;
using dcdo::sim::Architecture;
using CallGuard = DynamicFunctionMapper::CallGuard;

Result<CallGuard> RealAcquire(DynamicFunctionMapper*, FunctionId, CallOrigin)
    E2E_REAL(SYM_ACQUIRE);
Result<CallGuard> WrapAcquire(DynamicFunctionMapper*, FunctionId, CallOrigin)
    E2E_WRAP(SYM_ACQUIRE);
Result<CallGuard> WrapAcquire(DynamicFunctionMapper* self, FunctionId function,
                              CallOrigin origin) {
  E2E_SPAN("dfm.DynamicFunctionMapper::Acquire", Layer::kDfm, 0);
  return RealAcquire(self, function, origin);
}

Status RealIncorporate(DynamicFunctionMapper*, const ImplementationComponent&,
                       const NativeCodeRegistry&, Architecture, bool)
    E2E_REAL(SYM_INCORPORATE);
Status WrapIncorporate(DynamicFunctionMapper*, const ImplementationComponent&,
                       const NativeCodeRegistry&, Architecture, bool)
    E2E_WRAP(SYM_INCORPORATE);
Status WrapIncorporate(DynamicFunctionMapper* self,
                       const ImplementationComponent& meta,
                       const NativeCodeRegistry& registry, Architecture arch,
                       bool auto_deps) {
  E2E_SPAN("dfm.DynamicFunctionMapper::IncorporateComponent", Layer::kDfm, 0);
  return RealIncorporate(self, meta, registry, arch, auto_deps);
}

Status RealRemap(DynamicFunctionMapper*, const NativeCodeRegistry&,
                 Architecture) E2E_REAL(SYM_REMAP);
Status WrapRemap(DynamicFunctionMapper*, const NativeCodeRegistry&,
                 Architecture) E2E_WRAP(SYM_REMAP);
Status WrapRemap(DynamicFunctionMapper* self,
                 const NativeCodeRegistry& registry, Architecture arch) {
  E2E_SPAN("dfm.DynamicFunctionMapper::RemapBodies", Layer::kDfm, 0);
  return RealRemap(self, registry, arch);
}

Status RealAdopt(DynamicFunctionMapper*, const DfmState&, bool)
    E2E_REAL(SYM_ADOPT);
Status WrapAdopt(DynamicFunctionMapper*, const DfmState&, bool)
    E2E_WRAP(SYM_ADOPT);
Status WrapAdopt(DynamicFunctionMapper* self, const DfmState& target,
                 bool enforce_marks) {
  E2E_SPAN("dfm.DynamicFunctionMapper::AdoptConfiguration", Layer::kDfm, 0);
  return RealAdopt(self, target, enforce_marks);
}

Status RealRemove(DynamicFunctionMapper*, const ObjectId&, ActiveThreadPolicy)
    E2E_REAL(SYM_REMOVE);
Status WrapRemove(DynamicFunctionMapper*, const ObjectId&, ActiveThreadPolicy)
    E2E_WRAP(SYM_REMOVE);
Status WrapRemove(DynamicFunctionMapper* self, const ObjectId& component,
                  ActiveThreadPolicy policy) {
  E2E_SPAN("dfm.DynamicFunctionMapper::RemoveComponent", Layer::kDfm, 0);
  return RealRemove(self, component, policy);
}

}  // namespace e2e::wrap

// ===== component =====

#define SYM_ACQUIRE_ALL \
  "_ZN4dcdo16ComponentFetcher10AcquireAllEPNS_3sim7SimHostESt6vectorINS_23ImplementationComponentESaIS5_EESt8functionIFNS_6StatusERKS5_bEES8_IFvS9_EENS0_7OptionsE"
#define SYM_PREFETCH \
  "_ZN4dcdo16ComponentFetcher8PrefetchEPNS_3sim7SimHostESt6vectorINS_23ImplementationComponentESaIS5_EE"

namespace e2e::wrap {
using dcdo::ComponentFetcher;
using dcdo::ImplementationComponent;
using dcdo::sim::SimHost;

void RealAcquireAll(ComponentFetcher*, SimHost*,
                    std::vector<ImplementationComponent>,
                    ComponentFetcher::ReadyCallback,
                    ComponentFetcher::DoneCallback, ComponentFetcher::Options)
    E2E_REAL(SYM_ACQUIRE_ALL);
void WrapAcquireAll(ComponentFetcher*, SimHost*,
                    std::vector<ImplementationComponent>,
                    ComponentFetcher::ReadyCallback,
                    ComponentFetcher::DoneCallback, ComponentFetcher::Options)
    E2E_WRAP(SYM_ACQUIRE_ALL);
void WrapAcquireAll(ComponentFetcher* self, SimHost* dest,
                    std::vector<ImplementationComponent> components,
                    ComponentFetcher::ReadyCallback on_ready,
                    ComponentFetcher::DoneCallback done,
                    ComponentFetcher::Options options) {
  auto ready = WrapStd(std::move(on_ready), g_fetch_cb_sites);
  auto finished = WrapStd(std::move(done), g_fetch_cb_sites);
  E2E_SPAN("component.ComponentFetcher::AcquireAll", Layer::kComponent, 0);
  RealAcquireAll(self, dest, std::move(components), std::move(ready),
                 std::move(finished), options);
}

void RealPrefetch(ComponentFetcher*, SimHost*,
                  std::vector<ImplementationComponent>) E2E_REAL(SYM_PREFETCH);
void WrapPrefetch(ComponentFetcher*, SimHost*,
                  std::vector<ImplementationComponent>) E2E_WRAP(SYM_PREFETCH);
void WrapPrefetch(ComponentFetcher* self, SimHost* dest,
                  std::vector<ImplementationComponent> components) {
  E2E_SPAN("component.ComponentFetcher::Prefetch", Layer::kComponent, 0);
  RealPrefetch(self, dest, std::move(components));
}

}  // namespace e2e::wrap

// ===== core =====

#define SYM_EVOLVE_TO \
  "_ZN4dcdo4Dcdo8EvolveToERKNS_13DfmDescriptorERKNS0_13RemovalPolicyESt8functionIFvNS_6StatusEEEb"

namespace e2e::wrap {
using dcdo::Dcdo;
using dcdo::DfmDescriptor;

void RealEvolveTo(Dcdo*, const DfmDescriptor&, const Dcdo::RemovalPolicy&,
                  std::function<void(Status)>, bool) E2E_REAL(SYM_EVOLVE_TO);
void WrapEvolveTo(Dcdo*, const DfmDescriptor&, const Dcdo::RemovalPolicy&,
                  std::function<void(Status)>, bool) E2E_WRAP(SYM_EVOLVE_TO);
void WrapEvolveTo(Dcdo* self, const DfmDescriptor& target,
                  const Dcdo::RemovalPolicy& removal,
                  std::function<void(Status)> done, bool enforce_marks) {
  auto finished = WrapStd(std::move(done), g_evolve_cb_sites);
  E2E_SPAN("core.Dcdo::EvolveTo", Layer::kCore, 0);
  RealEvolveTo(self, target, removal, std::move(finished), enforce_marks);
}

}  // namespace e2e::wrap

// ===== runtime =====

#define SYM_FOM_START "_ZN4dcdo7runtime12FomScheduler5StartERNS0_3FomE"
#define SYM_FOM_WAKE "_ZN4dcdo7runtime12FomScheduler4WakeEmNS0_10WakeSourceE"
#define SYM_FOM_WAKE_STATUS \
  "_ZN4dcdo7runtime12FomScheduler10WakeStatusEmNS0_10WakeSourceENS_6StatusE"
#define SYM_FOM_WAKE_VALUE \
  "_ZN4dcdo7runtime12FomScheduler9WakeValueEmNS0_10WakeSourceEm"
#define SYM_FOM_ARM_TIMER \
  "_ZN4dcdo7runtime12FomScheduler8ArmTimerERNS0_3FomENS_3sim11SimDurationE"

namespace e2e::wrap {
using dcdo::runtime::Fom;
using dcdo::runtime::FomScheduler;
using dcdo::runtime::WakeSource;

void RealFomStart(FomScheduler*, Fom&) E2E_REAL(SYM_FOM_START);
void WrapFomStart(FomScheduler*, Fom&) E2E_WRAP(SYM_FOM_START);
void WrapFomStart(FomScheduler* self, Fom& fom) {
  E2E_SPAN("runtime.FomScheduler::Start", Layer::kRuntime, 0);
  RealFomStart(self, fom);
}

void RealFomWake(FomScheduler*, std::uint64_t, WakeSource)
    E2E_REAL(SYM_FOM_WAKE);
void WrapFomWake(FomScheduler*, std::uint64_t, WakeSource)
    E2E_WRAP(SYM_FOM_WAKE);
void WrapFomWake(FomScheduler* self, std::uint64_t id, WakeSource source) {
  E2E_SPAN("runtime.FomScheduler::Wake", Layer::kRuntime, 0);
  RealFomWake(self, id, source);
}

void RealFomWakeStatus(FomScheduler*, std::uint64_t, WakeSource, Status)
    E2E_REAL(SYM_FOM_WAKE_STATUS);
void WrapFomWakeStatus(FomScheduler*, std::uint64_t, WakeSource, Status)
    E2E_WRAP(SYM_FOM_WAKE_STATUS);
void WrapFomWakeStatus(FomScheduler* self, std::uint64_t id, WakeSource source,
                       Status status) {
  E2E_SPAN("runtime.FomScheduler::WakeStatus", Layer::kRuntime, 0);
  RealFomWakeStatus(self, id, source, std::move(status));
}

void RealFomWakeValue(FomScheduler*, std::uint64_t, WakeSource, std::uint64_t)
    E2E_REAL(SYM_FOM_WAKE_VALUE);
void WrapFomWakeValue(FomScheduler*, std::uint64_t, WakeSource, std::uint64_t)
    E2E_WRAP(SYM_FOM_WAKE_VALUE);
void WrapFomWakeValue(FomScheduler* self, std::uint64_t id, WakeSource source,
                      std::uint64_t value) {
  E2E_SPAN("runtime.FomScheduler::WakeValue", Layer::kRuntime, 0);
  RealFomWakeValue(self, id, source, value);
}

void RealFomArmTimer(FomScheduler*, Fom&, dcdo::sim::SimDuration)
    E2E_REAL(SYM_FOM_ARM_TIMER);
void WrapFomArmTimer(FomScheduler*, Fom&, dcdo::sim::SimDuration)
    E2E_WRAP(SYM_FOM_ARM_TIMER);
void WrapFomArmTimer(FomScheduler* self, Fom& fom,
                     dcdo::sim::SimDuration delay) {
  E2E_SPAN("runtime.FomScheduler::ArmTimer", Layer::kRuntime, 0);
  RealFomArmTimer(self, fom, delay);
}

}  // namespace e2e::wrap
