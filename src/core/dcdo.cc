#include "core/dcdo.h"

#include <memory>

#include "check/check_context.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "dfm/descriptor_wire.h"
#include "runtime/fom.h"
#include "trace/trace_context.h"

namespace dcdo {

namespace {

using runtime::FomStatus;
using runtime::WakeSource;

// Removal under kDelay/kTimeout once the synchronous first attempt failed on
// active threads: one pooled Fom polls on the policy cadence until the
// counts drain (or the deadline forces). Replaces the self-owning
// enable_shared_from_this PollDriver — the timer wake is the scheduler's own
// 16-byte trampoline, so a full poll cycle allocates nothing.
class RemovalPollFom final : public runtime::Fom {
 public:
  enum Phase { kPoll };

  RemovalPollFom(Dcdo* object, ObjectId component_id,
                 Dcdo::RemovalPolicy policy, sim::SimTime deadline,
                 bool has_deadline, Dcdo::DoneCallback done)
      : Fom("dcdo.removal_poll"),
        object_(object),
        component_id_(component_id),
        policy_(policy),
        deadline_(deadline),
        has_deadline_(has_deadline),
        done_(std::move(done)) {}

  FomStatus Tick() override {
    if (phase() == kPoll) {
      Status attempt =
          object_->RemoveComponent(component_id_, ActiveThreadPolicy::kError);
      if (attempt.ok() || attempt.code() != ErrorCode::kActiveThreads) {
        done_(attempt);
        return FomStatus::kDone;
      }
      if (has_deadline_ && simulation().Now() >= deadline_) {
        // "Simply go ahead with the operation after some time-out period."
        done_(object_->RemoveComponent(component_id_,
                                       ActiveThreadPolicy::kForce));
        return FomStatus::kDone;
      }
    } else {
      EnterPhase(kPoll, "poll");
    }
    scheduler().ArmTimer(*this, policy_.poll);
    return WaitOn(WakeSource::kTimer);
  }

 private:
  Dcdo* object_;
  ObjectId component_id_;
  Dcdo::RemovalPolicy policy_;
  sim::SimTime deadline_;
  bool has_deadline_;
  Dcdo::DoneCallback done_;
};

}  // namespace

Dcdo::RemovalPolicy Dcdo::RemovalPolicy::Delay() {
  RemovalPolicy policy;
  policy.kind = Kind::kDelay;
  return policy;
}

Dcdo::RemovalPolicy Dcdo::RemovalPolicy::Timeout(sim::SimDuration deadline) {
  RemovalPolicy policy;
  policy.kind = Kind::kTimeout;
  policy.timeout = deadline;
  return policy;
}

Dcdo::Dcdo(std::string name, sim::SimHost* host, rpc::RpcTransport* transport,
           BindingAgent* agent, const NativeCodeRegistry* registry,
           const IcoDirectory* icos, VersionId version,
           ComponentFetcher* fetcher)
    : name_(std::move(name)),
      id_(ObjectId::Next(domains::kInstance)),
      host_(host),
      transport_(*transport),
      agent_(*agent),
      registry_(*registry),
      icos_(*icos),
      owned_fetcher_(fetcher == nullptr
                         ? std::make_unique<ComponentFetcher>(icos)
                         : nullptr),
      fetcher_(fetcher == nullptr ? owned_fetcher_.get() : fetcher),
      version_(std::move(version)) {
  address_.node = host_->node();
  address_.pid = host_->AdoptProcess(id_);
  address_.epoch = 1;
  agent_.Bind(id_, address_);
  RegisterEndpoint();
#if defined(DCDO_CHECK_ENABLED)
  mapper_.SetCheckOwner(id_);
  // Expose this object's live state to the checker's invariants. The probe
  // holds a raw `this`; the destructor unregisters first.
  if (auto* ctx = check::CheckContext::Current()) {
    ctx->RegisterObject(id_, [this]() {
      check::ObjectStatusSnapshot snapshot;
      snapshot.id = id_;
      snapshot.name = name_;
      snapshot.version = version_;
      snapshot.active = active_;
      snapshot.components = mapper_.state().ComponentIds();
      snapshot.total_active_threads = mapper_.TotalActive();
      snapshot.config_anomalies = mapper_.state().CheckIntegrity();
      snapshot.node = address_.node;
      snapshot.pid = address_.pid;
      snapshot.epoch = address_.epoch;
      return snapshot;
    });
  }
#endif
}

Dcdo::~Dcdo() {
#if defined(DCDO_CHECK_ENABLED)
  if (auto* ctx = check::CheckContext::Current()) {
    ctx->UnregisterObject(id_);
  }
#endif
  transport_.UnregisterEndpoint(address_.node, address_.pid);
  agent_.Unbind(id_);
  (void)host_->KillProcess(address_.pid);
}

void Dcdo::RegisterEndpoint() {
  // kParallel: a DCDO's dispatch state (DFM, components, call counters) is
  // confined to its own node, so application calls carry that node's
  // digest affinity. Config-plane methods (dcdo.*) are still tagged global
  // by the transport.
  transport_.RegisterEndpoint(
      address_.node, address_.pid, address_.epoch,
      [this](const rpc::MethodInvocation& invocation, rpc::ReplyFn reply) {
        HandleInvocation(invocation, std::move(reply));
      },
      rpc::EndpointConcurrency::kParallel);
}

void Dcdo::Deactivate() {
  if (!active_) return;
  transport_.UnregisterEndpoint(address_.node, address_.pid);
  (void)host_->KillProcess(address_.pid);
  agent_.Unbind(id_);
  active_ = false;
  DCDO_LOG(kDebug) << name_ << ": deactivated (state kept, "
                   << state_.CaptureSize() << "B)";
}

void Dcdo::Reactivate() {
  if (active_) return;
  address_.pid = host_->AdoptProcess(id_);
  ++address_.epoch;
  agent_.Bind(id_, address_);
  RegisterEndpoint();
  active_ = true;
  DCDO_LOG(kDebug) << name_ << ": reactivated at " << address_.ToString();
}

void Dcdo::Rebind(sim::SimHost* new_host) {
  transport_.UnregisterEndpoint(address_.node, address_.pid);
  (void)host_->KillProcess(address_.pid);
  host_ = new_host;
  address_.node = host_->node();
  address_.pid = host_->AdoptProcess(id_);
  ++address_.epoch;
  agent_.Bind(id_, address_);
  RegisterEndpoint();
}

// ===== User-defined function invocation =====

Result<ByteBuffer> Dcdo::Call(const std::string& function,
                              const ByteBuffer& args) {
  if (!active_) {
    return UnavailableError(name_ + " is deactivated");
  }
  if (pre_call_hook_) pre_call_hook_();
  ++user_calls_;
  // dfm.call covers the DFM indirection + acquire + the body itself; when
  // the call arrived remotely it nests under the transport's rpc.dispatch
  // span via the scope stack.
  trace::SpanScope span("dfm.call", {.category = "dfm", .node = address_.node});
  if (span) span.Annotate("function", function);
  // The paper's measured DFM indirection: every dynamic call pays it.
  simulation().AdvanceInline(cost().dfm_lookup);
  DCDO_ASSIGN_OR_RETURN(DynamicFunctionMapper::CallGuard guard,
                        mapper_.Acquire(std::string_view(function),
                                        CallOrigin::kExternal));
  return guard.body()(*this, args);
}

Result<ByteBuffer> Dcdo::Call(FunctionId function, const ByteBuffer& args) {
  if (!active_) {
    return UnavailableError(name_ + " is deactivated");
  }
  if (pre_call_hook_) pre_call_hook_();
  ++user_calls_;
  trace::SpanScope span("dfm.call", {.category = "dfm", .node = address_.node});
  if (span) span.Annotate("function", FunctionNameTable::Global().NameOf(function));
  simulation().AdvanceInline(cost().dfm_lookup);
  DCDO_ASSIGN_OR_RETURN(DynamicFunctionMapper::CallGuard guard,
                        mapper_.Acquire(function, CallOrigin::kExternal));
  return guard.body()(*this, args);
}

Result<ByteBuffer> Dcdo::CallInternal(const std::string& function,
                                      const ByteBuffer& args) {
  // Intra-object calls go through the DFM too — same indirection cost for
  // self-calls, intra-component, and inter-component calls alike.
  trace::SpanScope span("dfm.call", {.category = "dfm", .node = address_.node});
  if (span) span.Annotate("function", function);
  simulation().AdvanceInline(cost().dfm_lookup);
  DCDO_ASSIGN_OR_RETURN(DynamicFunctionMapper::CallGuard guard,
                        mapper_.Acquire(std::string_view(function),
                                        CallOrigin::kInternal));
  return guard.body()(*this, args);
}

Result<ByteBuffer> Dcdo::CallInternal(FunctionId function,
                                      const ByteBuffer& args) {
  trace::SpanScope span("dfm.call", {.category = "dfm", .node = address_.node});
  if (span) span.Annotate("function", FunctionNameTable::Global().NameOf(function));
  simulation().AdvanceInline(cost().dfm_lookup);
  DCDO_ASSIGN_OR_RETURN(DynamicFunctionMapper::CallGuard guard,
                        mapper_.Acquire(function, CallOrigin::kInternal));
  return guard.body()(*this, args);
}

ObjectId Dcdo::self_id() const { return id_; }

void Dcdo::BlockOnOutcall(double sim_seconds) {
  // Re-enters the event loop so the rest of the system — including
  // configuration calls against this object — proceeds while this "thread"
  // is parked inside the function (its CallGuard stays alive up the stack).
  sim::Simulation& simulation = host_->simulation();
  simulation.RunUntil(simulation.Now() +
                      sim::SimDuration::Seconds(sim_seconds));
}

// ===== Configuration functions =====

Status Dcdo::IncorporateCached(const ImplementationComponent& meta,
                               bool auto_structural_deps) {
  if (!host_->ComponentCached(meta.id)) {
    return ComponentMissingError("component " + meta.name +
                                 " is not cached on node " +
                                 std::to_string(host_->node()));
  }
  DCDO_RETURN_IF_ERROR(mapper_.IncorporateComponent(
      meta, registry_, host_->architecture(), auto_structural_deps));
  // Map the cached image into the address space + register each function.
  simulation().AdvanceInline(
      cost().component_map_cached +
      cost().dfm_register_per_function *
          static_cast<std::int64_t>(meta.functions.size()));
  return Status::Ok();
}

void Dcdo::IncorporateComponent(const ObjectId& component_id,
                                DoneCallback done) {
  Result<ImplementationComponentObject*> ico = icos_.Find(component_id);
  if (!ico.ok()) {
    done(ico.status());
    return;
  }
  // Acquire through the pipeline (fetch from the ICO if not cached), then
  // map. Routing even a single incorporate through the fetcher is what lets
  // two co-hosted DCDOs incorporating the same component share one stream.
  fetcher_->AcquireAll(
      host_, {(*ico)->component()},
      [this](const ImplementationComponent& meta, bool /*was_cached*/) {
        return IncorporateCached(meta);
      },
      std::move(done));
}

Status Dcdo::RemoveComponent(const ObjectId& component_id,
                             ActiveThreadPolicy thread_policy) {
  return mapper_.RemoveComponent(component_id, thread_policy);
}

void Dcdo::RemoveComponentWithPolicy(const ObjectId& component_id,
                                     const RemovalPolicy& policy,
                                     DoneCallback done) {
  switch (policy.kind) {
    case RemovalPolicy::Kind::kError:
      done(mapper_.RemoveComponent(component_id, ActiveThreadPolicy::kError));
      return;
    case RemovalPolicy::Kind::kDelay:
    case RemovalPolicy::Kind::kTimeout: {
      Status attempt =
          mapper_.RemoveComponent(component_id, ActiveThreadPolicy::kError);
      if (attempt.ok() || attempt.code() != ErrorCode::kActiveThreads) {
        done(attempt);
        return;
      }
      // Threads are inside the component: poll until they drain — and, for
      // kTimeout, force the removal at the deadline. The Fom's first Tick
      // only arms the timer, so the first real attempt happens one poll
      // interval from now, exactly like the chain it replaced.
      auto& scheduler = runtime::FomScheduler::For(simulation());
      scheduler.Start(*scheduler.Create<RemovalPollFom>(
          this, component_id, policy, simulation().Now() + policy.timeout,
          policy.kind == RemovalPolicy::Kind::kTimeout, std::move(done)));
      return;
    }
  }
}

Status Dcdo::EnableFunction(const std::string& function,
                            const ObjectId& component) {
  return mapper_.EnableFunction(function, component);
}

Status Dcdo::DisableFunction(const std::string& function,
                             const ObjectId& component,
                             bool respect_active_dependents) {
  return mapper_.DisableFunction(function, component,
                                 respect_active_dependents);
}

Status Dcdo::SwitchImplementation(const std::string& function,
                                  const ObjectId& to_component) {
  return mapper_.SwitchImplementation(function, to_component);
}

Status Dcdo::SetVisibility(const std::string& function,
                           const ObjectId& component, Visibility visibility) {
  return mapper_.SetVisibility(function, component, visibility);
}

Status Dcdo::MarkMandatory(const std::string& function) {
  return mapper_.MarkMandatory(function);
}

Status Dcdo::MarkPermanent(const std::string& function,
                           const ObjectId& component) {
  return mapper_.MarkPermanent(function, component);
}

Status Dcdo::AddDependency(Dependency dep) {
  return mapper_.AddDependency(std::move(dep));
}

Status Dcdo::RemoveDependency(const Dependency& dep) {
  return mapper_.RemoveDependency(dep);
}

// ===== Evolution =====

// The whole evolution — acquire, configuration flip, sequential removals,
// commit — as one pooled Fom (DESIGN.md §16). Namespace scope (not
// anonymous) so Dcdo can befriend it: stage 2 adopts into mapper_ and the
// commit rewrites version_ directly, as the lambda chain it replaced did.
// What used to be two shared_ptr stages, a shared DfmState snapshot, a
// shared remove queue, and a self-owning RemovalDriver is now one block;
// every completion callback is a 16-byte {scheduler, id} trampoline.
class EvolveFom final : public runtime::Fom {
 public:
  enum Phase { kAcquire, kRemoveNext, kRemovalSettled };

  EvolveFom(Dcdo* object, VersionId target_version, DfmState target_state,
            EvolutionPlan plan, Dcdo::RemovalPolicy removal,
            bool enforce_marks, Dcdo::DoneCallback done,
            std::uint64_t evolve_span, sim::SimTime evolve_begin)
      : Fom("dcdo.evolve"),
        object_(object),
        target_version_(std::move(target_version)),
        target_state_(std::move(target_state)),
        incorporate_(std::move(plan.incorporate)),
        remove_queue_(std::move(plan.remove)),
        flip_count_(plan.enable.size() + plan.disable.size()),
        removal_(removal),
        enforce_marks_(enforce_marks),
        done_(std::move(done)),
        evolve_span_(evolve_span),
        evolve_begin_(evolve_begin) {}

  runtime::FomStatus Tick() override {
    using runtime::FomStatus;
    using runtime::WakeSource;
    if (phase() < 0) {
      // Stage 1: acquire the new components through the fetch pipeline. At
      // the calibrated fetch_concurrency of 1 this is the paper's
      // one-at-a-time sequence; above it, fetches overlap (bounded,
      // single-flighted) and each image incorporates as it lands. Either way
      // stage 2 — the configuration flip and removals — starts only once
      // every component is in.
      EnterPhase(kAcquire, "acquire");
      runtime::FomScheduler* scheduler = &this->scheduler();
      const std::uint64_t id = this->id();
      Dcdo* object = object_;
      object_->fetcher_->AcquireAll(
          object_->host_, std::move(incorporate_),
          [object](const ImplementationComponent& meta, bool /*was_cached*/) {
            // During evolution, dependencies come from the target's
            // metadata, not from auto-derived hints.
            return object->IncorporateCached(meta,
                                             /*auto_structural_deps=*/false);
          },
          [scheduler, id](Status status) {
            scheduler->WakeStatus(id, WakeSource::kFetch, std::move(status));
          });
      return WaitOn(WakeSource::kFetch);
    }
    if (phase() == kAcquire) {
      // Stage 2 (runs after incorporations): adopt the target
      // configuration, then drain removals under the removal policy.
      Status status = wake_status();
      if (!status.ok()) return Finish(std::move(status));
      // Flips + metadata, atomically; charge per-flip DFM update cost.
      object_->simulation().AdvanceInline(
          object_->cost().dfm_register_per_function *
          static_cast<std::int64_t>(flip_count_));
      Status adopted =
          object_->mapper_.AdoptConfiguration(target_state_, enforce_marks_);
      if (!adopted.ok()) return Finish(std::move(adopted));
      EnterPhase(kRemoveNext, "removals");
      return FomStatus::kRunAgain;
    }
    if (phase() == kRemovalSettled) {
      Status status = wake_status();
      if (!status.ok()) return Finish(std::move(status));
      EnterPhase(kRemoveNext, "removals");
    }
    // kRemoveNext: removals, sequentially under the policy, back to front.
    if (remove_queue_.empty()) return Finish(Status::Ok());
    ObjectId next = remove_queue_.back();
    remove_queue_.pop_back();
    EnterPhase(kRemovalSettled, "removal");
    runtime::FomScheduler* scheduler = &this->scheduler();
    const std::uint64_t id = this->id();
    object_->RemoveComponentWithPolicy(
        next, removal_, [scheduler, id](Status status) {
          scheduler->WakeStatus(id, WakeSource::kChild, std::move(status));
        });
    return WaitOn(WakeSource::kChild);
  }

 private:
  // Stage 3: close the span, tell the checker, take on the version (on
  // success), and report — same bookkeeping order as the legacy
  // stage3_finish.
  runtime::FomStatus Finish(Status status) {
    if (!status.ok()) {
      DCDO_CHECK_HOOK(OnEvolveEnd(object_->id_, /*ok=*/false));
      if (auto* tr = trace::ActiveContext()) {
        tr->metrics().GetCounter("evolve.failed").Increment();
        tr->EndSpan(evolve_span_, "outcome", status.ToString());
      }
      done_(status);
      return runtime::FomStatus::kDone;
    }
    VersionId previous = object_->version_;
    object_->version_ = target_version_;
    DCDO_CHECK_HOOK(OnVersionChanged(object_->id_, previous, target_version_));
    DCDO_CHECK_HOOK(OnEvolveEnd(object_->id_, /*ok=*/true));
    if (auto* tr = trace::ActiveContext()) {
      tr->metrics().GetCounter("evolve.committed").Increment();
      tr->metrics().GetHistogram("evolve.latency")
          .Record(object_->simulation().Now() - evolve_begin_);
      tr->EndSpan(evolve_span_, "outcome", "committed");
    }
    done_(Status::Ok());
    return runtime::FomStatus::kDone;
  }

  Dcdo* object_;
  VersionId target_version_;
  DfmState target_state_;  // snapshot: the caller's descriptor need not
                           // outlive the operation
  std::vector<ImplementationComponent> incorporate_;
  std::vector<ObjectId> remove_queue_;
  std::size_t flip_count_;
  Dcdo::RemovalPolicy removal_;
  bool enforce_marks_;
  Dcdo::DoneCallback done_;
  std::uint64_t evolve_span_;
  sim::SimTime evolve_begin_;
};

void Dcdo::EvolveTo(const DfmDescriptor& target, const RemovalPolicy& removal,
                    DoneCallback done, bool enforce_marks) {
  if (!target.instantiable()) {
    done(VersionNotInstantiableError("version " + target.version().ToString() +
                                     " is still configurable"));
    return;
  }
  EvolutionPlan plan = ComputePlan(mapper_.state(), target.state());
  DCDO_LOG(kDebug) << name_ << ": evolving " << version_.ToString() << " -> "
                   << target.version().ToString() << " (" << plan.TotalSteps()
                   << " steps, " << plan.incorporate.size()
                   << " new components)";
  DCDO_CHECK_HOOK(OnEvolveBegin(id_, version_, target.version()));
  // The evolution span rides in the Fom (id + begin time) and is closed by
  // EvolveFom::Finish — the same place the checker learns the outcome.
  std::uint64_t evolve_span = 0;
  sim::SimTime evolve_begin = simulation().Now();
  if (auto* tr = trace::ActiveContext()) {
    evolve_span = tr->BeginSpan(
        "evolve", {.category = "evolve", .node = address_.node});
    tr->Annotate(evolve_span, "object", name_);
    tr->Annotate(evolve_span, "from", version_.ToString());
    tr->Annotate(evolve_span, "to", target.version().ToString());
    tr->metrics().GetCounter("evolve.begun").Increment();
  }

  auto& scheduler = runtime::FomScheduler::For(simulation());
  scheduler.Start(*scheduler.Create<EvolveFom>(
      this, target.version(), target.state(), std::move(plan), removal,
      enforce_marks, std::move(done), evolve_span, evolve_begin));
}

// ===== RPC dispatch =====

namespace {
Result<std::pair<std::string, ObjectId>> ReadFunctionComponent(
    const ByteBuffer& args) {
  Reader reader(args);
  DCDO_ASSIGN_OR_RETURN(std::string function, reader.ReadString());
  DCDO_ASSIGN_OR_RETURN(ObjectId component, reader.ReadObjectId());
  return std::make_pair(std::move(function), component);
}
}  // namespace

Result<ByteBuffer> Dcdo::DispatchConfig(std::string_view method,
                                        const ByteBuffer& args) {
  if (method == "dcdo.getInterface") {
    // Annotated interface: clients see, per exported function, whether it is
    // mandatory (assured present for the object's lifetime along derived
    // versions) and whether its implementation is permanent (frozen). This
    // is what lets a client decide how defensively to code a call site.
    Writer writer(rpc::WireBufferPool::Acquire());
    std::vector<FunctionSignature> interface = GetInterface();
    writer.WriteU64(interface.size());
    const DfmState& state = mapper_.state();
    for (const FunctionSignature& fn : interface) {
      writer.WriteString(fn.name);
      writer.WriteString(fn.signature);
      writer.WriteBool(state.IsMandatory(fn.name));
      const DfmEntry* impl = state.EnabledImpl(fn.name);
      writer.WriteBool(impl != nullptr && impl->permanent);
    }
    return std::move(writer).Take();
  }
  if (method == "dcdo.getVersion") {
    Writer writer(rpc::WireBufferPool::Acquire());
    writer.WriteVersionId(version_);
    return std::move(writer).Take();
  }
  if (method == "dcdo.getActiveCounts") {
    // Thread-activity report: every implementation currently hosting at
    // least one executing thread, with its count.
    Writer writer(rpc::WireBufferPool::Acquire());
    std::vector<std::tuple<std::string, ObjectId, int>> rows;
    for (const DfmEntry* entry : mapper_.state().AllEntries()) {
      int count = mapper_.ActiveCount(entry->function.name, entry->component);
      if (count > 0) rows.emplace_back(entry->function.name,
                                       entry->component, count);
    }
    writer.WriteU64(rows.size());
    for (const auto& [function, component, count] : rows) {
      writer.WriteString(function);
      writer.WriteObjectId(component);
      writer.WriteU32(static_cast<std::uint32_t>(count));
    }
    return std::move(writer).Take();
  }
  if (method == "dcdo.getComponents") {
    Writer writer(rpc::WireBufferPool::Acquire());
    std::vector<ObjectId> components = GetComponents();
    writer.WriteU64(components.size());
    for (const ObjectId& id : components) writer.WriteObjectId(id);
    return std::move(writer).Take();
  }
  if (method == "dcdo.enableFunction") {
    DCDO_ASSIGN_OR_RETURN(auto fc, ReadFunctionComponent(args));
    DCDO_RETURN_IF_ERROR(EnableFunction(fc.first, fc.second));
    return ByteBuffer{};
  }
  if (method == "dcdo.disableFunction") {
    DCDO_ASSIGN_OR_RETURN(auto fc, ReadFunctionComponent(args));
    DCDO_RETURN_IF_ERROR(DisableFunction(fc.first, fc.second));
    return ByteBuffer{};
  }
  if (method == "dcdo.switchImplementation") {
    DCDO_ASSIGN_OR_RETURN(auto fc, ReadFunctionComponent(args));
    DCDO_RETURN_IF_ERROR(SwitchImplementation(fc.first, fc.second));
    return ByteBuffer{};
  }
  if (method == "dcdo.removeComponent") {
    Reader reader(args);
    DCDO_ASSIGN_OR_RETURN(ObjectId component, reader.ReadObjectId());
    DCDO_RETURN_IF_ERROR(RemoveComponent(component));
    return ByteBuffer{};
  }
  if (method == "dcdo.markMandatory") {
    Reader reader(args);
    DCDO_ASSIGN_OR_RETURN(std::string function, reader.ReadString());
    DCDO_RETURN_IF_ERROR(MarkMandatory(function));
    return ByteBuffer{};
  }
  if (method == "dcdo.markPermanent") {
    DCDO_ASSIGN_OR_RETURN(auto fc, ReadFunctionComponent(args));
    DCDO_RETURN_IF_ERROR(MarkPermanent(fc.first, fc.second));
    return ByteBuffer{};
  }
  if (method == "dcdo.addDependency" || method == "dcdo.removeDependency") {
    // Wire form: kind u32, dependent, has-c1/c1, target, has-c2/c2 —
    // the same layout descriptor_wire uses.
    Reader reader(args);
    Dependency dep;
    DCDO_ASSIGN_OR_RETURN(std::uint32_t kind, reader.ReadU32());
    if (kind > static_cast<std::uint32_t>(DependencyKind::kTypeD)) {
      return InvalidArgumentError("bad dependency kind");
    }
    dep.kind = static_cast<DependencyKind>(kind);
    DCDO_ASSIGN_OR_RETURN(dep.dependent, reader.ReadString());
    DCDO_ASSIGN_OR_RETURN(bool has_c1, reader.ReadBool());
    if (has_c1) {
      DCDO_ASSIGN_OR_RETURN(ObjectId c1, reader.ReadObjectId());
      dep.dependent_component = c1;
    }
    DCDO_ASSIGN_OR_RETURN(dep.target, reader.ReadString());
    DCDO_ASSIGN_OR_RETURN(bool has_c2, reader.ReadBool());
    if (has_c2) {
      DCDO_ASSIGN_OR_RETURN(ObjectId c2, reader.ReadObjectId());
      dep.target_component = c2;
    }
    if (method == "dcdo.addDependency") {
      DCDO_RETURN_IF_ERROR(AddDependency(std::move(dep)));
    } else {
      DCDO_RETURN_IF_ERROR(RemoveDependency(dep));
    }
    return ByteBuffer{};
  }
  return NotFoundError("no configuration method '" + std::string(method) +
                       "'");
}

void Dcdo::HandleInvocation(const rpc::MethodInvocation& invocation,
                            rpc::ReplyFn reply) {
  // By-id fast path: a resolvable FunctionId can only name a user-defined
  // dynamic function (clients never ship configuration methods by id), so
  // dispatch straight through the DFM — no string comparisons at all.
  if (FunctionId id = invocation.ResolvedId(); id.valid()) {
    Result<ByteBuffer> result = Call(id, invocation.args());
    if (result.ok()) {
      reply(rpc::MethodResult::Ok(std::move(result).value()));
    } else {
      reply(rpc::MethodResult::Error(result.status()));
    }
    return;
  }
  const std::string_view method = invocation.method_name();
  if (method == "dcdo.incorporateComponent") {
    Reader reader(invocation.args());
    Result<ObjectId> component = reader.ReadObjectId();
    if (!component.ok()) {
      reply(rpc::MethodResult::Error(component.status()));
      return;
    }
    auto reply_sp = std::make_shared<rpc::ReplyFn>(std::move(reply));
    IncorporateComponent(*component, [reply_sp](Status status) {
      if (status.ok()) {
        (*reply_sp)(rpc::MethodResult::Ok());
      } else {
        (*reply_sp)(rpc::MethodResult::Error(status));
      }
    });
    return;
  }
  if (method == "dcdo.evolveTo") {
    // The fully remote evolution path: the caller ships a serialized DFM
    // descriptor; parsing re-validates every invariant before anything is
    // applied. Args: descriptor bytes, enforce-marks bool.
    Reader reader(invocation.args());
    Result<ByteBuffer> wire = reader.ReadBytes();
    if (!wire.ok()) {
      reply(rpc::MethodResult::Error(wire.status()));
      return;
    }
    Result<bool> enforce = reader.ReadBool();
    if (!enforce.ok()) {
      reply(rpc::MethodResult::Error(enforce.status()));
      return;
    }
    Result<DfmDescriptor> target = ParseDescriptor(*wire);
    if (!target.ok()) {
      reply(rpc::MethodResult::Error(target.status()));
      return;
    }
    auto reply_sp = std::make_shared<rpc::ReplyFn>(std::move(reply));
    EvolveTo(*target, RemovalPolicy::Error(),
             [reply_sp](Status status) {
               if (status.ok()) {
                 (*reply_sp)(rpc::MethodResult::Ok());
               } else {
                 (*reply_sp)(rpc::MethodResult::Error(status));
               }
             },
             *enforce);
    return;
  }
  if (method.starts_with("dcdo.")) {
    Result<ByteBuffer> result = DispatchConfig(method, invocation.args());
    if (result.ok()) {
      reply(rpc::MethodResult::Ok(std::move(result).value()));
    } else {
      reply(rpc::MethodResult::Error(result.status()));
    }
    return;
  }
  // User-defined dynamic function, named by string: first contact with a
  // not-yet-interned name (interning happens at incorporate time, so this
  // resolves — and subsequent calls ship by id) or a genuinely unknown one.
  Result<ByteBuffer> result = Call(std::string(method), invocation.args());
  if (result.ok()) {
    reply(rpc::MethodResult::Ok(std::move(result).value()));
  } else {
    reply(rpc::MethodResult::Error(result.status()));
  }
}

}  // namespace dcdo
