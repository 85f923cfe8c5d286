// RpcTransport: delivers invocations to object activations.
//
// Each active object registers an endpoint keyed by (node, pid) with its
// current activation epoch. Delivery semantics mirror a real deployment:
//   * destination process gone, or epoch mismatch  ->  the message vanishes
//     (no ICMP-style bounce); the *caller's timeout* detects the failure.
//   * otherwise the handler runs after the dispatch cost and replies
//     asynchronously (an object may park a call while it makes an outcall —
//     the situation behind the paper's disappearing-function problems).
//
// At-most-once dispatch: each endpoint keeps a dedup window keyed by
// (origin node, call_id). A client timeout does not mean the attempt was
// lost — a slow first attempt plus its retry can BOTH arrive, and without
// dedup both execute the method body (disastrous for non-idempotent
// dcdo.*/mgr.* configuration calls). The window drops a duplicate whose
// original is still executing and replays the cached reply for one whose
// original already answered; entries retire after
// CostModel::DedupWindowTtl() — a full timeout past the last instant the
// client protocol can still send a retry, including the bounded lease-rebind
// extension (see DESIGN.md §9, §15.2). call_id 0 (a hand-rolled invocation
// that never set one) bypasses the window.
//
// Sessioned traffic (invocation.session_id != 0; see src/rpc/session.h)
// bypasses the window entirely: the endpoint's ServerSessionTable gives
// exactly-once from per-slot (last seq, cached reply) state that never
// expires, in O(slots) memory (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/move_function.h"
#include "common/status.h"
#include "rpc/message.h"
#include "sim/host.h"
#include "sim/network.h"
#include "trace/metrics.h"

namespace dcdo::rpc {

class DedupWindow;  // transport.cc; per-endpoint at-most-once state
class ServerSessionTable;  // session.h; per-endpoint exactly-once slot state

// Called by a handler to send its reply (may be deferred). Move-only: reply
// closures own the caller's continuation, which is never copied. The buffer
// fits the client's completion closure (this + call state) inline.
using ReplyFn = common::MoveFunction<void(MethodResult), 32>;
// Installed per activation; services one invocation. The MethodInvocation
// reference stays valid for as long as the handler keeps the ReplyFn alive
// (the functor owns the in-flight call record backing both) — a handler
// that parks the reply for a deferred answer may keep reading the
// invocation, but must not touch it after destroying the functor.
using Handler = std::function<void(const MethodInvocation&, ReplyFn)>;

// Which determinism-digest affinity an endpoint's dispatch events carry
// (see sim::Simulation::ScheduleFor); it has no effect on execution.
// kSerialized endpoints (the manager, class objects, anything driving
// reconfiguration) dispatch as global control-plane work. kParallel
// endpoints, whose state is confined to their node (Dcdo application
// dispatch), tag dispatch with the destination node. Config-plane methods
// (dcdo.*/mgr.*) are tagged global even on a kParallel endpoint.
enum class EndpointConcurrency { kSerialized, kParallel };

class RpcTransport {
 public:
  explicit RpcTransport(sim::SimNetwork* network) : network_(*network) {}

  // Registers the activation of an object at (node, pid) with `epoch`.
  // Replaces any previous endpoint at that key.
  void RegisterEndpoint(
      sim::NodeId node, sim::ProcessId pid, std::uint64_t epoch,
      Handler handler,
      EndpointConcurrency concurrency = EndpointConcurrency::kSerialized);

  // Removes the endpoint; subsequent deliveries to (node, pid) vanish.
  void UnregisterEndpoint(sim::NodeId node, sim::ProcessId pid);

  bool EndpointAlive(sim::NodeId node, sim::ProcessId pid) const {
    return endpoints_.contains({node, pid});
  }

  // The epoch registered at (node, pid); 0 if no endpoint is there. Lets the
  // checking layer decide whether a cached (node, pid, epoch) binding is
  // live, stale-by-epoch, or pointing at nothing.
  std::uint64_t EndpointEpoch(sim::NodeId node, sim::ProcessId pid) const {
    auto it = endpoints_.find({node, pid});
    return it == endpoints_.end() ? 0 : it->second.epoch;
  }

  // Sends `invocation` from `from_node` to the endpoint at (to_node, to_pid).
  // `on_reply` runs back at the caller's node when the reply lands; it never
  // runs if the call is lost — callers arm their own timeout.
  void Invoke(sim::NodeId from_node, sim::NodeId to_node, sim::ProcessId to_pid,
              MethodInvocation invocation, ReplyFn on_reply);

  sim::SimNetwork& network() { return network_; }
  sim::Simulation& simulation() { return network_.simulation(); }
  const sim::CostModel& cost_model() const { return network_.cost_model(); }

  // Invocations handed to a handler (duplicates suppressed by the dedup
  // window are NOT counted here — the method body never ran again).
  std::uint64_t invocations_delivered() const {
    return invocations_delivered_.value();
  }
  std::uint64_t epoch_rejections() const { return epoch_rejections_.value(); }
  // Duplicate deliveries absorbed by the window (in-flight drops + replays)
  // and window entries retired by the TTL sweep.
  std::uint64_t dedup_hits() const { return dedup_hits_.value(); }
  std::uint64_t dedup_evictions() const { return dedup_evictions_.value(); }
  // Window entries evicted by the dedup_window_max_entries capacity cap —
  // distinct from TTL retirement: a capacity eviction can forget an answer
  // early, so a non-zero count flags an undersized window.
  std::uint64_t dedup_capacity_evictions() const {
    return dedup_capacity_evictions_.value();
  }
  // Session-path duplicates absorbed (in-flight drops + cached-reply
  // replays) and provably-stale deliveries dropped (older seq than the
  // slot's current occupant — a ghost of an abandoned call).
  std::uint64_t session_hits() const { return session_hits_.value(); }
  std::uint64_t session_stale_drops() const {
    return session_stale_drops_.value();
  }

  // The endpoint's session table (null if the endpoint is gone) — tests pin
  // the O(slots) memory bound through this.
  const ServerSessionTable* EndpointSessions(sim::NodeId node,
                                             sim::ProcessId pid) const {
    auto it = endpoints_.find({node, pid});
    return it == endpoints_.end() ? nullptr : it->second.sessions.get();
  }

 private:
  // Purges expired dedup entries from every endpoint's window; called on
  // each RegisterEndpoint so idle endpoints shed their cached replies.
  void SweepDedupWindows();

  struct Endpoint {
    std::uint64_t epoch;
    Handler handler;
    // Shared with in-flight reply functors, so a reply that completes after
    // the activation re-registered still lands in *its* window (harmlessly
    // orphaned) instead of poisoning the successor's.
    std::shared_ptr<DedupWindow> dedup;
    // Same sharing discipline for session slot state: per activation, so
    // re-registration resets it (the epoch check already fences cross-epoch
    // deliveries).
    std::shared_ptr<ServerSessionTable> sessions;
    EndpointConcurrency concurrency = EndpointConcurrency::kSerialized;
  };
  struct EndpointKeyHash {
    std::size_t operator()(
        const std::pair<sim::NodeId, sim::ProcessId>& key) const noexcept {
      std::uint64_t mixed = (static_cast<std::uint64_t>(key.first) << 32) ^
                            static_cast<std::uint64_t>(key.second);
      return std::hash<std::uint64_t>{}(mixed);
    }
  };

  sim::SimNetwork& network_;
  std::unordered_map<std::pair<sim::NodeId, sim::ProcessId>, Endpoint,
                     EndpointKeyHash>
      endpoints_;
  trace::Counter invocations_delivered_;
  trace::Counter epoch_rejections_;
  trace::Counter dedup_hits_;
  trace::Counter dedup_evictions_;
  trace::Counter dedup_capacity_evictions_;
  trace::Counter session_hits_;
  trace::Counter session_stale_drops_;
};

}  // namespace dcdo::rpc
