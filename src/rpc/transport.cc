#include "rpc/transport.h"

#include <deque>
#include <memory>
#include <string>

#include "check/check_context.h"
#include "common/logging.h"
#include "common/pool_allocator.h"
#include "rpc/session.h"
#include "trace/trace_context.h"

namespace dcdo::rpc {

// Per-endpoint at-most-once state: one entry per (origin node, call_id) seen
// by this activation. An entry is "in flight" until the handler produces its
// reply, then caches that reply for replay. Entries never re-arm, so the
// insertion-order deque IS the expiry order and the TTL sweep is a lazy
// front-pop — run on every delivery to the endpoint and, for endpoints that
// go idle, on any endpoint registration (SweepDedupWindows) — no simulator
// events, so a traced or untraced run's event count and quiescence time are
// untouched.
class DedupWindow {
 public:
  struct Entry {
    bool completed = false;
    MethodResult reply;  // valid once completed
  };
  using Key = std::pair<sim::NodeId, std::uint64_t>;  // (origin, call_id)

  // Null when absent or already retired.
  Entry* Find(const Key& key) {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  Entry& Insert(const Key& key, sim::SimTime expires_at) {
    order_.push_back({key, expires_at});
    return entries_[key];
  }

  // Retires entries whose TTL has passed; returns how many.
  std::size_t PurgeExpired(sim::SimTime now) {
    std::size_t purged = 0;
    while (!order_.empty() && order_.front().expires_at <= now) {
      entries_.erase(order_.front().key);
      order_.pop_front();
      ++purged;
    }
    return purged;
  }

  // Capacity bound (CostModel::dedup_window_max_entries): evicts oldest-first
  // until an Insert would keep the window at or under `max_entries`; returns
  // how many. 0 = unbounded. Unlike TTL retirement this can forget an answer
  // the retry schedule still needs, which is why evictions are counted
  // separately — the cap trades a bounded risk of re-execution under extreme
  // fan-in for a hard memory bound (sessions remove the trade entirely).
  std::size_t EnforceCapacity(std::size_t max_entries) {
    std::size_t evicted = 0;
    while (max_entries != 0 && entries_.size() >= max_entries &&
           !order_.empty()) {
      entries_.erase(order_.front().key);
      order_.pop_front();
      ++evicted;
    }
    return evicted;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      std::uint64_t mixed = (static_cast<std::uint64_t>(key.first) << 32) ^
                            (key.second * 0x9e3779b97f4a7c15ull);
      return std::hash<std::uint64_t>{}(mixed);
    }
  };
  struct Order {
    Key key;
    sim::SimTime expires_at;
  };

  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::deque<Order> order_;  // insertion order == expiry order
};

namespace {

// How long an entry must survive: the window must outlive the client's whole
// retry schedule — an entry is inserted when the FIRST attempt arrives and
// must still be there when the LAST possible retry lands. The arithmetic
// lives in CostModel (RetryScheduleLastSend + one timeout of transit slack)
// so this window and CostModel::StaleBindingDiscovery() derive from the same
// attempt count and can never desynchronize on a knob change.
sim::SimDuration DedupTtl(const sim::CostModel& cost) {
  return cost.DedupWindowTtl();
}

// One call in flight: the invocation and the caller's continuation ride the
// whole round trip together in a single pooled block. Every closure along
// the way (delivery, the handler's reply functor, the reply delivery)
// captures only the owning pointer, so the large payloads are moved into
// place exactly once and the closures stay within their inline buffers.
struct InFlight {
  RpcTransport* transport;
  sim::NodeId from_node;
  sim::NodeId to_node;
  sim::ProcessId to_pid;
  MethodInvocation invocation;
  ReplyFn on_reply;
  // Set at delivery: the receiving endpoint's dedup window (unsessioned
  // path) or session table (sessioned path), so the reply functor can cache
  // the handler's answer for replay. At most one is non-null.
  std::shared_ptr<DedupWindow> window;
  std::shared_ptr<ServerSessionTable> sessions;
  // Trace carriage across the async hops (0 = untraced).
  std::uint64_t send_span = 0;
  std::uint64_t dispatch_span = 0;
  // Affinity of the caller's continuation, captured at Invoke: the reply
  // delivery carries it as its determinism-digest tag.
  std::uint32_t reply_affinity = sim::kAffinityGlobal;
};

struct InFlightDelete {
  void operator()(InFlight* call) const noexcept {
    call->~InFlight();
    common::PoolFree<sizeof(InFlight)>(call);
  }
};
using InFlightPtr = std::unique_ptr<InFlight, InFlightDelete>;

}  // namespace

void RpcTransport::RegisterEndpoint(sim::NodeId node, sim::ProcessId pid,
                                    std::uint64_t epoch, Handler handler,
                                    EndpointConcurrency concurrency) {
  // Registrations are the one recurring event every long scenario has, so
  // piggyback a sweep of ALL endpoint windows here: an endpoint that went
  // idle (no further deliveries) still sheds its expired entries and their
  // cached replies instead of holding them forever.
  SweepDedupWindows();
  endpoints_[{node, pid}] = Endpoint{epoch, std::move(handler),
                                     std::make_shared<DedupWindow>(),
                                     std::make_shared<ServerSessionTable>(),
                                     concurrency};
  DCDO_CHECK_HOOK(OnEndpointOpened(node, pid, epoch));
}

void RpcTransport::SweepDedupWindows() {
  const sim::SimTime now = network_.simulation().Now();
  std::size_t purged = 0;
  for (auto& [key, endpoint] : endpoints_) {
    purged += endpoint.dedup->PurgeExpired(now);
  }
  if (purged != 0) {
    dedup_evictions_.Increment(purged);
    DCDO_TRACE_HOOK(
        metrics().GetCounter("rpc.dedup_evictions").Increment(purged));
  }
}

void RpcTransport::UnregisterEndpoint(sim::NodeId node, sim::ProcessId pid) {
  endpoints_.erase({node, pid});
  DCDO_CHECK_HOOK(OnEndpointClosed(node, pid));
}

void RpcTransport::Invoke(sim::NodeId from_node, sim::NodeId to_node,
                          sim::ProcessId to_pid, MethodInvocation invocation,
                          ReplyFn on_reply) {
  const sim::CostModel& cost = cost_model();
  sim::Simulation& simulation = network_.simulation();

  // Dispatch affinity (a determinism-digest tag): application traffic to a
  // kParallel endpoint is tagged with the destination node. Everything else
  // — config-plane methods (dcdo.*/mgr.*), serialized endpoints, an endpoint
  // not (yet) registered — is tagged global.
  std::uint32_t dispatch_affinity = sim::kAffinityGlobal;
  const bool config_plane = IsConfigMethodName(invocation.method_name());
  if (auto ep = endpoints_.find({to_node, to_pid});
      ep != endpoints_.end() &&
      ep->second.concurrency == EndpointConcurrency::kParallel &&
      !config_plane) {
    dispatch_affinity = static_cast<std::uint32_t>(to_node);
  }
  const std::uint32_t reply_affinity = simulation.CurrentAffinity();
  // Formation hint: config-plane calls (dcdo.*/mgr.*) are the latency-
  // sensitive minority — under the adaptive formation policy they must not
  // sit out a coalescing window behind data-plane traffic.
  const sim::SimNetwork::SendClass send_class =
      config_plane ? sim::SimNetwork::SendClass::kUrgent
                   : sim::SimNetwork::SendClass::kNormal;

  // The send span covers marshaling and the hand-off to the network; the
  // net.xfer span begun inside network_.Send nests under it via the scope
  // stack. Its id travels in the InFlight block so the server-side dispatch
  // span can name it as parent — the cross-node causal edge.
  std::uint64_t send_span = 0;
  if (auto* tr = trace::ActiveContext()) {
    send_span = tr->BeginSpan(
        "rpc.send", {.category = "transport",
                     .node = static_cast<std::uint32_t>(from_node),
                     .call_id = invocation.call_id});
    tr->PushScope(send_span);
  }

  // Sender-side marshaling happens before the message hits the wire.
  simulation.AdvanceInline(
      cost.rpc_marshal_per_call +
      sim::SimDuration::Seconds(static_cast<double>(invocation.args().size()) /
                                cost.marshal_bytes_per_sec));

  std::size_t wire_bytes = invocation.WireSize();
  // Return the block to the pool if a member's move constructor throws
  // (mirrors the spill path in MoveFunction).
  void* block = common::PoolAllocate<sizeof(InFlight)>();
  InFlightPtr call;
  try {
    call = InFlightPtr(::new (block) InFlight{this, from_node, to_node, to_pid,
                                              std::move(invocation),
                                              std::move(on_reply),
                                              /*window=*/nullptr,
                                              /*sessions=*/nullptr});
  } catch (...) {
    common::PoolFree<sizeof(InFlight)>(block);
    if (auto* tr = trace::ActiveContext()) {
      tr->PopScope();
      tr->EndSpan(send_span, "outcome", "marshal-failed");
    }
    throw;
  }
  call->send_span = send_span;
  call->reply_affinity = reply_affinity;
  network_.Send(
      from_node, to_node, wire_bytes,
      [this, call = std::move(call)]() mutable {
        auto it = endpoints_.find({call->to_node, call->to_pid});
        if (it == endpoints_.end()) {
          // Dead process: the invocation vanishes; caller's timeout fires.
          DCDO_LOG(kDebug) << "rpc: no endpoint at node " << call->to_node
                           << "/pid " << call->to_pid << " for "
                           << call->invocation.method_name();
          return;
        }
        if (call->invocation.expected_epoch != 0 &&
            it->second.epoch != call->invocation.expected_epoch) {
          // Same (node, pid) reused by a newer activation: the old-epoch
          // invocation is silently discarded, exactly like a message to a
          // dead address.
          epoch_rejections_.Increment();
          DCDO_TRACE_HOOK(metrics()
                              .GetCounter("rpc.epoch_rejections")
                              .Increment());
          DCDO_LOG(kDebug) << "rpc: epoch mismatch at node " << call->to_node
                           << " for " << call->invocation.method_name();
          return;
        }

        // At-most-once: consult the endpoint's dedup window before the
        // handler sees anything. Past the epoch check, (origin, call_id)
        // uniquely names a logical call at this activation. Every delivery —
        // keyed or not — retires expired entries first, so an endpoint that
        // only ever sees call_id-0 traffic still bounds its window.
        const std::uint64_t call_id = call->invocation.call_id;
        DedupWindow& window = *it->second.dedup;
        const sim::SimTime now = network_.simulation().Now();
        if (std::size_t purged = window.PurgeExpired(now); purged != 0) {
          dedup_evictions_.Increment(purged);
          DCDO_TRACE_HOOK(metrics()
                              .GetCounter("rpc.dedup_evictions")
                              .Increment(purged));
        }
        if (call->invocation.session_id != 0) {
          // Sessioned call: the slot table decides, the window never sees
          // it. Per-slot state never expires, so a retry landing arbitrarily
          // late — after any number of lease rebinds — still dedups.
          ServerSessionTable::Decision decision = it->second.sessions->Admit(
              call->from_node, call->invocation.session_id,
              call->invocation.session_slot, call->invocation.session_seq);
          switch (decision.disposition) {
            case ServerSessionTable::Disposition::kDropStale:
              // Older seq than the slot's current occupant: provably a ghost
              // of a call the client already abandoned. Its answer can no
              // longer matter, so drop without replying.
              session_stale_drops_.Increment();
              DCDO_TRACE_HOOK(
                  metrics().GetCounter("rpc.session_stale").Increment());
              DCDO_LOG(kDebug)
                  << "rpc: stale session delivery for call " << call_id
                  << " from node " << call->from_node << " dropped";
              return;
            case ServerSessionTable::Disposition::kDropInFlight:
              // The original attempt is still executing; its answer will
              // reach the client. Same reasoning as the window's in-flight
              // drop.
              session_hits_.Increment();
              DCDO_TRACE_HOOK(
                  metrics().GetCounter("rpc.session_hits").Increment());
              DCDO_LOG(kDebug)
                  << "rpc: duplicate of in-flight sessioned call " << call_id
                  << " from node " << call->from_node << " dropped";
              return;
            case ServerSessionTable::Disposition::kReplayReply: {
              // Executed before — replay the slot's cached reply without
              // re-running the body, charging only the dispatch cost.
              session_hits_.Increment();
              if (auto* tr = trace::ActiveContext()) {
                tr->metrics().GetCounter("rpc.session_hits").Increment();
                tr->Instant("rpc.session_replay",
                            {.category = "server",
                             .parent = call->send_span,
                             .node = static_cast<std::uint32_t>(call->to_node),
                             .call_id = call_id});
              }
              network_.simulation().AdvanceInline(cost_model().rpc_dispatch);
              MethodResult replay = *decision.reply;
              const sim::NodeId to_node = call->to_node;
              const sim::NodeId from_node = call->from_node;
              const std::uint32_t reply_affinity = call->reply_affinity;
              std::size_t reply_bytes = replay.WireSize();
              network_.Send(
                  to_node, from_node, reply_bytes,
                  [call = std::move(call),
                   replay = std::move(replay)]() mutable {
                    call->on_reply(std::move(replay));
                  },
                  reply_affinity);
              return;
            }
            case ServerSessionTable::Disposition::kExecute:
              // New seq on this slot: run the body; the reply functor below
              // records the answer in the slot via Complete.
              call->sessions = it->second.sessions;
              break;
          }
        } else if (call_id != 0) {
          DedupWindow::Key key{call->from_node, call_id};
          if (DedupWindow::Entry* seen = window.Find(key)) {
            dedup_hits_.Increment();
            if (auto* tr = trace::ActiveContext()) {
              tr->metrics().GetCounter("rpc.dedup_hits").Increment();
              tr->Instant("rpc.dedup",
                          {.category = "server",
                           .parent = call->send_span,
                           .node = static_cast<std::uint32_t>(call->to_node),
                           .call_id = call_id});
            }
            if (!seen->completed) {
              // The original attempt is still executing (the handler parked
              // its reply); its answer will reach the client. Dropping the
              // duplicate here is what makes the method body run once.
              DCDO_LOG(kDebug)
                  << "rpc: duplicate of in-flight call " << call_id
                  << " from node " << call->from_node << " dropped";
              return;
            }
            // The original already answered — replay the cached reply
            // without re-running the body. Charge the dispatch cost (the
            // server did look the call up) and ship the copy back.
            network_.simulation().AdvanceInline(cost_model().rpc_dispatch);
            MethodResult replay = seen->reply;
            const sim::NodeId to_node = call->to_node;
            const sim::NodeId from_node = call->from_node;
            const std::uint32_t reply_affinity = call->reply_affinity;
            std::size_t reply_bytes = replay.WireSize();
            network_.Send(
                to_node, from_node, reply_bytes,
                [call = std::move(call),
                 replay = std::move(replay)]() mutable {
                  call->on_reply(std::move(replay));
                },
                reply_affinity);
            return;
          }
          if (std::size_t evicted = window.EnforceCapacity(
                  cost_model().dedup_window_max_entries);
              evicted != 0) {
            dedup_capacity_evictions_.Increment(evicted);
            DCDO_TRACE_HOOK(metrics()
                                .GetCounter("rpc.dedup_capacity_evictions")
                                .Increment(evicted));
          }
          window.Insert(key, now + DedupTtl(cost_model()));
          call->window = it->second.dedup;
        }  // call_id 0: a hand-rolled invocation; bypasses the window.

        invocations_delivered_.Increment();
        network_.simulation().AdvanceInline(cost_model().rpc_dispatch);
        std::uint64_t dispatch_span = 0;
        auto* tr = trace::ActiveContext();
        if (tr != nullptr) {
          dispatch_span = tr->BeginSpan(
              "rpc.dispatch",
              {.category = "server",
               .parent = call->send_span,
               .node = static_cast<std::uint32_t>(call->to_node),
               .call_id = call_id});
          tr->Annotate(dispatch_span, "method",
                       call->invocation.method_name());
          call->dispatch_span = dispatch_span;
          // Handler-internal spans (dfm.call, nested outcalls) nest here.
          tr->PushScope(dispatch_span);
        }
        // Hand the handler a reference into the block and move the block
        // itself into the reply functor; the reference stays valid for as
        // long as the handler keeps the functor alive (the documented
        // contract), and the reply travels back over the network to the
        // caller when the handler fires it.
        const MethodInvocation& invocation = call->invocation;
        ReplyFn wire_reply = [call =
                                  std::move(call)](MethodResult result) mutable {
          if (call->sessions != nullptr) {
            // Park the answer in the slot for replay — Complete itself
            // guards against the slot having moved on to a successor call.
            call->sessions->Complete(call->from_node,
                                     call->invocation.session_id,
                                     call->invocation.session_slot,
                                     call->invocation.session_seq, result);
          } else if (call->window != nullptr) {
            // Record the outcome for replay — even if the reply message is
            // about to be lost on the wire, the *execution* happened, and a
            // retry must get this answer instead of a second execution.
            if (DedupWindow::Entry* entry = call->window->Find(
                    {call->from_node, call->invocation.call_id})) {
              entry->completed = true;
              entry->reply = result;
            }
          }
          if (auto* tr2 = trace::ActiveContext()) {
            tr2->EndSpan(call->dispatch_span, "status",
                         result.status.ok() ? "ok" : result.status.ToString());
          }
          RpcTransport* transport = call->transport;
          const sim::NodeId to_node = call->to_node;
          const sim::NodeId from_node = call->from_node;
          const std::uint32_t reply_affinity = call->reply_affinity;
          std::size_t reply_bytes = result.WireSize();
          transport->network_.Send(
              to_node, from_node, reply_bytes,
              [call = std::move(call), result = std::move(result)]() mutable {
                call->on_reply(std::move(result));
              },
              reply_affinity);
        };
        it->second.handler(invocation, std::move(wire_reply));
        if (tr != nullptr) tr->PopScope();
      },
      dispatch_affinity, send_class);
  if (auto* tr = trace::ActiveContext()) {
    tr->PopScope();
    tr->EndSpan(send_span);
  }
}

}  // namespace dcdo::rpc
