// SimNetwork: a switched-Ethernet model connecting simulated hosts.
//
// Two traffic classes, matching how Legion moves data:
//   * Send():         small control messages (method invocations, replies) —
//                     latency + serialization, with per-NIC queueing.
//   * BulkTransfer(): implementation/component/state downloads — session
//                     setup + goodput-limited streaming (CostModel).
//
// Failure injection: nodes can be marked down and node pairs partitioned;
// traffic to an unreachable destination is silently dropped (the sender's
// RPC timeout, not the network, reports the failure — as on a real LAN).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sim/cost_model.h"
#include "sim/simulation.h"
#include "trace/metrics.h"

namespace dcdo::sim {

using NodeId = std::uint32_t;

class SimNetwork {
 public:
  // Move-only. Kept small: delivery closures that carry marshaled
  // invocations heap-allocate once and relocate by pointer; what matters is
  // that a Delivery plus the per-event wrapper capture (this + route) fits
  // the Simulation::Callback buffer, so forwarding a delivery through the
  // event loop allocates nothing.
  using Delivery = common::MoveFunction<void(), 32>;

  SimNetwork(Simulation* simulation, CostModel cost_model)
      : simulation_(*simulation), cost_(cost_model) {}

  const CostModel& cost_model() const { return cost_; }
  Simulation& simulation() { return simulation_; }

  // Registers a node; nodes start up.
  void AddNode(NodeId node);
  bool HasNode(NodeId node) const { return nodes_.contains(node); }

  void SetNodeUp(NodeId node, bool up);
  bool NodeUp(NodeId node) const;

  // Cuts (or heals) the link between two nodes; direction-symmetric.
  void SetPartitioned(NodeId a, NodeId b, bool partitioned);
  bool Reachable(NodeId from, NodeId to) const;

  // Delivers a control message of `bytes` from -> to, then runs `on_delivery`
  // at the destination's sim time. Dropped (never delivered) if unreachable.
  // Messages on the same sender NIC serialize behind each other.
  //
  // When CostModel::send_batch_window is non-zero, back-to-back sends to the
  // same destination are coalesced: the first message opens a batch and arms
  // a flush at now + window; follow-ups append until the window fires, the
  // batch reaches send_batch_max_bytes, or (formation_policy) an urgent
  // message arrives. The whole batch then crosses the NIC as one transfer
  // (one serialization + one latency), and reachability is re-checked once
  // at delivery — a partition that forms in flight drops every message in
  // the batch. Per-message counters are maintained either way. With a zero
  // window (the default) each message takes the exact legacy path.
  //
  // The delivery event is tagged with the destination node's affinity (a
  // determinism-digest tag, no effect on execution; see Simulation). The
  // overload takes an explicit affinity for callers whose delivery resumes
  // control-plane work (an RPC reply resuming a continuation passes
  // kAffinityGlobal). Each message keeps its own affinity through a batch:
  // at flush, deliveries are grouped by affinity (first-appearance order)
  // and each group lands as one event, all at the batch's single arrival
  // time — a single-affinity batch is byte-identical to the pre-grouping
  // behavior.
  //
  // SendClass is the adaptive-formation hint (CostModel::formation_policy):
  // kUrgent marks latency-sensitive traffic (the transport tags config-plane
  // invocations) that must not sit out a formation window — it flushes the
  // pending batch immediately, riding along with it. kCoalesce marks
  // deadline-insensitive traffic (bulk-adjacent control chatter): it never
  // triggers the byte-cap early flush itself, so larger batches form and
  // ship on the window deadline (or when normal/urgent traffic arrives
  // behind it). kNormal obeys the window/byte rules unmodified. With
  // formation_policy off the class is ignored.
  enum class SendClass { kNormal, kUrgent, kCoalesce };

  void Send(NodeId from, NodeId to, std::size_t bytes, Delivery on_delivery) {
    Send(from, to, bytes, std::move(on_delivery), to);
  }
  void Send(NodeId from, NodeId to, std::size_t bytes, Delivery on_delivery,
            std::uint32_t delivery_affinity,
            SendClass send_class = SendClass::kNormal);

  // Streams `bytes` from -> to through the bulk (file-object) path; `on_done`
  // runs when the last byte lands. Dropped if unreachable at start.
  void BulkTransfer(NodeId from, NodeId to, std::size_t bytes,
                    Delivery on_done);

  // Transfer with a caller-computed duration (used by the component-fetch
  // path, whose cost model differs from the file-object path). Same
  // reachability semantics as BulkTransfer.
  void TimedTransfer(NodeId from, NodeId to, std::size_t bytes,
                     SimDuration duration, Delivery on_done);

  // `on_done(delivered)` — unlike Delivery, stream completions also report
  // failure (unreachable at start, dropped in flight) so the component
  // acquisition pipeline can surface the exact failed transfer instead of
  // hanging on a silent drop.
  using StreamDone = common::MoveFunction<void(bool), 32>;

  // Bulk stream with link-aware fair sharing: after a fixed `setup` phase,
  // `bytes` flow from -> to at a rate recomputed whenever a stream touching
  // either endpoint's NIC starts or finishes — concurrent streams split
  // `wire_bandwidth_bytes_per_sec` evenly per NIC (a flow gets the wire rate
  // divided by the busier of its two endpoints), and each stream is further
  // capped at `peak_bytes_per_sec` (the transfer protocol's efficiency
  // ceiling). Delivery lands `setup + stream + network_latency` after the
  // call when the stream runs alone, so a solo stream costs exactly what the
  // caller-computed TimedTransfer path charges. Loopback (from == to) skips
  // the NIC entirely: the whole transfer is the fixed `setup` (callers pass
  // the disk-copy time).
  //
  // Determinism: re-shares are recomputed in flow-id (start) order at the
  // instants flows start or finish, from integer-nanosecond inputs — two
  // runs of one scenario produce identical completion times.
  void StreamTransfer(NodeId from, NodeId to, std::size_t bytes,
                      SimDuration setup, double peak_bytes_per_sec,
                      StreamDone on_done);

  // Streams currently in their shared (post-setup) phase; tests use this to
  // prove the acquisition pipeline's concurrency bound.
  std::size_t active_streams() const { return streaming_count_; }

  // Counters (per run; benches report message counts, the checking layer's
  // message-conservation invariant requires
  //   sent == delivered + dropped-in-flight + in-flight
  // at all times, and in-flight == 0 once the simulator is idle). Stored as
  // trace::Counter so snapshots into an installed MetricsRegistry read them
  // directly.
  std::uint64_t messages_sent() const { return messages_sent_.value(); }
  std::uint64_t messages_delivered() const {
    return messages_delivered_.value();
  }
  std::uint64_t messages_dropped() const { return messages_dropped_.value(); }
  std::uint64_t messages_dropped_in_flight() const {
    return messages_dropped_in_flight_.value();
  }
  std::uint64_t messages_in_flight() const {
    return messages_in_flight_.value();
  }
  std::uint64_t bytes_sent() const { return bytes_sent_.value(); }
  // Batching telemetry: NIC transfers that carried a batch, and messages
  // that rode along in one (i.e. avoided their own transfer).
  std::uint64_t batches_sent() const { return batches_sent_.value(); }
  std::uint64_t messages_coalesced() const {
    return messages_coalesced_.value();
  }

 private:
  // One coalesced message: its delivery closure plus the affinity its
  // delivery event must carry. Batches mix affinities (a node's outbound
  // traffic interleaves data-plane requests and control-plane replies), so
  // the affinity rides per delivery and the determinism digest sees the
  // same tags batched or not.
  struct BatchEntry {
    Delivery fn;
    std::uint32_t affinity;
  };
  struct PendingBatch {
    std::uint64_t id = 0;  // guards the armed flush against early flushes
    std::size_t bytes = 0;
    std::vector<BatchEntry> deliveries;
  };

  // One fair-shared bulk stream (StreamTransfer). `remaining`/`rate` are
  // doubles because shares are fractional; progress is settled against the
  // integer sim clock at every re-share, so drift cannot accumulate between
  // membership changes.
  struct StreamFlow {
    NodeId from = 0;
    NodeId to = 0;
    double remaining = 0.0;  // bytes left in the stream phase
    double rate = 0.0;       // current bytes/sec; 0 while in setup
    double peak = 0.0;       // efficiency ceiling, bytes/sec
    bool streaming = false;  // false while in the fixed setup phase
    SimTime last_update;
    std::uint64_t event = 0;  // pending completion event (post-setup)
    StreamDone on_done;
    std::uint64_t span = 0;
  };

  // Ships `deliveries` (already counted as sent/in-flight) as one transfer.
  void DispatchBatch(NodeId from, NodeId to, std::size_t bytes,
                     std::vector<BatchEntry> deliveries);
  void FlushBatch(NodeId from, NodeId to, std::uint64_t batch_id);

  // Stream-phase machinery: move a flow out of setup into the shared phase,
  // re-derive the fair share of every streaming flow touching `node`, and
  // settle/deliver a finished flow.
  void StartStreamPhase(std::uint64_t flow_id);
  void ReshareStreams(NodeId node);
  void UpdateFlowRate(std::uint64_t flow_id, StreamFlow& flow);
  void FinishStream(std::uint64_t flow_id);

  Simulation& simulation_;
  CostModel cost_;
  std::set<NodeId> nodes_;
  std::set<NodeId> down_;
  std::set<std::pair<NodeId, NodeId>> partitions_;  // normalized (min,max)
  std::unordered_map<NodeId, SimTime> nic_busy_until_;
  // Batch state is partitioned per sender node and pre-inserted in AddNode
  // (same discipline as nic_busy_until_). The batch-id guard counter lives
  // here too: the ids only ever compare within one (from, to) lane.
  struct SenderBatches {
    std::map<NodeId, PendingBatch> by_dest;
    std::uint64_t next_batch_id = 1;
  };
  std::unordered_map<NodeId, SenderBatches> pending_batches_;
  // Ordered by flow id (= start order) so re-share sweeps are deterministic.
  std::map<std::uint64_t, StreamFlow> stream_flows_;
  std::unordered_map<NodeId, int> node_stream_counts_;
  std::uint64_t next_stream_id_ = 1;
  std::size_t streaming_count_ = 0;
  trace::Counter batches_sent_;
  trace::Counter messages_coalesced_;
  trace::Counter messages_sent_;
  trace::Counter messages_delivered_;
  trace::Counter messages_dropped_;            // refused at send time
  trace::Counter messages_dropped_in_flight_;  // lost after acceptance
  trace::Counter messages_in_flight_;
  trace::Counter bytes_sent_;
};

}  // namespace dcdo::sim
