// CostModel: the single calibration point for every simulated cost.
//
// Values are calibrated to the paper's testbed (Section 4): the Legion
// "Centurion" machine — 16 dual 400 MHz Pentium II nodes, 256 MB RAM,
// 100 Mbps switched Ethernet — so that the bench harness reproduces the
// paper's reported magnitudes:
//   * 5.1 MB implementation download: 15-25 s   (effective ~2-3 Mbit/s applied
//     goodput through Legion's file-object protocol, not raw wire speed)
//   * 550 KB implementation download: ~4 s
//   * monolithic object creation:     ~2.2 s
//   * DCDO creation, 500 fns/50 comps: ~10 s
//   * component incorporate (cached):  ~200 us/component
//   * dynamic function call overhead:  10-15 us
//   * stale binding discovery:         25-35 s
//
// Anyone re-calibrating the reproduction edits exactly this struct.
#pragma once

#include <cstddef>

#include "common/status.h"
#include "sim/sim_time.h"

namespace dcdo::sim {

struct CostModel {
  // --- Network (100 Mbps switched Ethernet; Legion file transfer achieves a
  // fraction of wire speed due to per-block RPC round trips) ---
  double wire_bandwidth_bytes_per_sec = 100.0e6 / 8.0;  // 12.5 MB/s raw
  // Applied efficiency of bulk object/file transfer through the Legion
  // protocol stack. 0.021 yields ~262 KB/s goodput: 5.1 MB -> ~20 s and
  // 550 KB -> ~2.1 s + fixed per-transfer setup (below) ≈ the paper's 4 s.
  double bulk_transfer_efficiency = 0.021;
  SimDuration network_latency = SimDuration::Micros(300);
  // Fixed cost to open a transfer session with a file/component object
  // (lookup, authentication, buffer negotiation).
  SimDuration transfer_setup = SimDuration::Seconds(1.8);

  // --- RPC / method invocation ---
  SimDuration rpc_marshal_per_call = SimDuration::Micros(450);
  SimDuration rpc_dispatch = SimDuration::Micros(350);
  double marshal_bytes_per_sec = 40.0e6;  // memcpy-bound marshaling

  // --- Send batching (per-destination coalescing in SimNetwork) ---
  // Back-to-back small messages from one node to one destination are held
  // for up to this window and shipped as a single NIC transfer. Zero (the
  // calibrated default) disables batching entirely: every message takes the
  // exact legacy path, so paper-calibrated sim times are unchanged unless a
  // workload opts in.
  SimDuration send_batch_window = SimDuration::Zero();
  // A batch is flushed early once it accumulates this many payload bytes,
  // bounding the latency a full pipeline adds to the first message.
  std::size_t send_batch_max_bytes = 64 * 1024;

  // --- Binding cache bound (client-side LRU; see naming/binding_cache) ---
  // Generous by default: eviction only matters under millions of distinct
  // targets. Zero means unbounded.
  std::size_t binding_cache_capacity = 65536;

  // --- Dynamic configurability mechanism (paper: 10-15 us per call) ---
  SimDuration dfm_lookup = SimDuration::Micros(12);
  // Registering one dynamic function into a DFM during incorporate.
  SimDuration dfm_register_per_function = SimDuration::Micros(15);

  // --- Object creation / processes ---
  // Spawning an object process and loading a monolithic static executable
  // that is already present on the host (2.2 s total create time includes
  // class-object RPCs; this is the spawn+load share).
  SimDuration process_spawn = SimDuration::Seconds(1.6);
  SimDuration activation_handshake = SimDuration::Millis(250);
  // Mapping one *cached* component's code image into the address space
  // (paper: ~200 us per cached component)...
  SimDuration component_map_cached = SimDuration::Micros(200);
  // ...plus a per-component session with its ICO when the image is not in
  // the host cache. Unlike whole-executable downloads (which go through
  // Legion's slow file-object protocol), component images stream directly
  // between objects at a healthy fraction of wire speed; the session
  // overhead dominates for small components. This is what makes the paper's
  // 500-fn/50-component DCDO cost ~10 s to create: 50 × (this + stream).
  SimDuration component_fetch_overhead = SimDuration::Millis(160);
  double component_transfer_efficiency = 0.6;  // of wire bandwidth

  // --- Component acquisition pipeline (src/component/fetcher.*) ---
  // Maximum ICO fetch streams a destination host keeps in flight while
  // acquiring components (DCDO creation, evolution, migration warm-up).
  // The bound is per host, across every request that host has open; all
  // acquisitions share one pipeline (single-flight per-host dedup,
  // fair-shared links) whatever the value.
  // NOTE: this is a modelled-hardware/deployment knob, NOT a calibration
  // constant. 1 (the default) reproduces the paper's strictly sequential
  // acquisition — and its ~10 s / 50-component creation figure — byte for
  // byte; values > 1 let a host overlap its downloads, as measured by
  // EXPERIMENTS.md E13. Re-calibrating against the paper never means
  // touching this field.
  int fetch_concurrency = 1;
  // Bound on distinct component images a host caches before LRU eviction
  // (0 = unbounded, mirroring binding_cache_capacity). Eviction is safe by
  // construction: a dropped image is re-fetched from its ICO on next use.
  std::size_t component_cache_capacity = 65536;

  // --- Disk ---
  double disk_read_bytes_per_sec = 25.0e6;
  double disk_write_bytes_per_sec = 18.0e6;
  SimDuration disk_seek = SimDuration::Millis(8);

  // --- RPC sessions: bounded in-flight slots (src/rpc/session.*) ---
  // NOTE: deployment knobs, NOT calibration constants (the
  // fetch_concurrency convention). The defaults keep the PR 4 per-endpoint
  // dedup window byte for byte; non-zero session_slots opts a deployment
  // into the sessioned exactly-once protocol measured by EXPERIMENTS.md E16.
  //
  // In-flight slots each client negotiates per (client, server-endpoint)
  // session. Each slot carries a monotone sequence number; the server keeps
  // "last executed seq + cached reply" per slot, so exactly-once costs
  // O(slots) memory regardless of retry schedules, migration churn, or
  // lease rebinds — no TTL arithmetic to outlive. A caller that finds every
  // slot occupied queues client-side (admission/backpressure, the
  // rpc.backpressure metric) instead of flooding the wire. 0 = sessions off:
  // at-most-once comes from the legacy TTL-tuned dedup window alone.
  int session_slots = 0;
  // Upper bound on lease-pushed rebind rounds one call may consume
  // (rpc/client.cc OnTimeout). Every pushed rebind restarts the retry round,
  // so without a cap a continuously migrating target extends the retry
  // schedule forever — retrying endlessly and outliving the legacy dedup
  // window's TTL (re-opening double execution). The dedup TTL budgets for
  // exactly this many extra rounds when leases are on (LeaseRebindExtension
  // below); a call that exhausts the cap falls back to the ordinary
  // stale-binding schedule and then fails. Irrelevant with leases off.
  int lease_rebind_limit = 3;
  // Cap on entries one endpoint's legacy dedup window may hold (0 =
  // unbounded). The window caches a full reply per completed call for the
  // whole TTL (~61 s at the defaults), so a hot endpoint during an overload
  // spike would otherwise hold TTL x call-rate replies in memory; past the
  // cap the oldest entry is evicted early (rpc.dedup_capacity_evictions) —
  // trading a sliver of the at-most-once window, under exactly the overload
  // the sessioned path handles in O(slots), for a hard memory bound.
  std::size_t dedup_window_max_entries = 8192;

  // --- Binding / stale-address discovery (paper: 25-35 s) ---
  // A call on a dead address times out after this long...
  SimDuration invocation_timeout = SimDuration::Seconds(10);
  // ...and Legion retries this many times before declaring the binding stale
  // and consulting the binding agent.
  int stale_retry_count = 2;
  SimDuration rebind_query = SimDuration::Millis(900);

  // --- Naming directory: sharding + binding leases (src/naming) ---
  // NOTE: like fetch_concurrency, these are modelled-deployment knobs, NOT
  // calibration constants. The defaults reproduce the paper's single
  // monolithic binding agent with timeout-probed caches byte for byte;
  // non-default values opt a deployment into the partitioned directory and
  // lease/invalidation protocol measured by EXPERIMENTS.md E14.
  //
  // Number of directory shard replicas the binding namespace is partitioned
  // across (consistent hashing). 1 = the legacy single agent.
  int naming_shard_count = 1;
  // Ring points per shard in the consistent-hash map; more points = smoother
  // balance, slightly larger ring. Irrelevant at naming_shard_count = 1.
  int naming_ring_points = 64;
  // Service time a directory shard spends on one lookup/rebind request.
  // Lookups queue behind each other on their shard, which is what makes
  // directory throughput scale with shard count. Zero = unmodelled (lookups
  // are instantaneous data-structure probes, the legacy behavior).
  SimDuration directory_lookup_service = SimDuration::Zero();
  // Lease granted to a BindingCache alongside each binding it fetches. The
  // shard remembers leaseholders and pushes an invalidation (or the fresh
  // binding) when the entry rebinds or dies; expiry is the fallback when the
  // push is lost or the holder partitioned. Zero = leases off: stale
  // bindings are discovered by the legacy timeout-probe schedule alone.
  SimDuration binding_lease_duration = SimDuration::Zero();
  // Wire size of one invalidation notification (ObjectId + address + lease).
  std::size_t invalidation_bytes = 64;

  // --- State capture / restore for monolithic evolution ---
  double state_capture_bytes_per_sec = 6.0e6;
  double state_restore_bytes_per_sec = 8.0e6;

  // Derived helpers -----------------------------------------------------

  // Time to push `bytes` through the bulk-transfer path (excluding setup).
  SimDuration BulkTransferTime(std::size_t bytes) const {
    double goodput = wire_bandwidth_bytes_per_sec * bulk_transfer_efficiency;
    return SimDuration::Seconds(static_cast<double>(bytes) / goodput) +
           network_latency;
  }

  // Full download: session setup + streaming.
  SimDuration DownloadTime(std::size_t bytes) const {
    return transfer_setup + BulkTransferTime(bytes);
  }

  // Component image fetch from an ICO: per-component session overhead +
  // object-to-object streaming (much faster than the file-object path).
  SimDuration ComponentDownloadTime(std::size_t bytes) const {
    double goodput =
        wire_bandwidth_bytes_per_sec * component_transfer_efficiency;
    return component_fetch_overhead +
           SimDuration::Seconds(static_cast<double>(bytes) / goodput) +
           network_latency;
  }

  // Small-message (invocation) path: latency + marshaling of `bytes`.
  SimDuration MessageTime(std::size_t bytes) const {
    return network_latency +
           SimDuration::Seconds(static_cast<double>(bytes) /
                                wire_bandwidth_bytes_per_sec) +
           SimDuration::Seconds(static_cast<double>(bytes) /
                                marshal_bytes_per_sec);
  }

  SimDuration DiskRead(std::size_t bytes) const {
    return disk_seek + SimDuration::Seconds(static_cast<double>(bytes) /
                                            disk_read_bytes_per_sec);
  }
  SimDuration DiskWrite(std::size_t bytes) const {
    return disk_seek + SimDuration::Seconds(static_cast<double>(bytes) /
                                            disk_write_bytes_per_sec);
  }

  SimDuration StateCapture(std::size_t bytes) const {
    return SimDuration::Seconds(static_cast<double>(bytes) /
                                state_capture_bytes_per_sec);
  }
  SimDuration StateRestore(std::size_t bytes) const {
    return SimDuration::Seconds(static_cast<double>(bytes) /
                                state_restore_bytes_per_sec);
  }

  // --- Stale-binding retry schedule (single source of truth) ---
  // The client protocol (rpc/client.cc) sends up to this many attempts per
  // binding round: the original send plus stale_retry_count retries.
  int RetryAttemptsPerBinding() const { return stale_retry_count + 1; }

  // Time for a client to conclude its cached binding is stale: each attempt
  // of the first round waits out the invocation timeout, plus the final
  // binding-agent query.
  SimDuration StaleBindingDiscovery() const {
    return invocation_timeout * RetryAttemptsPerBinding() + rebind_query;
  }

  // When the LAST possible retry leaves the client, measured from the first
  // send: a full first round of timeouts, the rebind query, then the rebound
  // round's sends spaced one timeout apart (50.9 s under the defaults).
  SimDuration RetryScheduleLastSend() const {
    return invocation_timeout *
               static_cast<std::int64_t>(2 * RetryAttemptsPerBinding() - 1) +
           rebind_query;
  }

  // Extra retry-schedule length lease pushes can add: each pushed rebind
  // resets the client's per-binding attempt count, so a call may send up to
  // lease_rebind_limit additional rounds of RetryAttemptsPerBinding attempts
  // (one timeout apart) before the cap forces it onto the ordinary schedule.
  // Zero with leases off — the legacy TTL arithmetic is untouched.
  SimDuration LeaseRebindExtension() const {
    if (binding_lease_duration <= SimDuration::Zero()) {
      return SimDuration::Zero();
    }
    return invocation_timeout * static_cast<std::int64_t>(
                                    lease_rebind_limit *
                                    RetryAttemptsPerBinding());
  }

  // How long a server-side dedup entry must survive: it is inserted when the
  // FIRST attempt arrives, and must still be there when the last retry lands,
  // plus one timeout of slack for that retry's own transit. Under leases the
  // pushed-rebind rounds extend the schedule, so the TTL budgets for the
  // capped extension too — the PR 9 fix for rebind-reopened double
  // execution on the legacy (non-sessioned) path.
  SimDuration DedupWindowTtl() const {
    return RetryScheduleLastSend() + LeaseRebindExtension() +
           invocation_timeout;
  }

  // True when any non-default naming-directory feature is active (sharding,
  // modelled lookup service, or leases) — the testbed then attaches the
  // binding agent to the simulation and spawns per-shard hosts.
  bool NamingDirectoryModeled() const {
    return naming_shard_count > 1 ||
           directory_lookup_service > SimDuration::Zero() ||
           binding_lease_duration > SimDuration::Zero();
  }
};

// Sanity checks for a (possibly re-calibrated) cost model; the defaults pass.
[[nodiscard]] Status ValidateCostModel(const CostModel& model);

}  // namespace dcdo::sim
