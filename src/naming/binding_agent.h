// BindingAgent: the authoritative ObjectId -> ObjectAddress directory,
// partitioned across shard replicas with lease/invalidation-maintained
// client caches.
//
// Legion resolves LOIDs to object addresses through binding agents; clients
// cache bindings locally (see BindingCache) and fall back to the agent when a
// cached binding proves stale. The paper's reproduction started with one
// monolithic agent and timeout-probed caches (25-35 s stale-binding
// discovery); this class keeps that exact behavior as its default and layers
// two opt-in mechanisms over it, both configured from CostModel knobs:
//
//   * Sharding (naming_shard_count > 1): the namespace is partitioned across
//     N shard replicas by consistent hashing (ShardMap); each shard owns its
//     slice of bindings, serves lookups independently, and — when the lookup
//     service time is modelled (directory_lookup_service > 0) — queues
//     requests behind its own service loop, so directory throughput scales
//     with shard count. The public Bind/Unbind/Lookup API is the router:
//     callers never see shards.
//
//   * Leases (binding_lease_duration > 0): a lease-granting lookup records
//     the calling BindingCache as a leaseholder; when the binding changes,
//     the owning shard pushes the fresh binding (or a drop notice) to every
//     live holder over the simulated network, so stale-binding discovery is
//     one sub-second notification instead of the timeout-probe schedule.
//     Lease expiry is the fallback when the push is lost (partition, holder
//     down) — a holder never trusts an entry past its lease.
//
// With the default configuration (one shard, leases off, unmodelled service)
// every call takes the legacy path: no hashing beyond the bindings map, no
// simulation access, byte-identical sim times.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"
#include "naming/address.h"
#include "naming/lease_table.h"
#include "naming/shard_map.h"
#include "sim/network.h"
#include "trace/metrics.h"

namespace dcdo {

// Receives pushed invalidations for bindings the holder has leased.
// Implemented by BindingCache; defined here so the agent does not depend on
// the cache (the cache already depends on the agent).
class InvalidationSink {
 public:
  // `fresh` is the pushed replacement binding (the holder may keep serving
  // it under the renewed lease expiring at `lease_expiry`), or nullptr when
  // the binding died with no forwarding address (the holder must drop it).
  virtual void OnBindingInvalidated(const ObjectId& id,
                                    const ObjectAddress* fresh,
                                    sim::SimTime lease_expiry) = 0;

 protected:
  ~InvalidationSink() = default;
};

// How a deployment's directory is laid out; derived from CostModel knobs by
// FromCostModel (the testbed path) or built by hand in tests.
struct DirectoryConfig {
  int shard_count = 1;
  int ring_points_per_shard = 64;
  sim::SimDuration lookup_service = sim::SimDuration::Zero();  // 0 = unmodelled
  sim::SimDuration lease_duration = sim::SimDuration::Zero();  // 0 = leases off
  std::size_t invalidation_bytes = 64;
  // Route modelled lookups as real request messages to the shard's host
  // instead of queueing in place from the caller's context; see
  // CostModel::directory_remote_requests.
  bool remote_requests = false;
  std::size_t request_bytes = 64;

  static DirectoryConfig FromCostModel(const sim::CostModel& cost) {
    DirectoryConfig config;
    config.shard_count = cost.naming_shard_count;
    config.ring_points_per_shard = cost.naming_ring_points;
    config.lookup_service = cost.directory_lookup_service;
    config.lease_duration = cost.binding_lease_duration;
    config.invalidation_bytes = cost.invalidation_bytes;
    config.remote_requests = cost.directory_remote_requests;
    config.request_bytes = cost.directory_request_bytes;
    return config;
  }
};

class BindingAgent {
 public:
  // (result, lease_expiry): expiry is meaningful only when the lookup was
  // lease-granting (holder != 0) and succeeded.
  using LookupCallback =
      std::function<void(Result<ObjectAddress>, sim::SimTime)>;

  // Default: one shard, leases off, unmodelled — the legacy monolithic agent.
  BindingAgent() = default;

  // Applies a directory layout. Must be called while the directory is empty
  // (no bindings, no registered holders) — a live resharding would need a
  // rebalance protocol this reproduction does not model. `simulation` and
  // `network` are required when leases or the lookup-service model are on
  // (invalidation pushes travel the simulated network; modelled lookups need
  // the clock); `shard_nodes` then names the sim host of each shard, in
  // shard order.
  [[nodiscard]] Status Configure(const DirectoryConfig& config,
                                 sim::Simulation* simulation,
                                 sim::SimNetwork* network,
                                 std::vector<sim::NodeId> shard_nodes);

  // Registers or replaces the authoritative binding for `id`. A replacement
  // (rebind after migration/evolution) pushes the fresh binding to every
  // live leaseholder.
  void Bind(const ObjectId& id, const ObjectAddress& address);

  // Removes the binding (object deactivated with no forwarding address) and
  // pushes a drop notice to every live leaseholder.
  void Unbind(const ObjectId& id);

  // Authoritative lookup; kNotFound if the object has no current activation.
  [[nodiscard]] Result<ObjectAddress> Lookup(const ObjectId& id) const;

  // Lease-granting lookup: like Lookup, but additionally records `holder`
  // (a RegisterHolder handle) as a leaseholder and returns the lease expiry
  // through `expiry`. Falls back to a plain lookup when leases are off.
  [[nodiscard]] Result<ObjectAddress> LookupWithLease(const ObjectId& id,
                                                      std::uint64_t holder,
                                                      sim::SimTime* expiry);

  // Modelled lookup: the request queues behind the owning shard's other
  // in-progress lookups, occupies the shard for lookup_service, and then
  // completes (`done` runs at completion time). With holder != 0 the lookup
  // is lease-granting. Falls back to an immediate synchronous resolution
  // when the service model is off. `client` is the calling node; with
  // remote_requests the lookup travels the network as a request message to
  // the shard's host and the answer returns the same way (so the queueing at
  // busy_until happens in NIC-serialized arrival order), otherwise it only
  // labels the caller.
  void AsyncLookup(const ObjectId& id, std::uint64_t holder,
                   sim::NodeId client, LookupCallback done);

  // Leaseholder registry (BindingCache constructor/destructor). The returned
  // handle is never reused; 0 is never a valid handle.
  std::uint64_t RegisterHolder(sim::NodeId node, InvalidationSink* sink);
  void UnregisterHolder(std::uint64_t holder);

  bool Bound(const ObjectId& id) const {
    return ShardRef(id).bindings.contains(id);
  }
  std::size_t size() const;

  bool leases_enabled() const {
    return config_.lease_duration > sim::SimDuration::Zero() &&
           network_ != nullptr;
  }
  bool lookup_service_modeled() const {
    return config_.lookup_service > sim::SimDuration::Zero() &&
           simulation_ != nullptr;
  }
  sim::Simulation* simulation() const { return simulation_; }
  const DirectoryConfig& config() const { return config_; }

  int shard_count() const { return map_.shard_count(); }
  std::size_t shard_size(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].bindings.size();
  }
  std::uint64_t shard_lookups_served(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].lookups_served.value();
  }

  // Number of Lookup calls served (all shards); benches report agent load
  // per policy.
  std::uint64_t lookups_served() const { return lookups_served_.value(); }
  std::uint64_t leases_granted() const { return leases_granted_.value(); }
  std::uint64_t invalidations_sent() const {
    return invalidations_sent_.value();
  }
  std::uint64_t invalidations_delivered() const {
    return invalidations_delivered_.value();
  }
  // Live leases across all shards, judged at the current sim time (0 when
  // unattached).
  std::size_t live_leases() const;

 private:
  struct Shard {
    std::unordered_map<ObjectId, ObjectAddress, ObjectIdHash> bindings;
    LeaseTable leases;
    sim::NodeId node = 0;          // sim host serving this shard
    sim::SimTime busy_until;       // modelled service queue drains here
    // Atomic (trace::Counter): Lookup is const and callers probe agents from
    // concurrent test threads — a plain mutable increment would be a race.
    mutable trace::Counter lookups_served;
  };
  struct HolderRecord {
    sim::NodeId node = 0;
    InvalidationSink* sink = nullptr;
  };

  std::size_t ShardIndex(const ObjectId& id) const {
    return static_cast<std::size_t>(map_.ShardFor(id));
  }
  const Shard& ShardRef(const ObjectId& id) const {
    return shards_[ShardIndex(id)];
  }
  Shard& ShardRef(const ObjectId& id) { return shards_[ShardIndex(id)]; }

  // Pushes `fresh` (or a drop notice when null) to every live leaseholder of
  // `id` over the simulated network. No-op when leases are off.
  void PushToHolders(Shard& shard, const ObjectId& id,
                     const ObjectAddress* fresh);
  void DeliverInvalidation(std::uint64_t holder, const ObjectId& id,
                           const ObjectAddress& address, bool has_fresh,
                           sim::SimTime lease_expiry);

  DirectoryConfig config_;
  ShardMap map_;
  // Shard holds an atomic counter, so the vector is sized in one shot
  // (vector(n), default-inserted in place) and never resized afterwards —
  // which also keeps the shard references captured by in-flight modelled
  // lookups stable.
  std::vector<Shard> shards_ = std::vector<Shard>(1);
  sim::Simulation* simulation_ = nullptr;
  sim::SimNetwork* network_ = nullptr;
  // Holder handles are looked up point-wise (never iterated): registration
  // order must not influence push order, which is fixed by LeaseTable's
  // ordered holder sets instead.
  std::unordered_map<std::uint64_t, HolderRecord> holders_;
  std::uint64_t next_holder_ = 1;
  // Atomic: see Shard::lookups_served.
  mutable trace::Counter lookups_served_;
  trace::Counter leases_granted_;
  trace::Counter invalidations_sent_;
  trace::Counter invalidations_delivered_;
};

}  // namespace dcdo
