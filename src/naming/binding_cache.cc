#include "naming/binding_cache.h"

#include <utility>

#include "check/check_context.h"
#include "trace/trace_context.h"

namespace dcdo {

BindingCache::BindingCache(BindingAgent* agent, std::size_t capacity,
                           sim::NodeId node)
    : agent_(*agent), capacity_(capacity), node_(node) {
  if (agent_.leases_enabled()) {
    holder_ = agent_.RegisterHolder(node_, this);
  }
#if defined(DCDO_CHECK_ENABLED)
  // Expose the cache contents to the binding-coherence invariant. The probe
  // holds a raw `this`; the destructor unregisters before the cache dies.
  if (auto* ctx = check::CheckContext::Current()) {
    check_handle_ = ctx->RegisterBindingCache([this]() {
      std::vector<check::CacheEntrySnapshot> entries;
      entries.reserve(cache_.size());
      for (const auto& [id, entry] : cache_) {
        entries.push_back(
            {id, entry.address.node, entry.address.pid, entry.address.epoch});
      }
      return entries;
    });
  }
#endif
}

BindingCache::~BindingCache() {
  if (holder_ != 0) agent_.UnregisterHolder(holder_);
#if defined(DCDO_CHECK_ENABLED)
  if (check_handle_ != 0) {
    if (auto* ctx = check::CheckContext::Current()) {
      ctx->UnregisterBindingCache(check_handle_);
    }
  }
#endif
}

bool BindingCache::Expired(const Entry& entry) const {
  if (!entry.leased) return false;
  const sim::Simulation* sim = agent_.simulation();
  return sim != nullptr && entry.lease_expiry <= sim->Now();
}

void BindingCache::Store(const ObjectId& id, const ObjectAddress& address) {
  auto it = cache_.find(id);
  if (it != cache_.end()) {
    it->second.address = address;
    it->second.leased = false;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(id);
  cache_.emplace(id, Entry{address, lru_.begin(), sim::SimTime{}, false});
  if (capacity_ != 0 && cache_.size() > capacity_) {
    const ObjectId& victim = lru_.back();
    cache_.erase(victim);
    lru_.pop_back();
    evictions_.Increment();
    DCDO_TRACE_HOOK(metrics().GetCounter("naming.cache_evictions").Increment());
  }
}

void BindingCache::StoreLeased(const ObjectId& id, const ObjectAddress& address,
                               sim::SimTime lease_expiry) {
  Store(id, address);
  auto it = cache_.find(id);
  if (it == cache_.end()) return;  // capacity 1 corner: evicted immediately
  it->second.leased = true;
  it->second.lease_expiry = lease_expiry;
}

void BindingCache::Invalidate(const ObjectId& id) {
  auto it = cache_.find(id);
  if (it == cache_.end()) return;
  lru_.erase(it->second.lru_it);
  cache_.erase(it);
}

void BindingCache::InvalidateAll() {
  cache_.clear();
  lru_.clear();
}

void BindingCache::OnBindingInvalidated(const ObjectId& id,
                                        const ObjectAddress* fresh,
                                        sim::SimTime lease_expiry) {
  invalidations_received_.Increment();
  DCDO_TRACE_HOOK(
      metrics().GetCounter("naming.invalidations_received").Increment());
  if (fresh == nullptr || !fresh->valid()) {
    // The binding died with no forwarding address: stop serving it. The next
    // Resolve misses and consults the agent like first contact.
    Invalidate(id);
    return;
  }
  // The shard pushed the replacement binding along with a renewed lease:
  // update in place, so the very next Resolve serves the fresh address.
  StoreLeased(id, *fresh, lease_expiry);
  DCDO_CHECK_HOOK(OnBindingRefreshed(id, fresh->node, fresh->pid,
                                     fresh->epoch));
}

std::optional<ObjectAddress> BindingCache::CachedAddress(
    const ObjectId& id) const {
  auto it = cache_.find(id);
  if (it == cache_.end() || Expired(it->second)) return std::nullopt;
  return it->second.address;
}

Result<ObjectAddress> BindingCache::Resolve(const ObjectId& id) {
  auto it = cache_.find(id);
  if (it != cache_.end()) {
    if (!Expired(it->second)) {
      hits_.Increment();
      DCDO_TRACE_HOOK(metrics().GetCounter("naming.cache_hits").Increment());
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.address;
    }
    // The lease ran out with no invalidation seen (lost push, partition, or
    // plain disuse): the entry can no longer be trusted. Drop it and fall
    // through to the authoritative fetch.
    lease_expirations_.Increment();
    DCDO_TRACE_HOOK(
        metrics().GetCounter("naming.lease_expirations").Increment());
    lru_.erase(it->second.lru_it);
    cache_.erase(it);
  }
  misses_.Increment();
  DCDO_TRACE_HOOK(metrics().GetCounter("naming.cache_misses").Increment());
  if (holder_ != 0) {
    sim::SimTime expiry{};
    DCDO_ASSIGN_OR_RETURN(ObjectAddress address,
                          agent_.LookupWithLease(id, holder_, &expiry));
    StoreLeased(id, address, expiry);
    return address;
  }
  DCDO_ASSIGN_OR_RETURN(ObjectAddress address, agent_.Lookup(id));
  Store(id, address);
  return address;
}

Result<ObjectAddress> BindingCache::RefreshFromAgent(const ObjectId& id) {
  refreshes_.Increment();
  DCDO_TRACE_HOOK(metrics().GetCounter("naming.refreshes").Increment());
  Invalidate(id);  // a failed lookup must not leave the stale entry behind
  if (holder_ != 0) {
    sim::SimTime expiry{};
    DCDO_ASSIGN_OR_RETURN(ObjectAddress address,
                          agent_.LookupWithLease(id, holder_, &expiry));
    StoreLeased(id, address, expiry);
    DCDO_CHECK_HOOK(
        OnBindingRefreshed(id, address.node, address.pid, address.epoch));
    return address;
  }
  DCDO_ASSIGN_OR_RETURN(ObjectAddress address, agent_.Lookup(id));
  Store(id, address);
  DCDO_CHECK_HOOK(
      OnBindingRefreshed(id, address.node, address.pid, address.epoch));
  return address;
}

void BindingCache::RefreshFromAgentAsync(
    const ObjectId& id, std::function<void(Result<ObjectAddress>)> done) {
  if (!agent_.lookup_service_modeled()) {
    done(RefreshFromAgent(id));
    return;
  }
  refreshes_.Increment();
  DCDO_TRACE_HOOK(metrics().GetCounter("naming.refreshes").Increment());
  Invalidate(id);
  agent_.AsyncLookup(
      id, holder_,
      [this, id, done = std::move(done)](Result<ObjectAddress> address,
                                         sim::SimTime expiry) {
        if (!address.ok()) {
          done(std::move(address));
          return;
        }
        if (holder_ != 0) {
          StoreLeased(id, *address, expiry);
        } else {
          Store(id, *address);
        }
        DCDO_CHECK_HOOK(OnBindingRefreshed(id, address->node, address->pid,
                                           address->epoch));
        done(std::move(address));
      });
}

}  // namespace dcdo
