#include "component/fetcher.h"

#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "trace/trace_context.h"

namespace dcdo {

struct ComponentFetcher::Shared {
  // One AcquireAll batch. `outstanding` counts components not yet settled;
  // the terminal `done` fires when it reaches zero, reporting the first
  // recorded failure.
  struct Request {
    ReadyCallback on_ready;
    DoneCallback done;
    Options options;
    std::size_t outstanding = 0;
    Status failure = Status::Ok();
    bool aborted = false;
  };

  struct Item {
    std::shared_ptr<Request> request;
    ImplementationComponent meta;
  };

  struct HostState {
    int in_flight = 0;        // open streams (single-flight leaders only)
    std::deque<Item> queue;   // FIFO across requests, waiting for a slot
    // Open streams by component: followers pile onto the leader's entry and
    // all settle together when the one transfer lands.
    std::unordered_map<ObjectId, std::vector<Item>, ObjectIdHash> flights;
  };

  const IcoResolver* resolver;
  std::unordered_map<sim::SimHost*, HostState> hosts;
  trace::Counter issued;
  trace::Counter coalesced;

  void Enqueue(sim::SimHost* dest, Item item) {
    hosts[dest].queue.push_back(std::move(item));
  }

  void Pump(const std::shared_ptr<Shared>& self, sim::SimHost* dest) {
    HostState& host = hosts[dest];
    int limit = dest->cost_model().fetch_concurrency;
    while (!host.queue.empty() && host.in_flight < limit) {
      Item item = std::move(host.queue.front());
      host.queue.pop_front();
      Dispatch(self, dest, host, std::move(item));
    }
  }

  // Settles one component for one request (cache hit, fetch outcome, or
  // abort) and fires the request's `done` when it was the last.
  void Settle(Item& item, Status status, bool was_cached) {
    Request& request = *item.request;
    if (status.ok() && !request.aborted) {
      status = request.on_ready(item.meta, was_cached);
      if (!status.ok()) {
        // on_ready failures are caller-side (dependency check, destroyed
        // instance) and always abort, even in best-effort mode.
        request.aborted = true;
        if (request.failure.ok()) request.failure = status;
      }
    } else if (!status.ok()) {
      if (request.options.fail_fast) {
        request.aborted = true;
        if (request.failure.ok()) request.failure = status;
      } else if (!request.aborted) {
        DCDO_LOG(kWarning) << "component fetch failed: " << status.ToString();
      }
    }
    if (--request.outstanding == 0) {
      request.done(request.failure);
    }
  }

  void Dispatch(const std::shared_ptr<Shared>& self, sim::SimHost* dest,
                HostState& host, Item item) {
    if (item.request->aborted) {
      Settle(item, Status::Ok(), /*was_cached=*/false);
      return;
    }
    const ObjectId id = item.meta.id;
    if (item.request->options.skip_resolve_when_cached &&
        dest->ComponentCached(id)) {
      Settle(item, Status::Ok(), /*was_cached=*/true);
      return;
    }
    Result<ImplementationComponentObject*> ico = resolver->FindIco(id);
    if (!ico.ok()) {
      // A dangling component id aborts the request outright (there is
      // nothing to retry against), best-effort or not.
      item.request->aborted = true;
      if (item.request->failure.ok()) item.request->failure = ico.status();
      Settle(item, Status::Ok(), /*was_cached=*/false);
      return;
    }
    if (dest->ComponentCached(id)) {
      Settle(item, Status::Ok(), /*was_cached=*/true);
      return;
    }
    auto flight = host.flights.find(id);
    if (flight != host.flights.end()) {
      // Single-flight: someone is already streaming this image here — ride
      // along instead of opening a duplicate transfer.
      coalesced.Increment();
      DCDO_TRACE_HOOK(metrics().GetCounter("ico.fetch_coalesced").Increment());
      flight->second.push_back(std::move(item));
      return;
    }
    host.flights[id].push_back(std::move(item));
    ++host.in_flight;
    issued.Increment();
    (*ico)->StreamTo(dest, [weak = std::weak_ptr<Shared>(self), dest,
                            id](Status status) {
      std::shared_ptr<Shared> self = weak.lock();
      if (self == nullptr) return;  // fetcher destroyed; image is cached
      self->OnStreamDone(self, dest, id, std::move(status));
    });
  }

  void OnStreamDone(const std::shared_ptr<Shared>& self, sim::SimHost* dest,
                    const ObjectId& id, Status status) {
    HostState& host = hosts[dest];
    auto flight = host.flights.find(id);
    if (flight == host.flights.end()) return;
    std::vector<Item> waiters = std::move(flight->second);
    host.flights.erase(flight);
    --host.in_flight;
    for (Item& item : waiters) {
      Settle(item, status, /*was_cached=*/false);
    }
    Pump(self, dest);
  }
};

ComponentFetcher::ComponentFetcher(const IcoResolver* resolver)
    : shared_(std::make_shared<Shared>()) {
  shared_->resolver = resolver;
}

void ComponentFetcher::AcquireAll(
    sim::SimHost* dest, std::vector<ImplementationComponent> components,
    ReadyCallback on_ready, DoneCallback done, Options options) {
  if (components.empty()) {
    done(Status::Ok());
    return;
  }
  auto request = std::make_shared<Shared::Request>();
  request->on_ready = std::move(on_ready);
  request->done = std::move(done);
  request->options = options;
  request->outstanding = components.size();
  for (ImplementationComponent& meta : components) {
    shared_->Enqueue(dest, Shared::Item{request, std::move(meta)});
  }
  shared_->Pump(shared_, dest);
}

void ComponentFetcher::Prefetch(
    sim::SimHost* dest, std::vector<ImplementationComponent> components) {
  if (dest->cost_model().fetch_concurrency <= 1) return;
  AcquireAll(
      dest, std::move(components),
      [](const ImplementationComponent&, bool) { return Status::Ok(); },
      [](Status) {}, Options{.fail_fast = false});
}

std::uint64_t ComponentFetcher::fetches_issued() const {
  return shared_->issued.value();
}

std::uint64_t ComponentFetcher::fetches_coalesced() const {
  return shared_->coalesced.value();
}

}  // namespace dcdo
