// ComponentFetcher: the component acquisition pipeline.
//
// Every path that pulls implementation component images onto a host — DCDO
// creation, incorporate, evolution, migration warm-up, coordinator prefetch —
// funnels through one of these. The fetcher owns the acquisition policy that
// used to be duplicated as hand-rolled continuation chains in Dcdo::EvolveTo
// and DcdoManager::MigrateInstance:
//
//   * bounded concurrency — at most CostModel::fetch_concurrency ICO streams
//     in flight per destination host, across all of its requests; further
//     requests queue FIFO;
//   * single-flight dedup — concurrent requests for the same
//     (host, component) join the one open stream instead of downloading the
//     image twice (two DCDOs activating on one host share each transfer);
//   * completion-order delivery — the caller's on_ready runs as each image
//     lands, not in request-list order; the terminal done runs once every
//     component in the batch has been dealt with;
//   * answered failures — a stream that cannot reach the destination, or is
//     lost in flight, settles with a Status naming the component.
//
// Every fetch is an ImplementationComponentObject::StreamTo over
// SimNetwork's fair-shared streams. At the default fetch_concurrency of 1 a
// host runs one stream at a time, so a lone acquisition costs exactly the
// paper's sequential per-component download (DESIGN.md §10).
#pragma once

#include <functional>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"
#include "component/component.h"
#include "component/ico.h"
#include "sim/host.h"
#include "trace/metrics.h"

namespace dcdo {

// Resolution of a component id to its live ICO. The fetcher cannot see
// core/ico_directory (that would invert the layering), so the directory
// implements this one-method view of itself.
class IcoResolver {
 public:
  virtual ~IcoResolver() = default;
  virtual Result<ImplementationComponentObject*> FindIco(
      const ObjectId& id) const = 0;
};

class ComponentFetcher {
 public:
  // Runs once per component as its image becomes available on the host
  // (`was_cached` distinguishes a cache hit from a completed fetch — the
  // migration path charges map time only for hits, evolution incorporates
  // either way). Returning an error aborts the whole acquisition with it.
  using ReadyCallback =
      std::function<Status(const ImplementationComponent& meta,
                           bool was_cached)>;
  using DoneCallback = std::function<void(Status)>;

  struct Options {
    // true: the first stream failure aborts the batch — queued components are
    // dropped, already-open streams land harmlessly in the cache, and `done`
    // reports the failure (which names the exact component). false: stream
    // failures are logged and skipped (migration warm-up is best-effort; the
    // instance re-fetches lazily). Resolve and on_ready failures always
    // abort.
    bool fail_fast = true;
    // Legacy migration never resolves an ICO for an already-cached image;
    // evolution/incorporate resolve first so a dangling component id fails
    // even when cached. Both orders cost the same — this only preserves each
    // caller's error behaviour.
    bool skip_resolve_when_cached = false;
  };

  explicit ComponentFetcher(const IcoResolver* resolver);

  ComponentFetcher(const ComponentFetcher&) = delete;
  ComponentFetcher& operator=(const ComponentFetcher&) = delete;

  // Acquires every component in `components` onto `dest`, calling `on_ready`
  // per component and `done(overall)` once all are settled. With an empty
  // list, `done` runs synchronously (as the legacy chains did).
  void AcquireAll(sim::SimHost* dest,
                  std::vector<ImplementationComponent> components,
                  ReadyCallback on_ready, DoneCallback done,
                  Options options);
  void AcquireAll(sim::SimHost* dest,
                  std::vector<ImplementationComponent> components,
                  ReadyCallback on_ready, DoneCallback done) {
    AcquireAll(dest, std::move(components), std::move(on_ready),
               std::move(done), Options{});
  }

  // Warms `dest`'s cache with `components` ahead of need: best-effort, no
  // completion signal, and a later AcquireAll for the same components joins
  // the in-flight streams via single-flight. No-op at fetch_concurrency 1,
  // where a prefetch would only queue ahead of the acquisition it warms.
  void Prefetch(sim::SimHost* dest,
                std::vector<ImplementationComponent> components);

  // Streams opened / requests that joined an existing stream instead.
  std::uint64_t fetches_issued() const;
  std::uint64_t fetches_coalesced() const;

 private:
  struct Shared;  // pipeline state; weak-captured by stream callbacks
  std::shared_ptr<Shared> shared_;
};

}  // namespace dcdo
