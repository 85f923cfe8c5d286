// MetricsRegistry: named counters and sim-time histograms for the tracing
// layer (Section 5's evaluation numbers, machine-readable).
//
// Two pieces:
//   * trace::Counter — a relaxed atomic counter cheap enough to live inside
//     hot-path components. Layers that used to keep ad-hoc `std::uint64_t`
//     statistics (RpcClient, SimNetwork, BindingAgent — whose
//     `lookups_served_` was a mutable non-atomic increment on a const path,
//     i.e. a data race under concurrent lookups) hold these instead; their
//     existing accessors keep working via value().
//   * MetricsRegistry — the canonical name -> counter/histogram store owned
//     by the installed TraceContext. Instrumentation sites bump registry
//     metrics ("rpc.timeouts", "rpc.dedup_hits", "evolve.latency", ...) only
//     when a context is installed and enabled, so the registry costs nothing
//     in untraced runs.
//
// Registered objects have stable addresses for the registry's lifetime, so a
// hot site may look a counter up once and keep the reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sim_time.h"

namespace dcdo::trace {

// Monotonic (well, usually — in-flight gauges also subtract) event counter.
// Relaxed ordering: statistics, not synchronization.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Decrement(std::uint64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  // Overwrite to an absolute value (snapshot import).
  void Set(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Histogram over sim-time durations: exact count/sum/min/max plus log2
// nanosecond buckets (bucket i holds samples with floor(log2(ns)) == i;
// negative or zero samples land in bucket 0). Mutex-guarded — histograms are
// recorded on traced paths only, where a lock is noise next to span capture.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void Record(sim::SimDuration d) { RecordNanos(d.nanos()); }
  void RecordNanos(std::int64_t ns);

  std::uint64_t count() const;
  std::int64_t sum_nanos() const;
  std::int64_t min_nanos() const;  // 0 when empty
  std::int64_t max_nanos() const;  // 0 when empty
  double mean_nanos() const;
  // Approximate percentile (p in [0, 100]) from the log2 buckets: walks to
  // the bucket holding the p-th sample and interpolates linearly inside it,
  // clamped to the observed [min, max]. Resolution is the bucket width (a
  // factor of 2), which is plenty for p50/p99 latency reporting — exact
  // quantiles would need per-sample storage. 0 when empty.
  std::int64_t ValueAtPercentile(double p) const;
  // Bucket counts, index = floor(log2(ns)).
  std::vector<std::uint64_t> bucket_counts() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::uint64_t buckets_[kBuckets] = {};
};

class MetricsRegistry {
 public:
  // Finds or creates; the reference stays valid for the registry's lifetime.
  Counter& GetCounter(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  // Read-only lookups for tests and export; null when never created.
  const Counter* FindCounter(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;
  // Convenience: the counter's value, or 0 if it was never created.
  std::uint64_t CounterValue(std::string_view name) const;

  // Overwrites counter `name` with `value` — used to snapshot component-owned
  // counters (network message counts, transport deliveries) into the registry
  // at export time instead of paying a registry lookup per message.
  void SetCounter(std::string_view name, std::uint64_t value);

  std::vector<std::pair<std::string, std::uint64_t>> CounterSnapshot() const;
  std::vector<std::string> HistogramNames() const;

 private:
  mutable std::mutex mutex_;
  // unique_ptr values: node stability is not enough — GetCounter hands out
  // references that must survive rehash-free, and std::map nodes already do;
  // the indirection keeps Counter/Histogram non-movable types storable.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>>
      counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace dcdo::trace
