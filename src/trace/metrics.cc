#include "trace/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dcdo::trace {

namespace {
std::size_t BucketFor(std::int64_t ns) {
  if (ns <= 0) return 0;
  return std::bit_width(static_cast<std::uint64_t>(ns)) - 1;
}
}  // namespace

void Histogram::RecordNanos(std::int64_t ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) {
    min_ = ns;
    max_ = ns;
  } else {
    min_ = std::min(min_, ns);
    max_ = std::max(max_, ns);
  }
  ++count_;
  sum_ += ns;
  ++buckets_[BucketFor(ns)];
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

std::int64_t Histogram::sum_nanos() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

std::int64_t Histogram::min_nanos() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return min_;
}

std::int64_t Histogram::max_nanos() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_;
}

double Histogram::mean_nanos() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::int64_t Histogram::ValueAtPercentile(double p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the wanted sample (1-based, nearest-rank).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             p / 100.0 * static_cast<double>(count_) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    if (seen + buckets_[b] < rank) {
      seen += buckets_[b];
      continue;
    }
    // Interpolate within [2^b, 2^(b+1)) by the rank's position in the bucket.
    // ldexp, not shifts: bucket 62's upper edge (2^63) overflows int64.
    const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
    const double hi = std::ldexp(2.0, static_cast<int>(b));
    const double frac = static_cast<double>(rank - seen) /
                        static_cast<double>(buckets_[b]);
    const auto value = static_cast<std::int64_t>(lo + (hi - lo) * frac);
    return std::clamp(value, min_, max_);
  }
  return max_;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<std::uint64_t>(buckets_, buckets_ + kBuckets);
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

const Counter* MetricsRegistry::FindCounter(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  const Counter* counter = FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

void MetricsRegistry::SetCounter(std::string_view name, std::uint64_t value) {
  GetCounter(name).Set(value);
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::CounterSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::string> MetricsRegistry::HistogramNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.push_back(name);
  }
  return out;
}

}  // namespace dcdo::trace
