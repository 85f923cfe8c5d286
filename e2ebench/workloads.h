// The benchmark's three workloads, driven through the runtime's public API.
//
// Every workload runs one single-threaded inline simulation of the 16-host
// testbed with the default CostModel and checking off. Simulated clients and
// operators are entities inside the simulation (closed loop in simulated
// time), never host threads. A run is: set-up (repeated, median reported),
// warm-up until the run's own caches are at steady size, a timed phase of a
// fixed amount of simulated time (so every simulated-time metric and count
// repeats exactly for a seed), and a drain that checks every operation
// completed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  // Number of complete set-ups; the last one is used for the run. The
  // self-test lowers it to keep its short runs short.
  int setups = 5;
};

// A latency distribution: sample count and quantiles (nearest rank).
struct Quantiles {
  std::uint64_t count = 0;
  double p50 = 0;
  double p99 = 0;
};

struct RunReport {
  // Correctness gate: false means the run must print no metrics.
  bool correct = true;
  std::string error;

  std::vector<double> setup_s;   // host seconds per complete set-up
  double warmup_sim_s = 0;       // simulated warm-up length
  double timed_sim_s = 0;        // simulated timed-phase length
  double timed_host_s = 0;       // host seconds of the timed phase
  double peak_rss_mb = 0;        // VmHWM at the end of the run
  double rss_before_mb = 0;      // VmRSS at the start of the timed phase
  double rss_after_mb = 0;       // VmRSS at its end

  // Operations completed inside the timed phase.
  std::uint64_t calls = 0;
  std::uint64_t calls_failed = 0;
  std::uint64_t reconfigs = 0;
  std::uint64_t reconfigs_failed = 0;
  std::map<std::string, std::uint64_t> reconfigs_by_kind;

  Quantiles call_ms;      // simulated call latency, issue to reply
  Quantiles reconfig_s;   // simulated reconfiguration latency

  // Timed-phase deltas of the runtime's public counters and of the
  // benchmark's counting operator new.
  std::map<std::string, double> counts;
};

// Runs `options.workload`; returns false (with report->error set) for an
// unknown workload name.
bool RunWorkload(const RunOptions& options, RunReport* report);

// Heap allocations counted by the benchmark binary's operator new.
std::uint64_t AllocCount();
std::uint64_t AllocBytes();

}  // namespace e2e
