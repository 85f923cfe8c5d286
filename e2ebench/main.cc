// Benchmark binary: runs one workload and prints one report line.
//
//   e2e_plain  --workload <name> --seed <n> --seconds <s>
//   e2e_traced --workload <name> --seed <n> --seconds <s> [--spans <file>]
//   e2e_traced --selftest
//
// The last line of standard output is `E2E_REPORT {...}`, a JSON object of
// raw measurements that run.py turns into the benchmark's metrics. On any
// correctness mismatch the binary prints the reason to standard error, no
// report, and exits non-zero.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>

#include "spans.h"
#include "workloads.h"

// ===== Counting operator new =====
//
// Forwards to malloc/free and counts every allocation the process makes.
// The benchmark is single-threaded; relaxed atomics only keep the counters
// from tearing.
namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocAligned(std::size_t size, std::size_t alignment) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

void* CheckedAlloc(void* p) {
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CheckedAlloc(CountedAlloc(size)); }
void* operator new[](std::size_t size) {
  return CheckedAlloc(CountedAlloc(size));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CheckedAlloc(CountedAllocAligned(size, static_cast<std::size_t>(align)));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CheckedAlloc(CountedAllocAligned(size, static_cast<std::size_t>(align)));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace e2e {

std::uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
std::uint64_t AllocBytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

#ifdef E2E_TRACED
int RunSelfTest();  // selftest.cc
void WriteSpanReport(std::ostream& out);  // selftest.cc
#endif

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_plain|e2e_traced --workload <steady_calls|"
               "reconfig_churn|evolve_under_load> --seed <n> --seconds <s> "
               "[--spans <file>]\n"
               "       e2e_traced --selftest\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  RunOptions options;
  std::string spans_path;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(Usage());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value().c_str());
    } else if (arg == "--spans") {
      spans_path = value();
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      return Usage();
    }
  }

  // Environment guards: one inline engine, checking compiled out.
  for (const char* var : {"DCDO_SIM_WORKERS", "DCDO_SIM_THREADS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "e2ebench: refusing to run with %s set\n", var);
      return 2;
    }
  }
#ifdef DCDO_CHECK_ENABLED
  std::fprintf(stderr, "e2ebench: refusing to run with checking compiled in\n");
  return 2;
#endif

  if (selftest) {
#ifdef E2E_TRACED
    return RunSelfTest();
#else
    return Usage();
#endif
  }
  if (options.workload.empty() || options.seconds < 1) return Usage();

  RunReport report;
  if (!RunWorkload(options, &report) || !report.correct) {
    std::fprintf(stderr, "e2ebench: %s: %s\n", options.workload.c_str(),
                 report.error.c_str());
    return 1;
  }

  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\": " << JsonString(options.workload)
      << ", \"seed\": " << options.seed << ", \"seconds\": " << options.seconds
#ifdef E2E_TRACED
      << ", \"traced\": true"
#else
      << ", \"traced\": false"
#endif
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compile_flags\": " << JsonString(E2E_COMPILE_FLAGS)
      << ", \"setup_s\": [";
  for (std::size_t i = 0; i < report.setup_s.size(); ++i) {
    out << (i ? ", " : "") << report.setup_s[i];
  }
  out << "], \"warmup_sim_s\": " << report.warmup_sim_s
      << ", \"timed_sim_s\": " << report.timed_sim_s
      << ", \"timed_host_s\": " << report.timed_host_s

      << ", \"peak_rss_mb\": " << report.peak_rss_mb
      << ", \"rss_before_mb\": " << report.rss_before_mb
      << ", \"rss_after_mb\": " << report.rss_after_mb
      << ", \"calls\": " << report.calls
      << ", \"calls_failed\": " << report.calls_failed
      << ", \"reconfigs\": " << report.reconfigs
      << ", \"reconfigs_failed\": " << report.reconfigs_failed
      << ", \"reconfigs_by_kind\": {";
  bool first = true;
  for (const auto& [kind, n] : report.reconfigs_by_kind) {
    out << (first ? "" : ", ") << JsonString(kind) << ": " << n;
    first = false;
  }
  out << "}, \"call_ms\": {\"count\": " << report.call_ms.count
      << ", \"p50\": " << report.call_ms.p50 << ", \"p99\": "
      << report.call_ms.p99 << "}, \"reconfig_s\": {\"count\": "
      << report.reconfig_s.count << ", \"p50\": " << report.reconfig_s.p50
      << ", \"p99\": " << report.reconfig_s.p99 << "}, \"counts\": {";
  first = true;
  for (const auto& [name, value] : report.counts) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << value;
    first = false;
  }
  out << "}";
#ifdef E2E_TRACED
  WriteSpanReport(out);
  if (!spans_path.empty() &&
      !SpanRecorder::Get().WriteRecords(spans_path)) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
#endif
  out << "}";
  std::printf("E2E_REPORT %s\n", out.str().c_str());
  return 0;
}
