// Outside-in span recorder for the traced benchmark run.
//
// Spans are opened only by the benchmark's own files: around the calls the
// benchmark makes into the runtime, inside the bodies it registers, and in
// the link-time wrappers of wrappers.cc that interpose the runtime's
// cross-library entry points. Nothing in the runtime knows about them.
//
// A span's self time is its duration minus the durations of its direct
// children, so the self times of every span opened under a root sum exactly
// to the root's duration. The recorder keeps per-site totals (count,
// inclusive, self), self time per (layer, request kind), and the first
// kMaxRecords closed span records, which are written out at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// The runtime's modules, plus the benchmark's own code: kApp for the bodies
// it registers, kBench for its client and operator loops, and kUnknown for
// callbacks scheduled while no span was open (unattributed time).
enum class Layer : std::uint8_t {
  kUnknown,
  kBench,
  kApp,
  kSim,
  kRpc,
  kNaming,
  kDfm,
  kComponent,
  kCore,
  kRuntime,
  kCount,
};
const char* LayerName(Layer layer);

// What caused a span: the kind of the benchmark operation whose request tag
// it carries. A tag is (kind << 56) | sequence.
enum class OpKind : std::uint8_t {
  kNone,
  kCall,
  kProbe,
  kEvolve,
  kMigrate,
  kCreate,
  kDestroy,
  kCount,
};
const char* OpKindName(OpKind kind);
constexpr std::uint64_t MakeTag(OpKind kind, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(kind) << 56) | (seq & ((1ULL << 56) - 1));
}
constexpr OpKind TagKind(std::uint64_t tag) {
  return static_cast<OpKind>(tag >> 56);
}

// One instrumented place. Sites are static objects; the recorder indexes
// its per-site totals by the site's id, assigned at first use.
struct SpanSite {
  const char* name;
  Layer layer;
  int id = -1;
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  static SpanRecorder& Get();

  // Opens a span at `site`, charged to `layer` (normally site.layer; event
  // callbacks pass the layer that scheduled them). `tag` 0 inherits the
  // enclosing span's tag.
  void Open(SpanSite& site, Layer layer, std::uint64_t tag);
  void Close();

  Layer CurrentLayer() const {
    return stack_.empty() ? Layer::kUnknown : stack_.back().layer;
  }
  std::uint64_t CurrentTag() const {
    return stack_.empty() ? 0 : stack_.back().tag;
  }
  std::size_t depth() const { return stack_.size(); }

  // Clears every total and record (the open stack is kept).
  void ResetStats();
  // Starts keeping span records (bounded); off until called.
  void KeepRecords(bool on) { keep_records_ = on; }
  // While inactive, Open and Close do nothing. Flip only with no span open,
  // so the totals of a finished phase stay as they were at its end.
  void SetActive(bool on) { active_ = on; }

  struct SiteStats {
    const char* name = nullptr;
    Layer layer = Layer::kUnknown;
    std::uint64_t count = 0;
    std::int64_t inclusive_ns = 0;
    std::int64_t self_ns = 0;
  };
  const std::vector<SiteStats>& sites() const { return sites_; }
  // Totals for the site named `name` (zeroes when it never fired).
  SiteStats Site(const std::string& name) const;

  std::int64_t LayerSelf(Layer layer) const;
  std::int64_t LayerKindSelf(Layer layer, OpKind kind) const {
    return layer_kind_self_[static_cast<int>(layer)][static_cast<int>(kind)];
  }
  std::int64_t TotalSelf() const;
  std::uint64_t spans_closed() const { return spans_closed_; }

  // Closure of the timed phase: the root span is the one named `root`.
  // Unclaimed time is the root's own self time plus the self time of spans
  // charged to Layer::kUnknown; closure_error is how far the self times of
  // all spans miss the root's duration (0 when every span closed inside it).
  struct Closure {
    std::int64_t root_ns = 0;
    std::int64_t unclaimed_ns = 0;
    double unclaimed_share = 0;
    double closure_error = 0;
  };
  Closure ComputeClosure(const std::string& root) const;

  // Writes the kept span records as a JSON array to `path`.
  bool WriteRecords(const std::string& path) const;

 private:
  struct Open_ {
    int site;
    Layer layer;
    std::uint64_t tag;
    std::int64_t start;
    std::int64_t child_ns;
    std::uint32_t record;  // index into records_, or kNoRecord
    std::uint32_t parent_record;
  };
  struct Record {
    int site;
    Layer layer;
    std::uint64_t tag;
    std::int64_t start;
    std::int64_t end;
    std::uint32_t parent;
  };
  static constexpr std::uint32_t kNoRecord = 0xFFFFFFFFu;
  static constexpr std::size_t kMaxRecords = 50000;

  std::vector<Open_> stack_;
  std::vector<SiteStats> sites_;
  std::int64_t layer_kind_self_[static_cast<int>(Layer::kCount)]
                               [static_cast<int>(OpKind::kCount)] = {};
  std::uint64_t spans_closed_ = 0;
  bool keep_records_ = false;
  bool active_ = true;
  std::vector<Record> records_;
};

class SpanScope {
 public:
  SpanScope(SpanSite& site, std::uint64_t tag = 0) {
    SpanRecorder::Get().Open(site, site.layer, tag);
  }
  SpanScope(SpanSite& site, Layer layer, std::uint64_t tag) {
    SpanRecorder::Get().Open(site, layer, tag);
  }
  ~SpanScope() { SpanRecorder::Get().Close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
};

}  // namespace e2e

// Benchmark-side spans compile to nothing in the plain (metric) binary.
#define E2E_CAT_(a, b) a##b
#define E2E_CAT(a, b) E2E_CAT_(a, b)
#ifdef E2E_TRACED
#define E2E_SPAN(name, layer, tag)                                 \
  static ::e2e::SpanSite E2E_CAT(e2e_site_, __LINE__){name, layer}; \
  ::e2e::SpanScope E2E_CAT(e2e_span_, __LINE__)(E2E_CAT(e2e_site_, __LINE__), tag)
#else
#define E2E_SPAN(name, layer, tag) (void)(tag)
#endif
