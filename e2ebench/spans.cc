#include "spans.h"

#include <cstdio>

namespace e2e {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kUnknown: return "unknown";
    case Layer::kBench: return "bench";
    case Layer::kApp: return "app";
    case Layer::kSim: return "sim";
    case Layer::kRpc: return "rpc";
    case Layer::kNaming: return "naming";
    case Layer::kDfm: return "dfm";
    case Layer::kComponent: return "component";
    case Layer::kCore: return "core";
    case Layer::kRuntime: return "runtime";
    case Layer::kCount: break;
  }
  return "?";
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kNone: return "none";
    case OpKind::kCall: return "call";
    case OpKind::kProbe: return "probe";
    case OpKind::kEvolve: return "evolve";
    case OpKind::kMigrate: return "migrate";
    case OpKind::kCreate: return "create";
    case OpKind::kDestroy: return "destroy";
    case OpKind::kCount: break;
  }
  return "?";
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::Open(SpanSite& site, Layer layer, std::uint64_t tag) {
  if (!active_) return;
  if (site.id < 0) {
    site.id = static_cast<int>(sites_.size());
    sites_.push_back(SiteStats{site.name, site.layer, 0, 0, 0});
  }
  if (tag == 0) tag = CurrentTag();
  std::uint32_t parent_record =
      stack_.empty() ? kNoRecord : stack_.back().record;
  std::uint32_t record = kNoRecord;
  if (keep_records_ && records_.size() < kMaxRecords) {
    record = static_cast<std::uint32_t>(records_.size());
    records_.push_back(Record{site.id, layer, tag, 0, 0, parent_record});
  }
  stack_.push_back(Open_{site.id, layer, tag, NowNs(), 0, record,
                         parent_record});
}

void SpanRecorder::Close() {
  if (!active_) return;
  std::int64_t end = NowNs();
  Open_ open = stack_.back();
  stack_.pop_back();
  std::int64_t duration = end - open.start;
  std::int64_t self = duration - open.child_ns;
  SiteStats& stats = sites_[static_cast<std::size_t>(open.site)];
  ++stats.count;
  stats.inclusive_ns += duration;
  stats.self_ns += self;
  layer_kind_self_[static_cast<int>(open.layer)]
                  [static_cast<int>(TagKind(open.tag)) %
                   static_cast<int>(OpKind::kCount)] += self;
  ++spans_closed_;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.record != kNoRecord) {
    records_[open.record].start = open.start;
    records_[open.record].end = end;
  }
}

void SpanRecorder::ResetStats() {
  for (SiteStats& stats : sites_) {
    stats.count = 0;
    stats.inclusive_ns = 0;
    stats.self_ns = 0;
  }
  for (auto& row : layer_kind_self_) {
    for (std::int64_t& cell : row) cell = 0;
  }
  spans_closed_ = 0;
  records_.clear();
  // Spans still open keep their start; their records are gone.
  for (Open_& open : stack_) {
    open.record = kNoRecord;
    open.parent_record = kNoRecord;
  }
}

SpanRecorder::SiteStats SpanRecorder::Site(const std::string& name) const {
  SiteStats out;
  for (const SiteStats& stats : sites_) {
    if (name != stats.name) continue;
    out.name = stats.name;
    out.layer = stats.layer;
    out.count += stats.count;
    out.inclusive_ns += stats.inclusive_ns;
    out.self_ns += stats.self_ns;
  }
  return out;
}

std::int64_t SpanRecorder::LayerSelf(Layer layer) const {
  std::int64_t total = 0;
  for (std::int64_t cell : layer_kind_self_[static_cast<int>(layer)]) {
    total += cell;
  }
  return total;
}

std::int64_t SpanRecorder::TotalSelf() const {
  std::int64_t total = 0;
  for (int layer = 0; layer < static_cast<int>(Layer::kCount); ++layer) {
    total += LayerSelf(static_cast<Layer>(layer));
  }
  return total;
}

SpanRecorder::Closure SpanRecorder::ComputeClosure(const std::string& root) const {
  Closure c;
  SiteStats stats = Site(root);
  c.root_ns = stats.inclusive_ns;
  c.unclaimed_ns = stats.self_ns + LayerSelf(Layer::kUnknown);
  if (c.root_ns > 0) {
    c.unclaimed_share =
        static_cast<double>(c.unclaimed_ns) / static_cast<double>(c.root_ns);
    c.closure_error = static_cast<double>(TotalSelf() - c.root_ns) /
                      static_cast<double>(c.root_ns);
  }
  return c;
}

bool SpanRecorder::WriteRecords(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"tag_kind\":\"%s\","
                 "\"tag_seq\":%llu}%s\n",
                 i, sites_[static_cast<std::size_t>(r.site)].name,
                 LayerName(r.layer), static_cast<long long>(r.start),
                 static_cast<long long>(r.end),
                 r.parent == kNoRecord ? -1LL : static_cast<long long>(r.parent),
                 OpKindName(TagKind(r.tag)),
                 static_cast<unsigned long long>(r.tag & ((1ULL << 56) - 1)),
                 i + 1 == records_.size() ? "" : ",");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

}  // namespace e2e
