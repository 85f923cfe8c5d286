#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <sstream>

#include "core/coordinator.h"
#include "core/manager.h"
#include "dfm/function_id.h"
#include "rpc/client.h"
#include "runtime/testbed.h"
#include "spans.h"

namespace e2e {
namespace {

using dcdo::ByteBuffer;
using dcdo::DcdoManager;
using dcdo::FunctionId;
using dcdo::ImplementationComponent;
using dcdo::ObjectId;
using dcdo::Result;
using dcdo::Status;
using dcdo::Testbed;
using dcdo::VersionId;
using dcdo::sim::SimDuration;
using dcdo::sim::SimTime;

double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// VmRSS / VmHWM of this process in MiB.
double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Simulated latencies take few distinct values, so a histogram keyed by the
// exact latency keeps every sample in constant memory.
using LatencyHistogram = std::map<std::int64_t, std::uint64_t>;  // ns -> n

Quantiles Summarise(const LatencyHistogram& histogram, double unit_ns) {
  Quantiles q;
  for (const auto& [ns, n] : histogram) q.count += n;
  if (q.count == 0) return q;
  // Nearest rank: the smallest value with at least p * count samples <= it.
  auto rank = [&](double p) {
    std::uint64_t need = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(q.count))));
    std::uint64_t seen = 0;
    for (const auto& [ns, n] : histogram) {
      seen += n;
      if (seen >= need) return static_cast<double>(ns) / unit_ns;
    }
    return static_cast<double>(histogram.rbegin()->first) / unit_ns;
  };
  q.p50 = rank(0.50);
  q.p99 = rank(0.99);
  return q;
}

// ===== Correctness ledger =====
//
// Every call carries the tag (issuer, seq). An issuer (a simulated client or
// operator) has at most one call outstanding and numbers its calls 1, 2, ...,
// so a body that sees a seq at or below the issuer's last executed seq ran a
// call twice: at-most-once is broken.
struct Ledger {
  std::vector<std::uint64_t> last_seq;
  std::uint64_t duplicates = 0;
  std::uint64_t malformed = 0;

  void Reset(std::size_t issuers) {
    last_seq.assign(issuers, 0);
    duplicates = 0;
    malformed = 0;
  }
  void Execute(std::uint32_t issuer, std::uint64_t seq) {
    if (issuer >= last_seq.size()) {
      ++malformed;
    } else if (seq <= last_seq[issuer]) {
      ++duplicates;
    } else {
      last_seq[issuer] = seq;
    }
  }
};
Ledger g_ledger;

constexpr std::size_t kArgBytes = 12;  // u32 issuer + u64 seq
constexpr std::int32_t kBaseMarker = -1;  // base bodies echo only

// Padding length of one call: max_pad * u^4 for u uniform in [0, 1), so
// arguments are mostly short with a sparse tail up to 1 KiB. Marshalling
// and transfer time depend on the size, so simulated latencies are a
// property of the seed's inputs: the seed also draws max_pad (900..1012),
// which moves the median size, and the sparse tail keeps p99 from sitting
// on one size for every seed.
std::size_t DrawMaxPad(std::mt19937_64& rng) { return 900 + rng() % 113; }
std::size_t DrawPad(std::mt19937_64& rng, std::size_t max_pad) {
  double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  return static_cast<std::size_t>(static_cast<double>(max_pad) * u * u * u *
                                  u);
}

// The call's tag followed by `pad` bytes derived from it.
std::shared_ptr<const ByteBuffer> MakeArgs(std::uint32_t issuer,
                                           std::uint64_t seq, std::size_t pad) {
  std::vector<std::byte> bytes(kArgBytes + pad);
  std::memcpy(bytes.data(), &issuer, sizeof issuer);
  std::memcpy(bytes.data() + sizeof issuer, &seq, sizeof seq);
  for (std::size_t i = 0; i < pad; ++i) {
    bytes[kArgBytes + i] = static_cast<std::byte>(seq * 131 + i);
  }
  return std::make_shared<const ByteBuffer>(std::move(bytes));
}

// A registered body: records the execution of its call's tag and echoes the
// tag, followed by its version marker unless it is a base body.
dcdo::DynamicFn MakeBody(std::int32_t marker) {
  return [marker](dcdo::CallContext&,
                  const ByteBuffer& args) -> Result<ByteBuffer> {
    E2E_SPAN("app.body", Layer::kApp, 0);
    std::uint32_t issuer = 0;
    std::uint64_t seq = 0;
    if (args.size() < kArgBytes || !args.ReadAt(0, &issuer, sizeof issuer) ||
        !args.ReadAt(4, &seq, sizeof seq)) {
      ++g_ledger.malformed;
      return ByteBuffer{};
    }
    g_ledger.Execute(issuer, seq);
    ByteBuffer out = args;
    if (marker != kBaseMarker) out.Append(&marker, sizeof marker);
    return out;
  };
}

// Empty when `reply` echoes `args` (the tag (issuer, seq) and its padding)
// from a body whose marker lies in [lo, hi] and the body ran exactly once;
// otherwise what is wrong.
std::string CheckReply(const ByteBuffer& reply, const ByteBuffer& args,
                       std::uint32_t issuer, std::uint64_t seq, std::int32_t lo,
                       std::int32_t hi) {
  std::int32_t marker = kBaseMarker;
  bool shaped =
      (reply.size() == args.size() || reply.size() == args.size() + 4) &&
      std::memcmp(reply.data(), args.data(), args.size()) == 0 &&
      (reply.size() == args.size() ||
       reply.ReadAt(args.size(), &marker, sizeof marker));
  bool ran = issuer < g_ledger.last_seq.size() &&
             g_ledger.last_seq[issuer] == seq;
  if (shaped && marker >= lo && marker <= hi && ran &&
      g_ledger.duplicates == 0 && g_ledger.malformed == 0) {
    return {};
  }
  std::ostringstream why;
  why << "tag (" << issuer << "," << seq << "): ";
  if (!shaped) {
    why << "reply does not echo the arguments";
  } else if (marker < lo || marker > hi) {
    why << "reply from body version " << marker << ", expected [" << lo << ","
        << hi << "]";
  } else if (!ran) {
    why << "body did not run";
  } else {
    why << g_ledger.duplicates << " duplicate and " << g_ledger.malformed
        << " malformed body executions";
  }
  return why.str();
}

// ===== Types and their version chains =====
//
// A type has `functions` functions in `components` base components of
// contiguous blocks. The first function of each block is "switched": base
// components do not implement it; overlay component k (one per chain
// version) implements every switched function with marker k. Version k of
// the chain is the base components plus overlay k. Deriving version k from
// k-1 incorporates overlay k, switches every switched function to it and
// removes overlay k-1, so each evolution step adds a component, switches
// functions and removes an older component.
struct TypeSpec {
  std::string name;
  int functions;
  int components;
  int chain;
  std::size_t component_bytes;
};

struct BenchType {
  std::unique_ptr<DcdoManager> manager;
  std::vector<VersionId> chain;
  std::vector<FunctionId> fns;
  std::vector<int> switched;  // function indices the overlays implement
  std::vector<bool> is_switched;
  std::vector<ObjectId> component_ids;  // base and overlays (warm-up check)
};

void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "e2ebench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(3);
  }
}
template <typename T>
T Require(Result<T> result, const char* what) {
  Require(result.status(), what);
  return std::move(result).value();
}

BenchType BuildType(Testbed& tb, const TypeSpec& spec) {
  BenchType type;
  type.manager = std::make_unique<DcdoManager>(
      spec.name, tb.host(0), &tb.transport(), &tb.agent(), &tb.registry(),
      dcdo::MakeMultiVersionGeneral());
  int block = spec.functions / spec.components;
  std::vector<std::string> names;
  for (int f = 0; f < spec.functions; ++f) {
    names.push_back(spec.name + "_fn" + std::to_string(f));
    type.fns.push_back(
        dcdo::FunctionNameTable::Global().Intern(names.back()));
    bool switched = f % block == 0;
    type.is_switched.push_back(switched);
    if (switched) type.switched.push_back(f);
  }

  std::vector<ImplementationComponent> base;
  for (int c = 0; c < spec.components; ++c) {
    std::string component = spec.name + "-c" + std::to_string(c);
    dcdo::ComponentBuilder builder(component);
    builder.SetCodeBytes(spec.component_bytes);
    for (int f = c * block; f < (c + 1) * block; ++f) {
      if (type.is_switched[static_cast<std::size_t>(f)]) continue;
      std::string symbol = component + "/" + names[static_cast<std::size_t>(f)];
      tb.registry().Register(symbol, dcdo::ImplementationType::Portable(),
                             MakeBody(kBaseMarker));
      builder.AddFunction(names[static_cast<std::size_t>(f)], "b(b)", symbol);
    }
    base.push_back(Require(builder.Build(), "build base component"));
  }
  std::vector<ImplementationComponent> overlays;
  for (int k = 0; k < spec.chain; ++k) {
    std::string component = spec.name + "-ov" + std::to_string(k);
    dcdo::ComponentBuilder builder(component);
    builder.SetCodeBytes(spec.component_bytes);
    for (int f : type.switched) {
      std::string symbol = component + "/" + names[static_cast<std::size_t>(f)];
      tb.registry().Register(symbol, dcdo::ImplementationType::Portable(),
                             MakeBody(k));
      builder.AddFunction(names[static_cast<std::size_t>(f)], "b(b)", symbol);
    }
    overlays.push_back(Require(builder.Build(), "build overlay component"));
  }
  DcdoManager& manager = *type.manager;
  for (const auto& meta : base) {
    Require(manager.PublishComponent(meta), "publish");
    type.component_ids.push_back(meta.id);
  }
  for (const auto& meta : overlays) {
    Require(manager.PublishComponent(meta), "publish");
    type.component_ids.push_back(meta.id);
  }

  VersionId root = Require(manager.CreateRootVersion(), "root version");
  dcdo::DfmDescriptor* descriptor =
      Require(manager.MutableDescriptor(root), "descriptor");
  for (const auto& meta : base) {
    Require(descriptor->IncorporateComponent(meta), "incorporate");
    for (const auto& fn : meta.functions) {
      Require(descriptor->EnableFunction(fn.function.name, meta.id), "enable");
    }
  }
  Require(descriptor->IncorporateComponent(overlays[0]), "incorporate");
  for (const auto& fn : overlays[0].functions) {
    Require(descriptor->EnableFunction(fn.function.name, overlays[0].id),
            "enable");
  }
  Require(manager.MarkInstantiable(root), "instantiable");
  Require(manager.SetCurrentVersion(root), "current");
  type.chain.push_back(root);
  for (int k = 1; k < spec.chain; ++k) {
    VersionId child =
        Require(manager.DeriveVersion(type.chain.back()), "derive");
    descriptor = Require(manager.MutableDescriptor(child), "descriptor");
    const auto& next = overlays[static_cast<std::size_t>(k)];
    Require(descriptor->IncorporateComponent(next), "incorporate");
    for (int f : type.switched) {
      Require(descriptor->SwitchImplementation(
                  names[static_cast<std::size_t>(f)], next.id),
              "switch");
    }
    Require(descriptor->RemoveComponent(
                overlays[static_cast<std::size_t>(k - 1)].id),
            "remove");
    Require(manager.MarkInstantiable(child), "instantiable");
    type.chain.push_back(child);
  }
  return type;
}

// ===== The bench: one set-up and everything that runs on it =====

struct Instance {
  ObjectId id;
  int type = 0;
  int version = 0;  // chain index the instance is at
  int target = 0;   // chain index it is moving to (== version when idle)
  int host = 0;
  bool busy = false;  // held by a reconfiguration
  bool live = true;
};

// A simulated caller: a client of steady_calls / evolve_under_load, or a
// reconfig_churn operator. Closed loop: at most one call outstanding.
struct Caller {
  std::uint32_t issuer = 0;
  std::unique_ptr<dcdo::rpc::RpcClient> rpc;
  std::mt19937_64 rng;
  std::uint64_t seq = 0;
  SimTime issued;
  int instance = 0;
  std::shared_ptr<const ByteBuffer> args;  // of the outstanding call
  std::int32_t lo = 0;  // lowest acceptable body marker for this call
  bool idle = true;
  // Operators only.
  std::vector<int> held;
  std::vector<OpKind> deck;  // op kinds still to deal
  OpKind op = OpKind::kNone;
  SimTime op_started;
};

enum class Kind { kSteadyCalls, kReconfigChurn, kEvolveUnderLoad };

// Shape constants. Timed phases are fixed lengths of simulated time, sized
// from --seconds so that one timed phase takes about that many seconds of
// host time on a 4-vCPU x86 container; warm-up, set-up and drain are extra.
constexpr int kHosts = 16;
constexpr int kFleetInstances = 128;    // steady_calls, evolve_under_load
constexpr int kFleetClients = 32;       // 2 per host
constexpr double kSteadySimPerHostSecond = 7.0;
constexpr double kEvolveSimPerHostSecond = 6.0;
constexpr double kWavePeriodSim = 15.0;     // one coordinated wave per period
constexpr int kWaveBatches = 8;             // concurrent coordinator batches
constexpr int kWavesPerMigration = 4;
constexpr int kChurnTypes = 4;
constexpr int kChurnInstancesPerType = 12;
constexpr int kChurnOperators = 4;
constexpr int kChurnMinHeld = 8;
constexpr int kChurnMaxHeld = 16;
constexpr int kChurnChain = 6;
constexpr double kChurnSimPerHostSecond = 90.0;

class Bench {
 public:
  Bench(Kind kind, const RunOptions& options, RunReport* report)
      : kind_(kind), options_(options), report_(*report) {}

  // Builds the testbed, types and fleet; returns host seconds taken.
  double Setup();
  void Warmup();
  void Timed();
  void Drain();

 private:
  dcdo::sim::Simulation& sim() { return tb_->simulation(); }
  SimTime Now() { return tb_->simulation().Now(); }
  void Fail(const std::string& why) {
    if (report_.correct) {
      report_.correct = false;
      report_.error = why;
    }
    stopping_ = true;
  }
  void RunUntil(SimTime deadline) {
    E2E_SPAN("sim.RunUntil", Layer::kSim, 0);
    sim().RunUntil(deadline);
  }

  void CreateFleet(int per_type, bool random_versions);
  void MakeCallers(int count, std::uint64_t stream);

  // steady_calls / evolve_under_load clients.
  void IssueCall(Caller& c);
  void OnCallReply(Caller& c, Result<ByteBuffer> reply, int fn);
  // evolve_under_load reconfiguration schedule.
  void ScheduleReconfigs(SimTime t0, double span_s);
  void StartWave();
  void Migrate(int instance, int dest, Caller* op);

  // reconfig_churn operators.
  void NextOp(Caller& op);
  void OnOpDone(Caller& op, OpKind kind, bool ok, int instance);
  void Probe(Caller& op, int instance);

  void CountReconfig(OpKind kind, bool ok, SimTime started);
  std::map<std::string, double> Counters();
  std::uint64_t BusyCallers() const;
  bool CachesPopulated();

  Kind kind_;
  RunOptions options_;
  RunReport& report_;
  std::unique_ptr<Testbed> tb_;
  std::vector<BenchType> types_;
  std::vector<Instance> instances_;
  std::vector<std::unique_ptr<Caller>> callers_;
  dcdo::UpdateCoordinator coordinator_;
  std::mt19937_64 schedule_rng_;
  std::size_t max_pad_ = 0;  // largest padding of this run's arguments
  bool stopping_ = false;
  bool measuring_ = false;
  LatencyHistogram call_ns_;
  LatencyHistogram reconfig_ns_;
  std::uint64_t calls_ = 0, calls_failed_ = 0;
  std::uint64_t reconfigs_ = 0, reconfigs_failed_ = 0;
  std::map<std::string, std::uint64_t> reconfigs_by_kind_;
  std::uint64_t op_seq_ = 0;
  // evolve_under_load wave state.
  int wave_version_ = 0;
  int waves_outstanding_ = 0;
  bool wave_pending_ = false;
  int migrations_outstanding_ = 0;
};

double Bench::Setup() {
  // Tear down the previous set-up outside the timed region.
  callers_.clear();
  instances_.clear();
  types_.clear();
  tb_.reset();
  double start = HostSeconds();
  Testbed::Options opts;
  opts.checking = false;
  tb_ = std::make_unique<Testbed>(opts);
  stopping_ = false;
  schedule_rng_.seed(options_.seed * 0x9E3779B97F4A7C15ULL + 7);
  max_pad_ = DrawMaxPad(schedule_rng_);

  if (kind_ == Kind::kReconfigChurn) {
    for (int t = 0; t < kChurnTypes; ++t) {
      types_.push_back(BuildType(*tb_, {"churn" + std::to_string(t), 500, 50,
                                        kChurnChain, 100 * 1024}));
    }
    CreateFleet(kChurnInstancesPerType, true);
    MakeCallers(kChurnOperators, 2);
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      callers_[i % callers_.size()]->held.push_back(static_cast<int>(i));
    }
  } else {
    // The paper's 500-function / 50-component type. evolve_under_load needs
    // one chain version per wave of its timed phase, plus the start.
    int chain = 1;
    if (kind_ == Kind::kEvolveUnderLoad) {
      chain = static_cast<int>(options_.seconds * kEvolveSimPerHostSecond /
                               kWavePeriodSim) + 2;
    }
    types_.push_back(BuildType(*tb_, {"svc", 500, 50, chain, 100 * 1024}));
    // Waves drop the previous overlay while calls may still be inside it.
    types_[0].manager->SetRemovalPolicy(dcdo::Dcdo::RemovalPolicy::Delay());
    CreateFleet(kFleetInstances, false);
    MakeCallers(kFleetClients, 1);
  }
  g_ledger.Reset(callers_.size());
  return HostSeconds() - start;
}

void Bench::CreateFleet(int per_type, bool random_versions) {
  std::size_t pending = 0;
  std::size_t failed = 0;
  for (int t = 0; t < static_cast<int>(types_.size()); ++t) {
    for (int i = 0; i < per_type; ++i) {
      Instance inst;
      inst.type = t;
      inst.host = static_cast<int>(instances_.size()) % kHosts;
      if (random_versions) {
        inst.version = static_cast<int>(schedule_rng_() % kChurnChain);
      }
      inst.target = inst.version;
      std::size_t index = instances_.size();
      instances_.push_back(inst);
      ++pending;
      BenchType& type = types_[static_cast<std::size_t>(t)];
      type.manager->CreateInstanceAt(
          type.chain[static_cast<std::size_t>(inst.version)],
          tb_->host(static_cast<std::size_t>(inst.host)),
          [this, index, &pending, &failed](Result<ObjectId> result) {
            --pending;
            if (result.ok()) {
              instances_[index].id = *result;
            } else {
              ++failed;
            }
          });
    }
  }
  sim().RunWhile([&] { return pending > 0; });
  if (failed != 0 || pending != 0) {
    std::fprintf(stderr, "e2ebench: %zu fleet creations failed, %zu unfinished\n",
                 failed, pending);
    std::exit(3);
  }
}

void Bench::MakeCallers(int count, std::uint64_t stream) {
  for (int i = 0; i < count; ++i) {
    auto c = std::make_unique<Caller>();
    c->issuer = static_cast<std::uint32_t>(i);
    // Clients 2 per host; the few operators spread over the hosts.
    std::size_t host = kind_ == Kind::kReconfigChurn
                           ? static_cast<std::size_t>(i * kHosts / count)
                           : static_cast<std::size_t>(i % kHosts);
    c->rpc = tb_->MakeClient(host);
    std::seed_seq seq{options_.seed, stream, static_cast<std::uint64_t>(i)};
    c->rng.seed(seq);
    callers_.push_back(std::move(c));
  }
}

// ----- steady_calls / evolve_under_load: clients -----

void Bench::IssueCall(Caller& c) {
  if (stopping_) {
    c.idle = true;
    return;
  }
  c.idle = false;
  const BenchType& type = types_[0];
  c.instance = static_cast<int>(c.rng() % instances_.size());
  int fn = static_cast<int>(c.rng() % type.fns.size());
  const Instance& inst = instances_[static_cast<std::size_t>(c.instance)];
  c.lo = type.is_switched[static_cast<std::size_t>(fn)] ? inst.version
                                                         : kBaseMarker;
  ++c.seq;
  c.issued = Now();
  c.args = MakeArgs(c.issuer, c.seq, DrawPad(c.rng, max_pad_));
  Caller* caller = &c;
  E2E_SPAN("rpc.RpcClient::Invoke", Layer::kRpc,
           MakeTag(OpKind::kCall, ++op_seq_));
  c.rpc->Invoke(inst.id, type.fns[static_cast<std::size_t>(fn)], c.args,
                [this, caller, fn](Result<ByteBuffer> reply) {
                  OnCallReply(*caller, std::move(reply), fn);
                });
}

void Bench::OnCallReply(Caller& c, Result<ByteBuffer> reply, int fn) {
  E2E_SPAN("bench.on_reply", Layer::kBench, 0);
  if (measuring_) {
    ++call_ns_[(Now() - c.issued).nanos()];
    ++calls_;
  }
  if (!reply.ok()) {
    if (measuring_) ++calls_failed_;
  } else {
    const Instance& inst = instances_[static_cast<std::size_t>(c.instance)];
    std::int32_t hi = types_[0].is_switched[static_cast<std::size_t>(fn)]
                          ? std::max(inst.version, inst.target)
                          : kBaseMarker;
    std::string why = CheckReply(*reply, *c.args, c.issuer, c.seq, c.lo, hi);
    if (!why.empty()) Fail(why);
  }
  IssueCall(c);
}

void Bench::CountReconfig(OpKind kind, bool ok, SimTime started) {
  if (!measuring_) return;
  ++reconfigs_;
  ++reconfigs_by_kind_[OpKindName(kind)];
  if (!ok) ++reconfigs_failed_;
  if (kind != OpKind::kDestroy) {
    ++reconfig_ns_[(Now() - started).nanos()];
  }
}

// ----- evolve_under_load: waves and the migration trickle -----

void Bench::ScheduleReconfigs(SimTime t0, double span_s) {
  E2E_SPAN("bench.schedule", Layer::kBench, 0);
  int waves = static_cast<int>(span_s / kWavePeriodSim);
  for (int k = 0; k < waves; ++k) {
    SimTime wave_at = t0 + SimDuration::Seconds(k * kWavePeriodSim);
    sim().ScheduleAt(wave_at, [this] { StartWave(); });
    // A trickle of migrations: mid-period, when no wave holds the fleet.
    // Every client that calls a moved instance waits out the stale-binding
    // timeouts (about 31 s), so migrations stay rare next to the waves.
    if (k % kWavesPerMigration != 0) continue;
    SimTime migrate_at = wave_at + SimDuration::Seconds(kWavePeriodSim / 2);
    int instance = static_cast<int>(schedule_rng_() % instances_.size());
    int hop = 1 + static_cast<int>(schedule_rng_() % (kHosts - 1));
    sim().ScheduleAt(migrate_at, [this, instance, hop] {
      Instance& inst = instances_[static_cast<std::size_t>(instance)];
      if (stopping_ || inst.busy || waves_outstanding_ > 0) return;
      Migrate(instance, (inst.host + hop) % kHosts, nullptr);
    });
  }
}

void Bench::StartWave() {
  E2E_SPAN("bench.wave", Layer::kBench, 0);
  if (stopping_) return;
  if (waves_outstanding_ > 0 || migrations_outstanding_ > 0) {
    wave_pending_ = true;  // starts when the fleet is free again
    return;
  }
  wave_pending_ = false;
  const BenchType& type = types_[0];
  if (wave_version_ + 1 >= static_cast<int>(type.chain.size())) return;
  int target = ++wave_version_;
  SimTime started = Now();
  for (int b = 0; b < kWaveBatches; ++b) {
    std::vector<dcdo::UpdateCoordinator::Step> steps;
    std::vector<int> members;
    for (std::size_t i = static_cast<std::size_t>(b); i < instances_.size();
         i += kWaveBatches) {
      Instance& inst = instances_[i];
      inst.busy = true;
      inst.target = target;
      members.push_back(static_cast<int>(i));
      steps.push_back({type.manager.get(), inst.id,
                       type.chain[static_cast<std::size_t>(target)]});
    }
    ++waves_outstanding_;
    E2E_SPAN("core.UpdateCoordinator::Execute", Layer::kCore,
             MakeTag(OpKind::kEvolve, ++op_seq_));
    coordinator_.Execute(
        std::move(steps),
        [this, members, target, started](dcdo::UpdateCoordinator::Outcome out) {
          E2E_SPAN("bench.on_done", Layer::kBench, 0);
          for (int i : members) {
            Instance& inst = instances_[static_cast<std::size_t>(i)];
            if (out.ok()) inst.version = target;
            inst.target = inst.version;
            inst.busy = false;
            CountReconfig(OpKind::kEvolve, out.ok(), started);
          }
          if (!out.ok()) Fail("wave failed: " + out.status.ToString());
          if (--waves_outstanding_ == 0 && wave_pending_) StartWave();
        });
  }
}

void Bench::Migrate(int instance, int dest, Caller* op) {
  Instance& inst = instances_[static_cast<std::size_t>(instance)];
  inst.busy = true;
  ++migrations_outstanding_;
  SimTime started = Now();
  E2E_SPAN("core.DcdoManager::MigrateInstance", Layer::kCore,
           MakeTag(OpKind::kMigrate, ++op_seq_));
  types_[static_cast<std::size_t>(inst.type)].manager->MigrateInstance(
      inst.id, tb_->host(static_cast<std::size_t>(dest)),
      [this, instance, dest, op, started](Status status) {
        E2E_SPAN("bench.on_done", Layer::kBench, 0);
        Instance& moved = instances_[static_cast<std::size_t>(instance)];
        moved.busy = false;
        --migrations_outstanding_;
        if (status.ok()) moved.host = dest;
        if (op != nullptr) {
          // The operator that moved the object drops its own stale binding.
          op->rpc->cache().Invalidate(moved.id);
          OnOpDone(*op, OpKind::kMigrate, status.ok(), instance);
        } else {
          CountReconfig(OpKind::kMigrate, status.ok(), started);
          if (!status.ok()) Fail("migration failed: " + status.ToString());
          if (wave_pending_ && migrations_outstanding_ == 0) StartWave();
        }
      });
}

// ----- reconfig_churn: operators -----

void Bench::NextOp(Caller& op) {
  if (stopping_) {
    op.idle = true;
    return;
  }
  op.idle = false;
  // Kinds are dealt from a shuffled deck with the mix's exact proportions,
  // so the mix of a timed phase does not vary with the seed; which
  // instance, version and host each op picks does.
  if (op.deck.empty()) {
    op.deck = {OpKind::kEvolve,  OpKind::kEvolve, OpKind::kEvolve,
               OpKind::kEvolve,  OpKind::kMigrate, OpKind::kMigrate,
               OpKind::kCreate,  OpKind::kDestroy};
    std::shuffle(op.deck.begin(), op.deck.end(), op.rng);
  }
  OpKind kind = op.deck.back();
  op.deck.pop_back();
  if (kind == OpKind::kCreate && op.held.size() >= kChurnMaxHeld) {
    kind = OpKind::kDestroy;
  }
  if (kind == OpKind::kDestroy && op.held.size() <= kChurnMinHeld) {
    kind = OpKind::kCreate;
  }
  op.op = kind;
  op.op_started = Now();
  std::uint64_t tag = MakeTag(kind, ++op_seq_);
  std::size_t pick = static_cast<std::size_t>(op.rng() % op.held.size());
  int instance = op.held[pick];
  Instance& inst = instances_[static_cast<std::size_t>(instance)];
  BenchType& type = types_[static_cast<std::size_t>(inst.type)];
  Caller* operator_ptr = &op;
  switch (kind) {
    case OpKind::kEvolve: {
      int target = static_cast<int>(op.rng() % (kChurnChain - 1));
      if (target >= inst.version) ++target;
      inst.target = target;
      E2E_SPAN("core.DcdoManager::EvolveInstanceTo", Layer::kCore, tag);
      type.manager->EvolveInstanceTo(
          inst.id, type.chain[static_cast<std::size_t>(target)],
          [this, operator_ptr, instance, target](Status status) {
            E2E_SPAN("bench.on_done", Layer::kBench, 0);
            Instance& evolved = instances_[static_cast<std::size_t>(instance)];
            if (status.ok()) evolved.version = target;
            evolved.target = evolved.version;
            OnOpDone(*operator_ptr, OpKind::kEvolve, status.ok(), instance);
          });
      break;
    }
    case OpKind::kMigrate: {
      int hop = 1 + static_cast<int>(op.rng() % (kHosts - 1));
      Migrate(instance, (inst.host + hop) % kHosts, &op);
      break;
    }
    case OpKind::kCreate: {
      int t = static_cast<int>(op.rng() % types_.size());
      Instance created;
      created.type = t;
      created.version = static_cast<int>(op.rng() % kChurnChain);
      created.target = created.version;
      created.host = static_cast<int>(op.rng() % kHosts);
      int index = static_cast<int>(instances_.size());
      instances_.push_back(created);
      BenchType& new_type = types_[static_cast<std::size_t>(t)];
      E2E_SPAN("core.DcdoManager::CreateInstanceAt", Layer::kCore, tag);
      new_type.manager->CreateInstanceAt(
          new_type.chain[static_cast<std::size_t>(created.version)],
          tb_->host(static_cast<std::size_t>(created.host)),
          [this, operator_ptr, index](Result<ObjectId> result) {
            E2E_SPAN("bench.on_done", Layer::kBench, 0);
            Instance& made = instances_[static_cast<std::size_t>(index)];
            made.live = result.ok();
            if (result.ok()) {
              made.id = *result;
              operator_ptr->held.push_back(index);
            }
            OnOpDone(*operator_ptr, OpKind::kCreate, result.ok(),
                     result.ok() ? index : -1);
          });
      break;
    }
    case OpKind::kDestroy: {
      Status status;
      {
        E2E_SPAN("core.DcdoManager::DestroyInstance", Layer::kCore, tag);
        status = type.manager->DestroyInstance(inst.id);
      }
      if (status.ok()) {
        inst.live = false;
        op.held.erase(op.held.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      OnOpDone(op, OpKind::kDestroy, status.ok(), -1);
      break;
    }
    default:
      break;
  }
}

void Bench::OnOpDone(Caller& op, OpKind kind, bool ok, int instance) {
  CountReconfig(kind, ok, op.op_started);
  if (!ok) {
    Fail(std::string("reconfiguration failed: ") + OpKindName(kind));
    op.idle = true;
    return;
  }
  // Probe the instance the op targeted (a held one after a destroy): the
  // answer must come from the body of the version the instance is now at.
  if (instance < 0) {
    instance = op.held[static_cast<std::size_t>(op.rng() % op.held.size())];
  }
  Probe(op, instance);
}

void Bench::Probe(Caller& op, int instance) {
  const Instance& inst = instances_[static_cast<std::size_t>(instance)];
  const BenchType& type = types_[static_cast<std::size_t>(inst.type)];
  int fn = type.switched[static_cast<std::size_t>(op.rng() %
                                                  type.switched.size())];
  op.instance = instance;
  op.lo = inst.version;
  ++op.seq;
  op.issued = Now();
  op.args = MakeArgs(op.issuer, op.seq, DrawPad(op.rng, max_pad_));
  Caller* operator_ptr = &op;
  E2E_SPAN("rpc.RpcClient::Invoke", Layer::kRpc,
           MakeTag(OpKind::kProbe, ++op_seq_));
  op.rpc->Invoke(
      inst.id, type.fns[static_cast<std::size_t>(fn)], op.args,
      [this, operator_ptr](Result<ByteBuffer> reply) {
        E2E_SPAN("bench.on_reply", Layer::kBench, 0);
        Caller& o = *operator_ptr;
        if (measuring_) {
          ++call_ns_[(Now() - o.issued).nanos()];
          ++calls_;
        }
        if (!reply.ok()) {
          if (measuring_) ++calls_failed_;
          Fail("probe failed: " + reply.status().ToString());
        } else {
          std::string why =
              CheckReply(*reply, *o.args, o.issuer, o.seq, o.lo, o.lo);
          if (!why.empty()) Fail("probe after " + std::string(OpKindName(o.op)) +
                                 ": " + why);
        }
        NextOp(o);
      });
}

// ----- phases -----

std::uint64_t Bench::BusyCallers() const {
  std::uint64_t busy = 0;
  for (const auto& c : callers_) busy += c->idle ? 0 : 1;
  return busy;
}

bool Bench::CachesPopulated() {
  // Every host holds every component of every type.
  for (const BenchType& type : types_) {
    for (const ObjectId& component : type.component_ids) {
      for (int h = 0; h < kHosts; ++h) {
        if (!tb_->host(static_cast<std::size_t>(h))->ComponentCached(component)) {
          return false;
        }
      }
    }
  }
  return true;
}

std::map<std::string, double> Bench::Counters() {
  std::map<std::string, double> c;
  auto& t = tb_->transport();
  c["events"] = static_cast<double>(sim().events_fired());
  c["net_msgs"] = static_cast<double>(tb_->network().messages_sent());
  c["net_bytes"] = static_cast<double>(tb_->network().bytes_sent());
  c["invocations_delivered"] = static_cast<double>(t.invocations_delivered());
  c["dedup_hits"] = static_cast<double>(t.dedup_hits());
  c["dedup_evictions"] = static_cast<double>(t.dedup_evictions());
  c["dedup_capacity_evictions"] =
      static_cast<double>(t.dedup_capacity_evictions());
  double timeouts = 0, rebinds = 0, hits = 0, misses = 0;
  for (const auto& caller : callers_) {
    timeouts += static_cast<double>(caller->rpc->timeouts());
    rebinds += static_cast<double>(caller->rpc->rebinds());
    hits += static_cast<double>(caller->rpc->cache().hits());
    misses += static_cast<double>(caller->rpc->cache().misses());
  }
  c["rpc_timeouts"] = timeouts;
  c["rpc_rebinds"] = rebinds;
  c["cache_hits"] = hits;
  c["cache_misses"] = misses;
  c["agent_lookups"] = static_cast<double>(tb_->agent().lookups_served());
  // Downloads are counted where they are served: the sequential fetch path
  // (fetch_concurrency 1, the default) bypasses the fetcher's stream
  // counters, which count only pipelined streams and their coalescing.
  double served = 0, streams = 0, coalesced = 0;
  for (const BenchType& type : types_) {
    streams += static_cast<double>(type.manager->fetcher().fetches_issued());
    coalesced +=
        static_cast<double>(type.manager->fetcher().fetches_coalesced());
    for (const ObjectId& component : type.component_ids) {
      auto ico = type.manager->icos().Find(component);
      if (ico.ok()) served += static_cast<double>((*ico)->fetches_served());
    }
  }
  c["component_fetches"] = served;
  c["fetcher_streams"] = streams;
  c["fetcher_coalesced"] = coalesced;
  double evictions = 0;
  for (int h = 0; h < kHosts; ++h) {
    evictions += static_cast<double>(
        tb_->host(static_cast<std::size_t>(h))->component_evictions());
  }
  c["component_evictions"] = evictions;
  double rejected = 0;
  for (const Instance& inst : instances_) {
    if (!inst.live) continue;
    dcdo::Dcdo* object =
        types_[static_cast<std::size_t>(inst.type)].manager->FindInstance(
            inst.id);
    if (object != nullptr) {
      rejected += static_cast<double>(object->mapper().calls_rejected());
    }
  }
  c["dfm_rejected"] = rejected;
  c["allocs"] = static_cast<double>(AllocCount());
  c["alloc_bytes"] = static_cast<double>(AllocBytes());
  return c;
}

void Bench::Warmup() {
  SimTime start = Now();
  if (kind_ == Kind::kReconfigChurn) {
    for (auto& op : callers_) NextOp(*op);
    // Host component caches populated: every component of every version on
    // every host, so no reconfiguration in the timed phase pays a download.
    bool populated = false;
    for (int chunk = 0; chunk < 2000 && report_.correct && !populated;
         ++chunk) {
      RunUntil(Now() + SimDuration::Seconds(10));
      populated = CachesPopulated();
    }
    if (!populated && report_.correct) {
      Fail("warm-up did not populate the host component caches");
    }
  } else {
    for (auto& c : callers_) IssueCall(*c);
    // Steady state: every call retires or capacity-evicts one dedup-window
    // entry (the windows are full), and the clients' binding caches stopped
    // missing.
    bool steady = false;
    for (int chunk = 0; chunk < 300 && report_.correct; ++chunk) {
      auto before = Counters();
      RunUntil(Now() + SimDuration::Seconds(1));
      auto after = Counters();
      double calls =
          after["invocations_delivered"] - before["invocations_delivered"];
      double evicted =
          after["dedup_evictions"] - before["dedup_evictions"] +
          after["dedup_capacity_evictions"] - before["dedup_capacity_evictions"];
      double misses = after["cache_misses"] - before["cache_misses"];
      if (calls > 0 && evicted >= 0.98 * calls && misses == 0) {
        steady = true;
        break;
      }
    }
    if (!steady && report_.correct) Fail("warm-up did not reach steady state");
  }
  report_.warmup_sim_s = (Now() - start).ToSeconds();
}

void Bench::Timed() {
  double span_s = options_.seconds *
                  (kind_ == Kind::kSteadyCalls     ? kSteadySimPerHostSecond
                   : kind_ == Kind::kEvolveUnderLoad ? kEvolveSimPerHostSecond
                                                     : kChurnSimPerHostSecond);
  SimTime t0 = Now();
  if (kind_ == Kind::kEvolveUnderLoad) ScheduleReconfigs(t0, span_s);
  auto before = Counters();
  report_.rss_before_mb = ProcStatusMb("VmRSS");
  measuring_ = true;
  double host_start = HostSeconds();
  {
    E2E_SPAN("bench.timed", Layer::kBench, 0);
#ifdef E2E_TRACED
    SpanRecorder::Get().ResetStats();
    SpanRecorder::Get().KeepRecords(true);
#endif
    RunUntil(t0 + SimDuration::Seconds(span_s));
#ifdef E2E_TRACED
    SpanRecorder::Get().KeepRecords(false);
#endif
  }
#ifdef E2E_TRACED
  // The report covers the timed phase only.
  SpanRecorder::Get().SetActive(false);
#endif
  report_.timed_host_s = HostSeconds() - host_start;
  measuring_ = false;
  report_.rss_after_mb = ProcStatusMb("VmRSS");
  auto after = Counters();
  for (const auto& [name, value] : after) {
    report_.counts[name] = value - before[name];
  }
  report_.timed_sim_s = span_s;
  report_.calls = calls_;
  report_.calls_failed = calls_failed_;
  report_.reconfigs = reconfigs_;
  report_.reconfigs_failed = reconfigs_failed_;
  report_.reconfigs_by_kind = reconfigs_by_kind_;
  report_.call_ms = Summarise(call_ns_, 1e6);
  report_.reconfig_s = Summarise(reconfig_ns_, 1e9);
}

void Bench::Drain() {
  // Stop issuing; every outstanding call and operation must complete.
  stopping_ = true;
  SimTime deadline = Now() + SimDuration::Seconds(300);
  sim().RunWhile([&] {
    return Now() < deadline &&
           (BusyCallers() > 0 || waves_outstanding_ > 0 ||
            migrations_outstanding_ > 0);
  });
  if (BusyCallers() > 0 || waves_outstanding_ > 0 ||
      migrations_outstanding_ > 0) {
    Fail(std::to_string(BusyCallers()) +
         " calls or operations never completed");
  }
  if (g_ledger.duplicates != 0 || g_ledger.malformed != 0) {
    Fail(std::to_string(g_ledger.duplicates) + " duplicate body executions");
  }
}

}  // namespace

bool RunWorkload(const RunOptions& options, RunReport* report) {
  Kind kind;
  if (options.workload == "steady_calls") {
    kind = Kind::kSteadyCalls;
  } else if (options.workload == "reconfig_churn") {
    kind = Kind::kReconfigChurn;
  } else if (options.workload == "evolve_under_load") {
    kind = Kind::kEvolveUnderLoad;
  } else {
    report->correct = false;
    report->error = "unknown workload " + options.workload;
    return false;
  }
  Bench bench(kind, options, report);
  for (int i = 0; i < std::max(1, options.setups); ++i) {
    report->setup_s.push_back(bench.Setup());
  }
  bench.Warmup();
  if (report->correct) bench.Timed();
  if (report->correct) bench.Drain();
  report->peak_rss_mb = ProcStatusMb("VmHWM");
  return true;
}

}  // namespace e2e
