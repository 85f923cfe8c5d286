// RPC sessions: bounded in-flight slots giving exactly-once in O(slots)
// memory (DESIGN.md §15).
//
// The PR 4 dedup window proves at-most-once by TTL arithmetic: a cached
// reply must outlive the client's whole retry schedule. That holds only as
// long as the schedule is bounded — and PR 7's lease pushes unbounded it
// (every pushed rebind restarts the retry round). Sessions replace the
// arithmetic with structure, the cortx-motr rpc/conn.c + rpc/item.c slot
// model:
//
//   * each (client, server endpoint) pair holds a session of
//     CostModel::session_slots slots;
//   * a call occupies one slot for its whole lifetime (every retry carries
//     the same (session, slot, seq)); the slot's sequence number advances
//     only when the NEXT call takes the slot;
//   * the server keeps, per slot, only "last executed seq + cached reply".
//     A duplicate (same seq) replays the cache or is dropped while the
//     original executes; an older seq is provably a ghost of an abandoned
//     call and is dropped. Nothing ever expires, so a retry landing
//     arbitrarily late — after any number of lease rebinds — still dedups.
//
// Slot exhaustion is the admission/flow-control point: a caller that finds
// every slot occupied queues client-side (rpc.backpressure) until a slot
// frees, instead of flooding a saturated server with more in-flight state.
//
// A real distributed motr negotiates sessions over the wire (the two sides
// must agree slot counts and resend lists across address spaces). Here both
// sides share one process and one CostModel, so establishment is implicit:
// session ids are process-globally unique, and the server materializes a
// session's slot state the first time it sees the id. Server state lives
// per endpoint activation (like the dedup window), so re-registration
// resets it — exactly the legacy window's epoch semantics.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "naming/address.h"
#include "rpc/message.h"
#include "sim/host.h"
#include "sim/network.h"
#include "trace/metrics.h"

namespace dcdo::rpc {

// What a client call carries once a slot is granted. Stable for the call's
// lifetime on one binding: retries resend identical values.
struct SlotGrant {
  std::uint64_t session_id = 0;  // 0 = no grant held
  std::uint32_t slot = 0;
  std::uint64_t seq = 0;

  bool held() const { return session_id != 0; }
};

// Client side: one pool per RpcClient, holding a session per server
// endpoint the client talks to. Sessions are keyed by the full activation
// address (node, pid, epoch) — a rebind lands the call in the successor
// activation's session, mirroring the server's per-activation state.
//
// Single-threaded by construction: the simulation runs one event at a
// time, the same confinement CallState already relies on.
class SessionPool {
 public:
  // `slots` is CostModel::session_slots; the pool must not be used when 0.
  explicit SessionPool(int slots) : slots_(static_cast<std::uint32_t>(slots)) {}

  using GrantFn = std::function<void(SlotGrant)>;

  // Grants a slot on `address`'s session — immediately (fn runs inline)
  // when one is free, otherwise fn is queued FIFO behind the session's
  // in-flight calls and runs when a slot is released. The queued case is
  // the backpressure signal (counted, plus the rpc.backpressure metric).
  void Acquire(const ObjectAddress& address, GrantFn fn);

  // Returns `grant`'s slot to `address`'s session and hands it to the
  // longest-waiting queued caller, if any (their fn runs inline). No-op for
  // a grant not held (session_id 0).
  void Release(const ObjectAddress& address, const SlotGrant& grant);

  // Calls that had to wait for a slot (admission queue entries ever made).
  std::uint64_t backpressure_waits() const {
    return backpressure_waits_.value();
  }
  // Callers currently parked waiting for a slot, across all sessions.
  std::size_t queued() const { return queued_; }

 private:
  struct Session {
    std::uint64_t id = 0;
    std::vector<std::uint64_t> next_seq;  // per slot; seq 1 is the first
    std::vector<std::uint32_t> free_slots;  // LIFO: hottest slot reused first
    std::deque<GrantFn> waiting;
  };
  struct AddressKey {
    sim::NodeId node;
    sim::ProcessId pid;
    std::uint64_t epoch;
    friend bool operator==(const AddressKey&, const AddressKey&) = default;
  };
  struct AddressKeyHash {
    std::size_t operator()(const AddressKey& key) const noexcept {
      std::uint64_t mixed = (static_cast<std::uint64_t>(key.node) << 32) ^
                            static_cast<std::uint64_t>(key.pid);
      mixed ^= key.epoch * 0x9e3779b97f4a7c15ull;
      return std::hash<std::uint64_t>{}(mixed);
    }
  };

  Session& SessionFor(const ObjectAddress& address);
  SlotGrant TakeFreeSlot(Session& session);

  std::uint32_t slots_;
  std::unordered_map<AddressKey, Session, AddressKeyHash> sessions_;
  std::size_t queued_ = 0;
  trace::Counter backpressure_waits_;
};

// Server side: per-endpoint slot state, held by RpcTransport next to the
// legacy dedup window. Sessions materialize on first contact; slots
// materialize lazily up to the index the client uses (bounded by the
// client's CostModel::session_slots, with a hard sanity cap so a corrupt
// slot index cannot balloon memory).
class ServerSessionTable {
 public:
  // Ordered duplicate taxonomy for the dispatch path.
  enum class Disposition {
    kExecute,        // new seq on this slot: run the body
    kReplayReply,    // same seq, completed: ship the cached reply back
    kDropInFlight,   // same seq, original still executing: drop silently
    kDropStale,      // older seq: ghost of an abandoned call, drop silently
  };

  struct Decision {
    Disposition disposition;
    // Valid only for kReplayReply; points into the slot (stable until the
    // slot's seq advances, which cannot happen before the caller copies it —
    // the dispatch path is one event).
    const MethodResult* reply = nullptr;
  };

  // Slot indexes at or above this are treated as kDropStale (a client
  // never legitimately produces them; see session_slots validation).
  static constexpr std::uint32_t kMaxSlots = 4096;

  Decision Admit(sim::NodeId origin, std::uint64_t session_id,
                 std::uint32_t slot, std::uint64_t seq);

  // Records the executed call's reply for replay — only while the slot
  // still belongs to `seq` (a parked reply completing after the client
  // abandoned the call and reused the slot must not clobber the successor).
  void Complete(sim::NodeId origin, std::uint64_t session_id,
                std::uint32_t slot, std::uint64_t seq, const MethodResult& reply);

  std::size_t session_count() const { return sessions_.size(); }
  // Total slot records held — the O(slots) bound tests pin.
  std::size_t slot_count() const;

 private:
  struct Slot {
    std::uint64_t seq = 0;  // last seq admitted for execution; 0 = never used
    bool completed = false;
    MethodResult reply;  // valid once completed
  };
  struct Session {
    std::vector<Slot> slots;
  };
  using Key = std::pair<sim::NodeId, std::uint64_t>;  // (origin, session_id)
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      std::uint64_t mixed = (static_cast<std::uint64_t>(key.first) << 32) ^
                            (key.second * 0x9e3779b97f4a7c15ull);
      return std::hash<std::uint64_t>{}(mixed);
    }
  };

  std::unordered_map<Key, Session, KeyHash> sessions_;
};

}  // namespace dcdo::rpc
