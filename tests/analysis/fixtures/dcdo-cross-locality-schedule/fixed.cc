// The committed fix patterns (Schedule-call audit):
// deferred callbacks capture by value — ids, copies, or an owner pointer
// whose lifetime the scheduler controls (`this` for components torn down
// only after the simulation drains). By-reference captures remain fine in
// immediate callers (predicates, comparators) that run inside the
// capturing frame, and driver code that provably drains the queue before
// its frame returns may keep one behind a NOLINT with a reason.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

namespace fixture {

struct Simulation {
  std::uint64_t Schedule(std::int64_t delay_ns, std::function<void()> fn);
  std::uint64_t ScheduleFor(std::uint32_t affinity, std::int64_t delay_ns,
                            std::function<void()> fn);
  bool RunWhile(std::function<bool()> predicate);
};

struct Network {
  void Send(int from, int to, int bytes, std::function<void()> deliver);
};

class Churn {
 public:
  // Value captures: the callback owns copies of everything it needs, and
  // `this` outlives the drained queue by construction.
  void RestartLater(Simulation& sim, int attempt) {
    sim.Schedule(1000, [this, attempt] { seen_ = attempt; });
  }

  // Immediate execution is not a deferred sink: RunWhile's predicate and
  // std::sort's comparator run inside this frame, so by-reference
  // captures are safe there.
  void DrainUntil(Simulation& sim, int target) {
    int fired = 0;
    sim.RunWhile([&] { return fired < target; });
    std::vector<int> order = {3, 1, 2};
    std::sort(order.begin(), order.end(),
              [&target](int a, int b) { return a % target < b % target; });
  }

  // The escape hatch: test-driver code that drains the simulation before
  // this frame returns documents the exception instead of copying.
  void Probe(Simulation& sim) {
    bool done = false;
    sim.Schedule(500,
                 // NOLINTNEXTLINE(dcdo-cross-locality-schedule): drained below
                 [&done] { done = true; });
    sim.RunWhile([&] { return !done; });
  }

 private:
  int seen_ = 0;
};

}  // namespace fixture
