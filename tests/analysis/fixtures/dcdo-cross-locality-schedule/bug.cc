// Reduced reproduction of the migration-callback dangling-reference bug:
// handing a deferred scheduling sink a lambda that captures locals by
// reference. The callback fires from the event loop after this frame has
// returned, so `[&]` / `[&x]` captures dangle (stack lifetime).
#include <cstdint>
#include <functional>

namespace fixture {

struct Simulation {
  std::uint64_t Schedule(std::int64_t delay_ns, std::function<void()> fn);
  std::uint64_t ScheduleFor(std::uint32_t affinity, std::int64_t delay_ns,
                            std::function<void()> fn);
};

struct Network {
  void Send(int from, int to, int bytes, std::function<void()> deliver);
};

class Churn {
 public:
  // Default by-ref capture into a deferred callback: every local it
  // touches is stack storage that is gone by fire time.
  void RestartLater(Simulation& sim) {
    int attempts = 0;
    sim.Schedule(1000, [&] { ++attempts; });  // expect: dcdo-cross-locality-schedule
  }

  // Named by-ref capture: `pending` is gone by the time the event fires.
  void TrackCompletion(Simulation& sim, std::uint32_t affinity) {
    int pending = 1;
    sim.ScheduleFor(affinity, 2000,
                    [this, &pending] { pending += seen_; });  // expect: dcdo-cross-locality-schedule
  }

  // A multi-line call is still one argument span; the delivery callback
  // runs when the message lands.
  void Deliver(Network& net, int from, int to) {
    bool delivered = false;
    net.Send(from, to, 64,
             [&delivered] { delivered = true; });  // expect: dcdo-cross-locality-schedule
  }

 private:
  int seen_ = 0;
};

}  // namespace fixture
