#include "sim/network.h"

#include <gtest/gtest.h>

#include <string>

namespace dcdo::sim {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(&simulation_, CostModel{}) {
    network_.AddNode(1);
    network_.AddNode(2);
    network_.AddNode(3);
  }
  Simulation simulation_;
  SimNetwork network_;
};

TEST_F(NetworkTest, NodesStartUp) {
  EXPECT_TRUE(network_.NodeUp(1));
  EXPECT_TRUE(network_.Reachable(1, 2));
  EXPECT_FALSE(network_.NodeUp(99));
}

TEST_F(NetworkTest, MessageDeliveredWithLatency) {
  bool delivered = false;
  network_.Send(1, 2, 1024, [&] { delivered = true; });
  EXPECT_FALSE(delivered);
  simulation_.Run();
  EXPECT_TRUE(delivered);
  // 1 KB at 12.5 MB/s = ~82 us wire + 300 us latency.
  double micros = simulation_.Now().ToSeconds() * 1e6;
  EXPECT_GT(micros, 300.0);
  EXPECT_LT(micros, 500.0);
}

TEST_F(NetworkTest, LoopbackIsFast) {
  bool delivered = false;
  network_.Send(1, 1, 1024, [&] { delivered = true; });
  simulation_.Run();
  EXPECT_TRUE(delivered);
  EXPECT_LT(simulation_.Now().ToSeconds() * 1e6, 50.0);
}

TEST_F(NetworkTest, SenderNicSerializesBackToBackSends) {
  std::vector<int> order;
  // Two large messages from node 1: the second waits for the first's wire
  // time before starting.
  network_.Send(1, 2, 1'000'000, [&] { order.push_back(1); });
  network_.Send(1, 3, 1'000'000, [&] { order.push_back(2); });
  simulation_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // Two 1 MB messages at 12.5 MB/s = 160 ms total serialization.
  EXPECT_GT(simulation_.Now().ToSeconds(), 0.159);
}

TEST_F(NetworkTest, MessageToDownNodeIsDropped) {
  network_.SetNodeUp(2, false);
  bool delivered = false;
  network_.Send(1, 2, 64, [&] { delivered = true; });
  simulation_.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(network_.messages_dropped(), 1u);
}

TEST_F(NetworkTest, NodeRecoveryRestoresDelivery) {
  network_.SetNodeUp(2, false);
  network_.SetNodeUp(2, true);
  bool delivered = false;
  network_.Send(1, 2, 64, [&] { delivered = true; });
  simulation_.Run();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, PartitionBlocksBothDirections) {
  network_.SetPartitioned(1, 2, true);
  EXPECT_FALSE(network_.Reachable(1, 2));
  EXPECT_FALSE(network_.Reachable(2, 1));
  EXPECT_TRUE(network_.Reachable(1, 3));

  bool delivered = false;
  network_.Send(2, 1, 64, [&] { delivered = true; });
  simulation_.Run();
  EXPECT_FALSE(delivered);

  network_.SetPartitioned(1, 2, false);
  network_.Send(2, 1, 64, [&] { delivered = true; });
  simulation_.Run();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, PartitionFormedInFlightLosesMessage) {
  bool delivered = false;
  network_.Send(1, 2, 1'000'000, [&] { delivered = true; });
  // Cut the link before the (80 ms) transfer lands.
  simulation_.Schedule(SimDuration::Millis(1),
                       [&] { network_.SetPartitioned(1, 2, true); });
  simulation_.Run();
  EXPECT_FALSE(delivered);
}

TEST_F(NetworkTest, BulkTransferTakesDownloadTime) {
  bool done = false;
  network_.BulkTransfer(1, 2, 5'100'000, [&] { done = true; });
  simulation_.Run();
  EXPECT_TRUE(done);
  double seconds = simulation_.Now().ToSeconds();
  EXPECT_GE(seconds, 15.0);
  EXPECT_LE(seconds, 25.0);
}

TEST_F(NetworkTest, BulkTransferToUnreachableDropped) {
  network_.SetNodeUp(2, false);
  bool done = false;
  network_.BulkTransfer(1, 2, 1024, [&] { done = true; });
  simulation_.Run();
  EXPECT_FALSE(done);
}

TEST_F(NetworkTest, CountersTrackTraffic) {
  network_.Send(1, 2, 100, [] {});
  network_.Send(1, 3, 200, [] {});
  simulation_.Run();
  EXPECT_EQ(network_.messages_sent(), 2u);
  EXPECT_EQ(network_.bytes_sent(), 300u);
}

// BulkTransfer accounting must mirror Send: a successful transfer is one
// sent + one delivered message with zero residual in-flight.
TEST_F(NetworkTest, BulkTransferCountsLikeSend) {
  bool done = false;
  network_.BulkTransfer(1, 2, 4096, [&] { done = true; });
  EXPECT_EQ(network_.messages_sent(), 1u);
  EXPECT_EQ(network_.messages_in_flight(), 1u);
  simulation_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(network_.messages_delivered(), 1u);
  EXPECT_EQ(network_.messages_in_flight(), 0u);
  EXPECT_EQ(network_.bytes_sent(), 4096u);
}

// A transfer cut off mid-flight is accounted as dropped-in-flight, keeping
// sent == delivered + dropped-in-flight + in-flight.
TEST_F(NetworkTest, BulkTransferDropInFlightIsCounted) {
  bool done = false;
  network_.BulkTransfer(1, 2, 4096, [&] { done = true; });
  simulation_.Schedule(SimDuration::Millis(1),
                       [&] { network_.SetPartitioned(1, 2, true); });
  simulation_.Run();
  EXPECT_FALSE(done);
  EXPECT_EQ(network_.messages_sent(), 1u);
  EXPECT_EQ(network_.messages_delivered(), 0u);
  EXPECT_EQ(network_.messages_dropped_in_flight(), 1u);
  EXPECT_EQ(network_.messages_in_flight(), 0u);
}

TEST_F(NetworkTest, BulkTransferRefusedAtSendIsOnlyDropped) {
  network_.SetNodeUp(2, false);
  network_.BulkTransfer(1, 2, 4096, [] {});
  simulation_.Run();
  EXPECT_EQ(network_.messages_sent(), 0u);
  EXPECT_EQ(network_.messages_dropped(), 1u);
}

class BatchingNetworkTest : public ::testing::Test {
 protected:
  static CostModel BatchingCost() {
    CostModel cost;
    cost.send_batch_window = SimDuration::Millis(1);
    cost.send_batch_max_bytes = 4096;
    return cost;
  }
  BatchingNetworkTest() : network_(&simulation_, BatchingCost()) {
    network_.AddNode(1);
    network_.AddNode(2);
    network_.AddNode(3);
  }
  Simulation simulation_;
  SimNetwork network_;
};

// Back-to-back sends to one destination within the window coalesce into one
// NIC transfer and are delivered together, in FIFO order.
TEST_F(BatchingNetworkTest, CoalescesBackToBackSendsToOneDestination) {
  std::vector<int> order;
  network_.Send(1, 2, 200, [&] { order.push_back(1); });
  network_.Send(1, 2, 200, [&] { order.push_back(2); });
  network_.Send(1, 2, 200, [&] { order.push_back(3); });
  simulation_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(network_.batches_sent(), 1u);
  EXPECT_EQ(network_.messages_coalesced(), 2u);
  EXPECT_EQ(network_.messages_sent(), 3u);
  EXPECT_EQ(network_.messages_delivered(), 3u);
  EXPECT_EQ(network_.messages_in_flight(), 0u);
  // One flush window + one wire serialization of 600 B + one latency: well
  // under three separate latency charges plus windows.
  double micros = simulation_.Now().ToSeconds() * 1e6;
  EXPECT_GT(micros, 1300.0);  // window (1000) + latency (300)
  EXPECT_LT(micros, 1500.0);
}

TEST_F(BatchingNetworkTest, DistinctDestinationsBatchIndependently) {
  int delivered = 0;
  network_.Send(1, 2, 100, [&] { ++delivered; });
  network_.Send(1, 3, 100, [&] { ++delivered; });
  simulation_.Run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(network_.batches_sent(), 2u);
  EXPECT_EQ(network_.messages_coalesced(), 0u);
}

// Hitting send_batch_max_bytes flushes immediately; the armed window event
// later finds nothing (and must not flush a successor batch early).
TEST_F(BatchingNetworkTest, ByteCapFlushesEarly) {
  int delivered = 0;
  network_.Send(1, 2, 3000, [&] { ++delivered; });
  network_.Send(1, 2, 3000, [&] { ++delivered; });  // 6000 >= 4096: flush now
  // Opens a fresh batch that must ride its own window, not the stale event.
  network_.Send(1, 2, 100, [&] { ++delivered; });
  simulation_.Run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(network_.batches_sent(), 2u);
  EXPECT_EQ(network_.messages_coalesced(), 1u);
}

// A partition that forms while a batch is in flight loses every message in
// it, and the accounting records each one.
TEST_F(BatchingNetworkTest, PartitionInFlightDropsWholeBatch) {
  int delivered = 0;
  network_.Send(1, 2, 100, [&] { ++delivered; });
  network_.Send(1, 2, 100, [&] { ++delivered; });
  // Cut the link after the window fires (batch in flight) but before the
  // 300 us latency elapses.
  simulation_.Schedule(SimDuration::Micros(1100),
                       [&] { network_.SetPartitioned(1, 2, true); });
  simulation_.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(network_.messages_sent(), 2u);
  EXPECT_EQ(network_.messages_dropped_in_flight(), 2u);
  EXPECT_EQ(network_.messages_in_flight(), 0u);
}

TEST_F(BatchingNetworkTest, LoopbackBatchesToo) {
  int delivered = 0;
  network_.Send(1, 1, 100, [&] { ++delivered; });
  network_.Send(1, 1, 100, [&] { ++delivered; });
  simulation_.Run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(network_.batches_sent(), 1u);
  EXPECT_EQ(network_.messages_coalesced(), 1u);
}

// A batch is one wire transfer and lands as one delivery event, so mixed
// delivery affinities (a digest tag only) cannot reorder it: the messages
// run in the order they were sent.
TEST_F(BatchingNetworkTest, MixedAffinityBatchDeliversInSendOrder) {
  std::string order;
  network_.Send(1, 2, 100, [&] { order += 'A'; }, /*delivery_affinity=*/7);
  network_.Send(1, 2, 100, [&] { order += 'B'; }, kAffinityGlobal);
  network_.Send(1, 2, 100, [&] { order += 'C'; }, /*delivery_affinity=*/7);
  simulation_.Run();
  EXPECT_EQ(order, "ABC");
  EXPECT_EQ(network_.batches_sent(), 1u);
  EXPECT_EQ(network_.messages_coalesced(), 2u);
}

// ===== StreamTransfer: fair-shared link capacity =====

// A stream with the link to itself runs at its peak rate:
// setup + bytes/peak + latency, the calibrated component download time.
TEST_F(NetworkTest, SoloStreamRunsAtPeakRate) {
  bool delivered = false;
  // 7.5 MB at a 7.5 MB/s peak (the component-transfer goodput): 1 s wire.
  network_.StreamTransfer(1, 2, 7'500'000, SimDuration::Millis(160), 7.5e6,
                          [&](bool ok) { delivered = ok; });
  EXPECT_EQ(network_.active_streams(), 0u);  // still in setup
  simulation_.Run();
  EXPECT_TRUE(delivered);
  double seconds = simulation_.Now().ToSeconds();
  EXPECT_NEAR(seconds, 0.160 + 1.0 + 300e-6, 1e-9);
}

// Two concurrent streams out of one node halve each other's rate: the
// bottleneck is the shared NIC (12.5 MB/s wire), not the per-stream peak.
TEST_F(NetworkTest, ConcurrentStreamsFairShareTheLink) {
  int delivered = 0;
  // Each alone: 6.25 MB at min(7.5, 12.5) = 7.5 MB/s -> 0.833 s.
  // Together: 6.25 MB at 12.5/2 = 6.25 MB/s -> 1 s each.
  network_.StreamTransfer(1, 2, 6'250'000, SimDuration::Zero(), 7.5e6,
                          [&](bool ok) { delivered += ok; });
  network_.StreamTransfer(1, 3, 6'250'000, SimDuration::Zero(), 7.5e6,
                          [&](bool ok) { delivered += ok; });
  simulation_.Run();
  EXPECT_EQ(delivered, 2);
  double seconds = simulation_.Now().ToSeconds();
  EXPECT_NEAR(seconds, 1.0 + 300e-6, 1e-6);
}

// When a stream finishes, the survivors recompute their share and speed up:
// the big stream's tail runs at full rate once the small one is done.
TEST_F(NetworkTest, FinishReshapesSurvivors) {
  double small_done = 0, big_done = 0;
  network_.StreamTransfer(1, 2, 6'250'000, SimDuration::Zero(), 1e9,
                          [&](bool) { small_done = simulation_.Now().ToSeconds(); });
  network_.StreamTransfer(1, 3, 12'500'000, SimDuration::Zero(), 1e9,
                          [&](bool) { big_done = simulation_.Now().ToSeconds(); });
  simulation_.Run();
  // Shared phase: both at 6.25 MB/s. Small: 1 s. Big then has ~6.25 MB left
  // and the wire to itself (12.5 MB/s): ~0.5 s more. Without the reshare it
  // would finish at 2 s.
  EXPECT_NEAR(small_done, 1.0 + 300e-6, 1e-6);
  EXPECT_GT(big_done, 1.49);
  EXPECT_LT(big_done, 1.52);
}

// Sharing is per endpoint, both sides: two streams into one destination
// halve each other even though their sources differ, while streams on
// disjoint node pairs run at full solo rate.
TEST_F(NetworkTest, SharingIsPerEndpoint) {
  network_.AddNode(4);
  double into2 = 0, disjoint = 0;
  network_.StreamTransfer(1, 2, 6'250'000, SimDuration::Zero(), 7.5e6,
                          [&](bool) { into2 = simulation_.Now().ToSeconds(); });
  network_.StreamTransfer(3, 2, 6'250'000, SimDuration::Zero(), 7.5e6,
                          [](bool) {});
  network_.StreamTransfer(1, 4, 100, SimDuration::Zero(), 7.5e6, [](bool) {});
  simulation_.Run();
  // 1 -> 2 shared node 2 with 3 -> 2 (and node 1, briefly, with the tiny
  // 1 -> 4 stream): it cannot beat the half-share finish time.
  EXPECT_GT(into2, 1.0);
  // Re-run disjoint pairs in a quiet network epoch: 1 -> 2 and 3 -> 4
  // share no endpoint, so each runs at its solo 0.833 s.
  network_.StreamTransfer(3, 4, 6'250'000, SimDuration::Zero(), 7.5e6,
                          [](bool) {});
  network_.StreamTransfer(1, 2, 6'250'000, SimDuration::Zero(), 7.5e6,
                          [&](bool) {
                            disjoint = simulation_.Now().ToSeconds() - into2;
                          });
  simulation_.Run();
  EXPECT_NEAR(disjoint, 6'250'000 / 7.5e6 + 300e-6, 1e-5);
}

TEST_F(NetworkTest, StreamToUnreachableNodeFails) {
  network_.SetPartitioned(1, 2, true);
  bool called = false, delivered = true;
  network_.StreamTransfer(1, 2, 1000, SimDuration::Zero(), 7.5e6,
                          [&](bool ok) {
                            called = true;
                            delivered = ok;
                          });
  EXPECT_FALSE(called);  // failure is deferred, never re-enters the caller
  simulation_.Run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(delivered);
}

// A partition that forms mid-stream drops the transfer at delivery time.
TEST_F(NetworkTest, PartitionMidStreamDropsTransfer) {
  bool called = false, delivered = true;
  network_.StreamTransfer(1, 2, 7'500'000, SimDuration::Zero(), 7.5e6,
                          [&](bool ok) {
                            called = true;
                            delivered = ok;
                          });
  simulation_.Schedule(SimDuration::Millis(500),
                       [&] { network_.SetPartitioned(1, 2, true); });
  simulation_.Run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(delivered);
}

TEST_F(NetworkTest, ActiveStreamsTracksWirePhase) {
  std::size_t during = 99;
  network_.StreamTransfer(1, 2, 7'500'000, SimDuration::Millis(100), 7.5e6,
                          [](bool) {});
  simulation_.Schedule(SimDuration::Millis(500),
                       [&] { during = network_.active_streams(); });
  simulation_.Run();
  EXPECT_EQ(during, 1u);
  EXPECT_EQ(network_.active_streams(), 0u);
}

// With the window at zero (the calibrated default) the batching layer is
// bypassed entirely: same event shape and timing as the legacy path.
TEST_F(NetworkTest, ZeroWindowMatchesLegacyTiming) {
  bool delivered = false;
  network_.Send(1, 2, 1024, [&] { delivered = true; });
  simulation_.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(network_.batches_sent(), 0u);
  EXPECT_EQ(network_.messages_coalesced(), 0u);
  // 1 KB at 12.5 MB/s = 81.92 us wire + 300 us latency; no window delay.
  EXPECT_GE(simulation_.Now().nanos(), 381'000);
  EXPECT_LE(simulation_.Now().nanos(), 382'000);
}

}  // namespace
}  // namespace dcdo::sim
