#include "sim/cost_model.h"

#include "common/status.h"

namespace dcdo::sim {

// Sanity checks used by tests: a cost model that violates these would make
// the reproduction's arithmetic meaningless (e.g. negative bandwidth).
Status ValidateCostModel(const CostModel& m) {
  if (m.wire_bandwidth_bytes_per_sec <= 0) {
    return InvalidArgumentError("wire bandwidth must be positive");
  }
  if (m.bulk_transfer_efficiency <= 0 || m.bulk_transfer_efficiency > 1.0) {
    return InvalidArgumentError("bulk transfer efficiency must be in (0,1]");
  }
  if (m.component_transfer_efficiency <= 0 ||
      m.component_transfer_efficiency > 1.0) {
    return InvalidArgumentError(
        "component transfer efficiency must be in (0,1]");
  }
  if (m.stale_retry_count < 0) {
    return InvalidArgumentError("stale retry count must be non-negative");
  }
  if (m.session_slots < 0) {
    return InvalidArgumentError("session slots must be non-negative");
  }
  if (m.lease_rebind_limit < 0) {
    return InvalidArgumentError("lease rebind limit must be non-negative");
  }
  if (m.fetch_concurrency < 1) {
    return InvalidArgumentError("fetch concurrency must be at least 1");
  }
  if (m.naming_shard_count < 1) {
    return InvalidArgumentError("naming shard count must be at least 1");
  }
  if (m.naming_ring_points < 1) {
    return InvalidArgumentError("naming ring points must be at least 1");
  }
  if (m.directory_lookup_service < SimDuration::Zero()) {
    return InvalidArgumentError(
        "directory lookup service time must be non-negative");
  }
  if (m.binding_lease_duration < SimDuration::Zero()) {
    return InvalidArgumentError("binding lease duration must be non-negative");
  }
  if (m.disk_read_bytes_per_sec <= 0 || m.disk_write_bytes_per_sec <= 0) {
    return InvalidArgumentError("disk bandwidth must be positive");
  }
  if (m.state_capture_bytes_per_sec <= 0 ||
      m.state_restore_bytes_per_sec <= 0) {
    return InvalidArgumentError("state bandwidth must be positive");
  }
  return Status::Ok();
}

}  // namespace dcdo::sim
