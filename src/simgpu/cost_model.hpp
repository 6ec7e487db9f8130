#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "simgpu/device_spec.hpp"
#include "simgpu/event.hpp"

namespace simgpu {

struct KernelSchedule;  // simgpu/footprint.hpp

/// Modeled cost of one kernel execution.
struct KernelCost {
  double duration_us = 0.0;
  /// Achieved fraction of peak DRAM bandwidth ("Memory SOL" in Nsight).
  double mem_sol = 0.0;
  /// Achieved fraction of peak lane throughput ("Compute SOL" in Nsight).
  double compute_sol = 0.0;
  /// Occupancy-limited bandwidth fraction available to this launch shape.
  double bandwidth_cap = 0.0;
};

/// One rendered interval of the modeled execution.
struct SpanTiming {
  enum class Lane { kHost, kDevice, kTransfer };
  std::size_t event_index = 0;
  Lane lane = Lane::kDevice;
  double start_us = 0.0;
  double end_us = 0.0;
  std::string label;
};

/// Modeled timeline of an event log.
struct Timeline {
  std::vector<SpanTiming> spans;
  double total_us = 0.0;
  double device_busy_us = 0.0;   ///< sum of kernel durations
  double transfer_us = 0.0;      ///< time spent in PCIe transfers
  double host_us = 0.0;          ///< host compute + sync + launch overhead
};

/// Analytic first-order performance model for a simulated device.
///
/// Kernel duration = max(memory time, compute time), where
///  - memory time charges counted DRAM bytes against peak bandwidth scaled by
///    an occupancy factor (resident warps vs. warps needed to saturate), and
///  - compute time charges counted lane ops against peak lane throughput
///    scaled by how many SMs the grid can cover, plus global-atomic
///    serialization.
/// Host-side costs (launch overhead, synchronization, PCIe latency and
/// bandwidth, intermediate CPU work) are charged per event, which is what
/// produces the idle "white space" the paper's Fig. 8 shows for host-managed
/// baselines.
class CostModel {
 public:
  explicit CostModel(DeviceSpec spec) : spec_(std::move(spec)) {}

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

  [[nodiscard]] KernelCost kernel_cost(const KernelStats& stats) const;

  /// Walk the event log, assigning start/end times to every event.
  [[nodiscard]] Timeline simulate(const EventLog& events) const;

  /// Convenience: total modeled time of an event log in microseconds.
  [[nodiscard]] double total_us(const EventLog& events) const {
    return simulate(events).total_us;
  }

  /// Expected modeled time of a priced schedule (see expected_events): the
  /// time of the log that issues every step floor(repeat) times, plus, for
  /// each distinct fractional repeat r, frac(r) times what issuing the steps
  /// that repeat r once more adds.  By linearity of expectation this is the
  /// mean over runs whenever the optional steps sit on a host-synchronous
  /// stretch of the timeline (the host loops that have them sync per pass).
  [[nodiscard]] double expected_us(const KernelSchedule& sched) const;

 private:
  DeviceSpec spec_;
};

}  // namespace simgpu
