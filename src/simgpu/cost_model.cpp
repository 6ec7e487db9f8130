#include "simgpu/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "simgpu/footprint.hpp"

namespace simgpu {

KernelCost CostModel::kernel_cost(const KernelStats& stats) const {
  const double warps_total =
      static_cast<double>(stats.grid_blocks) * stats.warps_per_block();
  const double saturating_warps =
      static_cast<double>(spec_.sm_count) * spec_.saturating_warps_per_sm;
  const double bw_frac = std::min(1.0, warps_total / saturating_warps);

  const double mem_rate =
      spec_.mem_bytes_per_us() * spec_.mem_efficiency * bw_frac;
  const double mem_t =
      mem_rate > 0.0 ? static_cast<double>(stats.bytes_total()) / mem_rate
                     : 0.0;

  // Compute throughput: each active SM retires lane_ops_per_clock lanes per
  // cycle; a block with fewer lanes than that cannot fill its SM.
  const double per_sm_frac =
      std::min(1.0, static_cast<double>(stats.block_threads) /
                        spec_.lane_ops_per_clock);
  const double sm_frac = std::min(
      1.0, static_cast<double>(stats.grid_blocks) / spec_.sm_count);
  const double compute_frac = std::max(1e-6, sm_frac * per_sm_frac);
  const double comp_t = static_cast<double>(stats.lane_ops) /
                        (spec_.lane_ops_per_us() * compute_frac);
  const double atomic_t =
      static_cast<double>(stats.atomic_ops) /
          (spec_.atomic_ops_per_sec * 1e-6) +
      static_cast<double>(stats.scattered_atomic_ops) /
          (spec_.scattered_atomic_ops_per_sec * 1e-6);

  // Straggler bound: the kernel cannot retire before its heaviest block,
  // which runs with only its own warps' share of the device.
  const double block_bw_frac =
      std::min(1.0, static_cast<double>(stats.warps_per_block()) /
                        saturating_warps);
  const double straggler_mem_t =
      static_cast<double>(stats.max_block_bytes) /
      (spec_.mem_bytes_per_us() * spec_.mem_efficiency *
       std::max(block_bw_frac, 1e-9));
  const double straggler_comp_t =
      static_cast<double>(stats.max_block_lane_ops) /
      (spec_.lane_ops_per_us() * std::max(per_sm_frac / spec_.sm_count, 1e-9));
  const double straggler_t = std::max(straggler_mem_t, straggler_comp_t);

  KernelCost cost;
  cost.bandwidth_cap = bw_frac;
  cost.duration_us =
      std::max({spec_.min_kernel_duration_us, mem_t, comp_t + atomic_t,
                straggler_t});
  cost.mem_sol = static_cast<double>(stats.bytes_total()) /
                 (cost.duration_us * spec_.mem_bytes_per_us());
  cost.compute_sol = static_cast<double>(stats.lane_ops) /
                     (cost.duration_us * spec_.lane_ops_per_us());
  return cost;
}

Timeline CostModel::simulate(const EventLog& events) const {
  Timeline tl;
  double host = 0.0;      // host-side clock
  double dev_free = 0.0;  // when the device stream drains

  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (const auto* k = std::get_if<KernelEvent>(&e)) {
      const double issue = host;
      host += spec_.kernel_launch_overhead_us;
      tl.host_us += spec_.kernel_launch_overhead_us;
      tl.spans.push_back({i, SpanTiming::Lane::kHost, issue, host,
                          "launch " + std::string(k->stats.name)});
      const KernelCost cost = kernel_cost(k->stats);
      const double start = std::max(host, dev_free);
      const double end = start + cost.duration_us;
      dev_free = end;
      tl.device_busy_us += cost.duration_us;
      tl.spans.push_back(
          {i, SpanTiming::Lane::kDevice, start, end,
           std::string(k->stats.name)});
    } else if (const auto* m = std::get_if<MemcpyEvent>(&e)) {
      // cudaMemcpy semantics: wait for the device, then transfer.
      host = std::max(host, dev_free);
      const double dur = spec_.pcie_latency_us +
                         static_cast<double>(m->bytes) /
                             spec_.pcie_bytes_per_us();
      tl.spans.push_back({i, SpanTiming::Lane::kTransfer, host, host + dur,
                          m->dir == MemcpyEvent::Dir::kHostToDevice
                              ? "MemcpyHtoD"
                              : "MemcpyDtoH"});
      host += dur;
      tl.transfer_us += dur;
      dev_free = std::max(dev_free, host);
    } else if (std::get_if<SyncEvent>(&e) != nullptr) {
      const double begin = host;
      host = std::max(host, dev_free) + spec_.host_sync_overhead_us;
      tl.host_us += host - begin;
      tl.spans.push_back({i, SpanTiming::Lane::kHost, begin, host, "sync"});
    } else if (const auto* h = std::get_if<HostComputeEvent>(&e)) {
      const double dur = static_cast<double>(h->host_ops) /
                         (spec_.host_ops_per_sec * 1e-6);
      tl.spans.push_back(
          {i, SpanTiming::Lane::kHost, host, host + dur, h->label});
      host += dur;
      tl.host_us += dur;
    }
  }
  tl.total_us = std::max(host, dev_free);
  return tl;
}

double CostModel::expected_us(const KernelSchedule& sched) const {
  const double base = total_us(expected_events(sched));
  std::vector<double> fractional;
  for (const KernelStep& step : sched.steps) {
    if (step.repeat != std::floor(step.repeat) &&
        std::find(fractional.begin(), fractional.end(), step.repeat) ==
            fractional.end()) {
      fractional.push_back(step.repeat);
    }
  }
  double expected = base;
  for (const double r : fractional) {
    expected += (r - std::floor(r)) *
                (total_us(expected_events(sched, r)) - base);
  }
  return expected;
}

}  // namespace simgpu
