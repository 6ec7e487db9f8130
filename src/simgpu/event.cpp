#include "simgpu/event.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "simgpu/footprint.hpp"

namespace simgpu {

std::string describe(const Event& event) {
  std::ostringstream os;
  if (const auto* k = std::get_if<KernelEvent>(&event)) {
    os << "kernel " << k->stats.name << " <<<" << k->stats.grid_blocks << ", "
       << k->stats.block_threads << ">>> read=" << k->stats.bytes_read
       << "B written=" << k->stats.bytes_written
       << "B ops=" << k->stats.lane_ops;
  } else if (const auto* m = std::get_if<MemcpyEvent>(&event)) {
    os << (m->dir == MemcpyEvent::Dir::kHostToDevice ? "MemcpyHtoD"
                                                     : "MemcpyDtoH")
       << " " << m->bytes << "B";
    if (!m->label.empty()) os << " (" << m->label << ")";
  } else if (const auto* s = std::get_if<SyncEvent>(&event)) {
    os << "sync";
    if (!s->label.empty()) os << " (" << s->label << ")";
  } else if (const auto* h = std::get_if<HostComputeEvent>(&event)) {
    os << "host " << h->label << " ops=" << h->host_ops;
  }
  return os.str();
}

EventLog expected_events(const KernelSchedule& sched, double round_up) {
  if (!sched.priced) {
    throw std::invalid_argument(
        "expected_events: the schedule carries no expected costs (its plan "
        "function does not price its launches)");
  }
  EventLog log;
  for (const KernelStep& step : sched.steps) {
    const auto issues = static_cast<std::size_t>(
        step.repeat == round_up ? std::ceil(step.repeat)
                                : std::floor(step.repeat));
    for (std::size_t r = 0; r < issues; ++r) {
      if (step.kind == KernelStep::Kind::kLaunch) {
        KernelStats stats = step.expected;
        // A data-dependent grid (sized from the expected candidate count)
        // overrides the nominal one the schedule records for the auditor.
        stats.name = step.name;
        if (stats.grid_blocks == 0) stats.grid_blocks = step.grid;
        stats.block_threads = step.block_threads;
        log.emplace_back(KernelEvent{stats});
        continue;
      }
      if (step.kind != KernelStep::Kind::kHost) continue;
      switch (step.host.kind) {
        case HostCharge::Kind::kNone:
          break;
        case HostCharge::Kind::kCopyToHost:
          log.emplace_back(MemcpyEvent{MemcpyEvent::Dir::kDeviceToHost,
                                       step.host.amount, {}});
          break;
        case HostCharge::Kind::kCopyToDevice:
          log.emplace_back(MemcpyEvent{MemcpyEvent::Dir::kHostToDevice,
                                       step.host.amount, {}});
          break;
        case HostCharge::Kind::kSync:
          log.emplace_back(SyncEvent{});
          break;
        case HostCharge::Kind::kCompute:
          log.emplace_back(HostComputeEvent{{}, step.host.amount});
          break;
      }
    }
  }
  return log;
}

}  // namespace simgpu
