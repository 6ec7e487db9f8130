#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"

namespace topk::bench {

/// One benchmark measurement.
struct RunResult {
  double model_us = 0.0;   ///< modeled device time (the reported metric)
  double wall_ms = 0.0;    ///< emulator wall-clock (diagnostic only)
  bool verified = true;    ///< result checked against std::nth_element
  std::uint64_t kernel_bytes = 0;  ///< device-memory traffic of the run
  std::uint64_t kernels = 0;       ///< kernel launches in the run
};

/// Execute one (algo, data, batch, n, k) measurement on a fresh simulated
/// device with the given spec.  The input is placed in device memory before
/// the recorded event stream begins, matching the paper's timed region.
RunResult run_algo(const simgpu::DeviceSpec& spec,
                   std::span<const float> data, std::size_t batch,
                   std::size_t n, std::size_t k, Algo algo,
                   bool verify = false);

/// Check one device result of a bench that runs a plan/run pair itself:
/// verify_topk over `data`, and on a mismatch print `what` with the error
/// to stderr and exit(1).
void verify_or_exit(std::span<const float> data, std::size_t k,
                    simgpu::DeviceBuffer<float> vals,
                    simgpu::DeviceBuffer<std::uint32_t> idx,
                    const std::string& what);

/// Environment-tunable benchmark scale.
///
/// The paper sweeps N up to 2^30 on an A100; the SIMT emulator is ~100x
/// slower per element than real silicon, so default sweeps cap N at
/// 2^`max_log_n` and can be widened via TOPK_MAX_LOG_N.  Setting
/// TOPK_VERIFY=0 skips per-run verification (useful for big sweeps).
/// The default rose from 20 to 22 when the tile-granular fast path landed,
/// and from 22 to 24 when the streaming radix tier made large-N runs
/// workspace-bounded (see docs/performance.md for the numbers behind each
/// bump).
struct BenchScale {
  int max_log_n = 24;
  bool verify = true;

  static BenchScale from_env();
};

/// Emit one CSV row (also echoed to stdout).  `header()` prints the column
/// names once.
class CsvWriter {
 public:
  explicit CsvWriter(std::string columns);
  void row(const std::string& line);

 private:
  bool header_printed_ = false;
  std::string columns_;
};

/// Format microseconds with sensible precision.
std::string fmt_us(double us);

/// Geometric-mean helper used by the speedup summaries.
double geomean(const std::vector<double>& xs);

}  // namespace topk::bench
