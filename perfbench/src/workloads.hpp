#pragma once

#include <cstdint>

#include "common.hpp"

namespace perfbench {

/// The paper's grid (Figs. 6/7, Table 2) through select_batch(kAuto), one
/// caller on one Device.  Traced, it also decomposes each call into
/// recommend / plan / run and prices every exact registry row per cell.
Report run_paper_sweep(const Options& opt);

/// Open-loop Poisson arrivals of small distinct rows into a coalescing
/// TopkService: the serve layer's admission and batching path.
Report run_serve_rowwise(const Options& opt);

/// Closed loop of mixed shapes, approximate and sharded requests into a
/// two-device TopkService: the per-query path, where nothing coalesces.
Report run_serve_mixed(const Options& opt);

/// Independent, reproducible seed for stream `stream` of a run seeded
/// `seed` (splitmix64 finalizer).
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t seed,
                                            std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
