#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "simgpu/simgpu.hpp"
#include "topk/partial_sort_common.hpp"

namespace topk {

/// The scan around the WarpSelect-family queue engines (paper §4: GridSelect
/// is WarpSelect's per-warp queue engine plus a shared-memory queue and a
/// multi-block launch).  GridSelect, WarpSelect/BlockSelect, both fused
/// row-wise rows and bucket-approx drive their engines through the helpers
/// below; only the engine type, the warp count and the region length differ.
///
/// An engine exposes `kth()`, the exact per-lane `round()`, the warpfast
/// `round_span()` (strided scans) or `span_rounds()` (contiguous scans), and
/// `finalize()`.  Every helper is charge-identical across the {tile ×
/// warpfast} toggles: each element of the scanned range is loaded exactly
/// once into the per-block counters, and engine states are warp-independent,
/// so the warpfast paths change only the order of charges, never their
/// totals.  With a sanitizer attached the warpfast gate is off and the exact
/// per-lane rounds run, so simcheck keeps element-exact attribution.

/// One block's per-warp engines, constructed in place (no per-block heap
/// traffic).
template <typename Engine>
using WarpEngines =
    std::array<std::optional<Engine>, simgpu::kMaxWarpsPerBlock>;

template <typename Engine>
void emplace_engines(WarpEngines<Engine>& engs, simgpu::BlockCtx& ctx,
                     int count, std::size_t k) {
  for (int w = 0; w < count; ++w) {
    engs[static_cast<std::size_t>(w)].emplace(ctx, k);
  }
}

/// Merge the lists of warps 1..count-1 into warp 0's and return it.
template <typename Engine>
auto& merge_warp_lists(simgpu::BlockCtx& ctx, WarpEngines<Engine>& engs,
                       int count) {
  auto& merged = engs[0]->list();
  for (int w = 1; w < count; ++w) {
    merged.merge_list(ctx, engs[static_cast<std::size_t>(w)]->list());
  }
  return merged;
}

/// Exact warp rounds: one 32-wide round at first, first + stride, ... < end
/// of the row at `base`, each loaded as one tile (tile path) or per lane
/// (scalar path) and fed to the per-lane `round()`; then finalize.  Result
/// indices come from `in_idx` when it is non-empty, else row positions.
template <typename T, typename Engine>
void exact_rounds(simgpu::BlockCtx& ctx, const simgpu::Warp& warp,
                  Engine& eng, simgpu::DeviceBuffer<T> in,
                  simgpu::DeviceBuffer<std::uint32_t> in_idx, std::size_t base,
                  std::size_t first, std::size_t end, std::size_t stride) {
  const bool tile = simgpu::tile_path_enabled();
  const bool has_idx = !in_idx.empty();
  T values[simgpu::kWarpSize];
  std::uint32_t indices[simgpu::kWarpSize];
  bool valid[simgpu::kWarpSize];
  for (std::size_t pos = first; pos < end; pos += stride) {
    if (tile) {
      const std::size_t c = std::min<std::size_t>(simgpu::kWarpSize, end - pos);
      const std::span<const T> tv = ctx.load_tile(in, base + pos, c);
      const std::span<const std::uint32_t> ti =
          has_idx ? ctx.load_tile(in_idx, base + pos, c)
                  : std::span<const std::uint32_t>{};
      warp.each([&](int lane) {
        const auto u = static_cast<std::size_t>(lane);
        valid[lane] = u < tv.size();
        if (valid[lane]) {
          values[lane] = tv[u];
          indices[lane] =
              has_idx ? ti[u] : static_cast<std::uint32_t>(pos + u);
        }
      });
    } else {
      warp.each([&](int lane) {
        const std::size_t i = pos + static_cast<std::size_t>(lane);
        valid[lane] = i < end;
        if (valid[lane]) {
          values[lane] = ctx.load(in, base + i);
          indices[lane] = has_idx ? ctx.load(in_idx, base + i)
                                  : static_cast<std::uint32_t>(i);
        }
      });
    }
    eng.round(ctx, values, indices, valid);
  }
  eng.finalize(ctx);
}

/// Multi-warp strided scan of [begin, end) of the row at `base`: warp w owns
/// the 32-wide rounds at begin + 32w + j * (32 * num_warps).
///
/// Warpfast path: one load_tile per region of `kRegionRounds` strides (data
/// stays L1-hot across the warps' threshold scans), then per warp a region
/// gate: count the warp's candidates across all of its rounds in the region
/// under the region-entry threshold.  The threshold only tightens, and only
/// at flushes — which need candidates — so it is the loosest threshold any
/// round in the region sees: zero candidates proves every round empty, and
/// one bulk kEmptyRoundLaneOps charge per round replaces them bit-identically.
/// Failed gates waste their count pass and cluster while the threshold is
/// still loose, so after each failure the warp's gate sleeps for twice as
/// many regions as before (capped at 8); a success resets the backoff.
/// Gated and ungated regions charge identically, so the heuristic only
/// affects wall clock.
template <std::size_t kRegionRounds, typename T, typename Engine>
void strided_scan(simgpu::BlockCtx& ctx, WarpEngines<Engine>& engs,
                  int num_warps, simgpu::DeviceBuffer<T> in,
                  simgpu::DeviceBuffer<std::uint32_t> in_idx, std::size_t base,
                  std::size_t begin, std::size_t end) {
  const std::size_t stride =
      static_cast<std::size_t>(num_warps) * simgpu::kWarpSize;
  if (!ctx.warpfast_enabled()) {
    ctx.for_each_warp([&](simgpu::Warp& warp) {
      const auto w = static_cast<std::size_t>(warp.index());
      exact_rounds(ctx, warp, *engs[w], in, in_idx, base,
                   begin + w * simgpu::kWarpSize, end, stride);
    });
    return;
  }
  const bool has_idx = !in_idx.empty();
  const std::size_t region = stride * kRegionRounds;
  std::array<std::uint8_t, simgpu::kMaxWarpsPerBlock> gate_sleep{};
  std::array<std::uint8_t, simgpu::kMaxWarpsPerBlock> gate_backoff{};
  for (std::size_t r = begin; r < end; r += region) {
    const std::size_t rc = std::min(region, end - r);
    const std::span<const T> tv = ctx.load_tile(in, base + r, rc);
    const std::span<const std::uint32_t> ti =
        has_idx ? ctx.load_tile(in_idx, base + r, rc)
                : std::span<const std::uint32_t>{};
    for (std::size_t w = 0; w < static_cast<std::size_t>(num_warps); ++w) {
      auto& eng = *engs[w];
      const std::size_t warp_off = w * simgpu::kWarpSize;
      if (gate_sleep[w] == 0) {
        const T gate = eng.kth();
        std::size_t rounds = 0;
        std::size_t below = 0;
        for (std::size_t off = warp_off; off < rc; off += stride) {
          const std::size_t c =
              std::min<std::size_t>(simgpu::kWarpSize, rc - off);
          below += simgpu::BlockCtx::count_below(tv.subspan(off, c), gate);
          ++rounds;
        }
        if (below == 0) {
          gate_backoff[w] = 0;
          ctx.ops(rounds * kEmptyRoundLaneOps);
          continue;
        }
        const std::uint8_t next = gate_backoff[w];
        gate_backoff[w] =
            next == 0 ? 1 : static_cast<std::uint8_t>(next < 8 ? next * 2 : 8);
        gate_sleep[w] = gate_backoff[w];
      } else {
        --gate_sleep[w];
      }
      for (std::size_t off = warp_off; off < rc; off += stride) {
        const std::size_t c =
            std::min<std::size_t>(simgpu::kWarpSize, rc - off);
        eng.round_span(ctx, tv.subspan(off, c),
                       has_idx ? ti.subspan(off, c) : ti,
                       static_cast<std::uint32_t>(r + off));
      }
    }
  }
  for (std::size_t w = 0; w < static_cast<std::size_t>(num_warps); ++w) {
    engs[w]->finalize(ctx);
  }
}

/// One warp's contiguous scan of [first, end) of the row at `base`.
/// Warpfast path: one load_tile per 4096-element region feeds the engine's
/// `span_rounds()`, which filters and packs the region's candidates once and
/// replays only candidate-bearing rounds (charge-identical to per-round
/// processing, see WarpSelectEngine::span_rounds).  Exact path: 32-wide
/// rounds at unit stride.
template <typename T, typename Engine>
void contiguous_scan(simgpu::BlockCtx& ctx, const simgpu::Warp& warp,
                     Engine& eng, simgpu::DeviceBuffer<T> in,
                     simgpu::DeviceBuffer<std::uint32_t> in_idx,
                     std::size_t base, std::size_t first, std::size_t end) {
  if (!ctx.warpfast_enabled()) {
    exact_rounds(ctx, warp, eng, in, in_idx, base, first, end,
                 simgpu::kWarpSize);
    return;
  }
  constexpr std::size_t kRegion = 4096;
  const bool has_idx = !in_idx.empty();
  for (std::size_t r = first; r < end; r += kRegion) {
    const std::size_t rc = std::min(kRegion, end - r);
    const std::span<const T> tv = ctx.load_tile(in, base + r, rc);
    const std::span<const std::uint32_t> ti =
        has_idx ? ctx.load_tile(in_idx, base + r, rc)
                : std::span<const std::uint32_t>{};
    eng.span_rounds(ctx, tv, ti, static_cast<std::uint32_t>(r));
  }
  eng.finalize(ctx);
}

}  // namespace topk
