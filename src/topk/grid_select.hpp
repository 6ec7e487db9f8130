#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/expected_cost.hpp"
#include "topk/partial_sort_common.hpp"
#include "topk/warp_scan.hpp"
#include "topk/warp_select.hpp"

namespace topk {

/// Options for GridSelect (paper §4).
struct GridSelectOptions {
  /// The reference launch shape (warps per block over items_per_block-key
  /// chunks) that grid_select_geometry prices the other candidates against.
  int warps_per_block = 8;
  std::size_t items_per_block = 16 * 1024;
  /// false reproduces the Fig. 11 ablation: per-thread register queues
  /// (BlockSelect-style) inside the multi-block structure.
  bool shared_queue = true;
  /// Optional input indices (size batch*n), as in RAFT's select_k: result
  /// indices are taken from here instead of input positions.
  simgpu::DeviceBuffer<std::uint32_t> in_idx{};
};

/// One warp's GridSelect state: a single 32-entry *shared-memory* queue with
/// parallel two-step insertion (paper Fig. 5) in front of a sorted top-K
/// list.  Compared with per-thread register queues this reduces register
/// pressure and calls the expensive sort+merge only when the queue is
/// actually full.
///
/// This class is also the paper's "process data on-the-fly" device-function
/// building block: any kernel can instantiate it and push values as it
/// produces them (see examples/streaming_topk.cpp).
template <typename T>
class SharedQueueEngine {
 public:
  /// TopkList view over the engine's shared-memory storage.
  using SharedList =
      TopkList<T, simgpu::SharedSpan<T>, simgpu::SharedSpan<std::uint32_t>>;

  SharedQueueEngine(simgpu::BlockCtx& ctx, std::size_t k)
      : q_keys_(ctx.shared<T>(simgpu::kWarpSize, "gridselect queue keys")),
        q_idx_(ctx.shared<std::uint32_t>(simgpu::kWarpSize,
                                         "gridselect queue idx")),
        list_keys_(ctx.shared<T>(next_pow2(k), "gridselect list keys")),
        list_idx_(ctx.shared<std::uint32_t>(next_pow2(k),
                                            "gridselect list idx")),
        list_(list_keys_, list_idx_, k) {
    // Under the warpfast gate, candidates are staged pre-packed (see
    // pack_key_idx) in a plain member buffer instead of the shared-memory
    // queue: one 8-byte store per insert and the flush offers uint64s
    // straight into the list's packed heap.  The shared queue is still
    // allocated (shared-memory capacity modeling is unchanged) but not
    // written — its contents are unobservable except through the merge,
    // and the gate is per-block constant so a queue never mixes layouts.
    if constexpr (kPackableKey<T>) {
      packed_q_ = ctx.warpfast_enabled();
    }
  }

  [[nodiscard]] T kth() const { return list_.kth(); }

  /// Process one warp-wide round of up to 32 loaded elements with the
  /// parallel two-step insertion of Fig. 5.
  void round(simgpu::BlockCtx& ctx, const T* values,
             const std::uint32_t* indices, const bool* valid) {
    const T threshold = list_.kth();
    const std::uint32_t mask = simgpu::Warp::ballot([&](int lane) {
      return valid[lane] && values[lane] < threshold;
    });
    // The per-round floor (threshold compare per lane + the ballot) is the
    // one authoritative formula shared with the warpfast bulk charge; a
    // mask == 0 round costs exactly this and nothing else.
    ctx.ops(kEmptyRoundLaneOps);
    if (mask == 0) return;

    const std::size_t incoming =
        static_cast<std::size_t>(simgpu::Warp::popc(mask));
    // Step 1: lanes whose storing position fits insert immediately.  Walk
    // only the set mask bits (rank == popcount of lower bits, i.e.
    // Warp::rank_below); positions grow with the rank, so the first
    // overflow ends the loop — on the device the predicated store issues
    // for the candidate lanes either way, hence the same `incoming` charge.
    std::size_t rank = 0;
    for (std::uint32_t m = mask; m != 0; m &= m - 1, ++rank) {
      const std::size_t pos = q_count_ + rank;
      if (pos >= simgpu::kWarpSize) break;
      const int lane = std::countr_zero(m);
      q_put(pos, values[lane], indices[lane]);
    }
    ctx.ops(incoming);
    const std::size_t total = q_count_ + incoming;
    if (total < simgpu::kWarpSize) {
      q_count_ = total;
      return;
    }
    // Queue full: sort + merge, clear, then step 2 inserts the overflow
    // (the set bits whose position ran past the queue end in step 1).
    flush(ctx, simgpu::kWarpSize);
    rank = 0;
    for (std::uint32_t m = mask; m != 0; m &= m - 1, ++rank) {
      const std::size_t pos = q_count_overflow_base_ + rank;
      if (pos < simgpu::kWarpSize) continue;
      const int lane = std::countr_zero(m);
      q_put(pos - simgpu::kWarpSize, values[lane], indices[lane]);
    }
    ctx.ops(incoming);
    q_count_ = total - simgpu::kWarpSize;
  }

  /// round() for prefix-valid lane batches (the first `count` lanes hold
  /// loaded elements), with the threshold-gated fast path: when the block's
  /// warpfast gate is on and no element beats the current threshold, charge
  /// the exact per-round cost in bulk and return without touching any
  /// state — bit-identical to the full emulation, which would have found
  /// mask == 0.  Rounds with candidates take the exact path.
  void round_gated(simgpu::BlockCtx& ctx, const T* values,
                   const std::uint32_t* indices, std::size_t count) {
    if (ctx.warpfast_enabled() &&
        simgpu::BlockCtx::count_below(std::span<const T>(values, count),
                                      list_.kth()) == 0) {
      ctx.ops(kEmptyRoundLaneOps);
      return;
    }
    bool valid[simgpu::kWarpSize];
    for (int lane = 0; lane < simgpu::kWarpSize; ++lane) {
      valid[lane] = static_cast<std::size_t>(lane) < count;
    }
    round(ctx, values, indices, valid);
  }

  /// Vectorized round over one contiguous prefix-valid tile (warpfast
  /// path).  Queue/list state and BlockCounters end up identical to
  /// round() over the same elements: candidates are extracted in lane
  /// order — exactly the ballot's bit order — and appended with the same
  /// two-step placement, and the charges are the same per-round floor +
  /// `incoming` per insert step.  Only the emulation work (per-lane ballot
  /// closure, bit walking) is elided.  Indices come from `ext_idx` when
  /// non-empty, else `base_index + offset`.
  void round_span(simgpu::BlockCtx& ctx, std::span<const T> tile,
                  std::span<const std::uint32_t> ext_idx,
                  std::uint32_t base_index) {
    const T threshold = list_.kth();
    ctx.ops(kEmptyRoundLaneOps);
    if constexpr (kPackableKey<T>) {
      if (packed_q_) {
        // Fused filter + pack, compressed straight onto the staging queue
        // tail (qpack_ has kWarpSize slots of slack for exactly this).
        // Candidates land in lane order — the ballot's bit order — packed
        // once as 8-byte units that stay packed through staging and the
        // list merge.  Float keys take the vcompress path in simgpu::simd;
        // other packable keys use the branchless cursor loop.
        std::uint64_t* dst = qpack_.data() + q_count_;
        std::size_t m;
        if constexpr (std::is_same_v<T, float>) {
          m = simgpu::simd::pack_below_f32(
              tile.data(), ext_idx.empty() ? nullptr : ext_idx.data(),
              base_index, tile.size(), threshold, dst);
        } else {
          m = 0;
          for (std::size_t u = 0; u < tile.size(); ++u) {
            dst[m] = pack_key_idx<T>(
                tile[u], ext_idx.empty()
                             ? base_index + static_cast<std::uint32_t>(u)
                             : ext_idx[u]);
            m += tile[u] < threshold ? 1 : 0;
          }
        }
        if (m == 0) return;
        ctx.ops(m);
        const std::size_t total = q_count_ + m;
        if (total < simgpu::kWarpSize) {
          q_count_ = total;
          return;
        }
        // Queue full: sort + merge, then step 2 moves the overflow to the
        // front — the same two-step placement as the exact round.
        flush(ctx, simgpu::kWarpSize);
        const std::size_t rem = total - simgpu::kWarpSize;
        for (std::size_t i = 0; i < rem; ++i) {
          qpack_[i] = qpack_[simgpu::kWarpSize + i];
        }
        ctx.ops(m);
        q_count_ = rem;
        return;
      }
    }
    // Vectorized precheck: most rounds carry no candidate once the
    // threshold tightens, and the compare-only scan is far cheaper than
    // the compacting one below.
    if (simgpu::BlockCtx::count_below(tile, threshold) == 0) return;
    // Unpackable key types stage through the shared-memory queue as the
    // exact path does (raw spans when legal — shared-memory traffic is
    // never charged, so this is free of KernelStats effects).
    T ck[simgpu::kWarpSize];
    std::uint32_t ci[simgpu::kWarpSize];
    std::size_t m = 0;
    if (ext_idx.empty()) {
      for (std::size_t u = 0; u < tile.size(); ++u) {
        ck[m] = tile[u];
        ci[m] = base_index + static_cast<std::uint32_t>(u);
        m += tile[u] < threshold ? 1 : 0;
      }
    } else {
      for (std::size_t u = 0; u < tile.size(); ++u) {
        ck[m] = tile[u];
        ci[m] = ext_idx[u];
        m += tile[u] < threshold ? 1 : 0;
      }
    }
    if (m == 0) return;
    T* qk = raw_view(q_keys_).data();
    std::uint32_t* qi = raw_view(q_idx_).data();
    const auto put = [&](std::size_t dst, std::size_t i) {
      if (qk != nullptr) {
        qk[dst] = ck[i];
        qi[dst] = ci[i];
      } else {
        q_keys_[dst] = ck[i];
        q_idx_[dst] = ci[i];
      }
    };
    // Step 1: the candidates that fit the queue tail.
    const std::size_t take = std::min(m, simgpu::kWarpSize - q_count_);
    for (std::size_t i = 0; i < take; ++i) put(q_count_ + i, i);
    ctx.ops(m);
    const std::size_t total = q_count_ + m;
    if (total < simgpu::kWarpSize) {
      q_count_ = total;
      return;
    }
    // Queue full: sort + merge, then step 2 re-issues the overflow.
    flush(ctx, simgpu::kWarpSize);
    for (std::size_t i = take; i < m; ++i) put(i - take, i);
    ctx.ops(m);
    q_count_ = total - simgpu::kWarpSize;
  }

  /// Drain whatever is queued into the list.
  void finalize(simgpu::BlockCtx& ctx) {
    if (q_count_ > 0) flush(ctx, q_count_);
  }

  [[nodiscard]] SharedList& list() { return list_; }

 private:
  void flush(simgpu::BlockCtx& ctx, std::size_t count) {
    q_count_overflow_base_ = q_count_;
    if constexpr (kPackableKey<T>) {
      if (packed_q_) {
        list_.merge_packed(ctx, qpack_.data(), count);
        q_count_ = 0;
        return;
      }
    }
    list_.merge(ctx, q_keys_, q_idx_, count);
    q_count_ = 0;
  }

  /// One queue insert, honoring the staging layout (see the constructor).
  void q_put(std::size_t pos, T v, std::uint32_t index) {
    if constexpr (kPackableKey<T>) {
      if (packed_q_) {
        qpack_[pos] = pack_key_idx<T>(v, index);
        return;
      }
    }
    q_keys_[pos] = v;
    q_idx_[pos] = index;
  }

  simgpu::SharedSpan<T> q_keys_;
  simgpu::SharedSpan<std::uint32_t> q_idx_;
  simgpu::SharedSpan<T> list_keys_;
  simgpu::SharedSpan<std::uint32_t> list_idx_;
  SharedList list_;
  // Staging queue for packed candidates: kWarpSize live slots plus
  // kWarpSize slots of slack so round_span can compress a full round onto
  // the tail before splitting it across a flush.
  std::array<std::uint64_t, 2 * simgpu::kWarpSize> qpack_{};
  bool packed_q_ = false;
  std::size_t q_count_ = 0;
  std::size_t q_count_overflow_base_ = 0;
};

/// Execution plan for GridSelect: the shared-memory-constrained warp count,
/// the launch grid, and — for multi-block problems — the partial-result
/// segments consumed by the cross-block merge kernel.
template <typename T>
struct GridSelectPlan {
  GridSelectOptions opt;
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t cap = 0;  // next_pow2(k)
  int num_warps = 0;
  GridShape shape;
  bool direct_output = false;
  std::size_t seg_part_val = 0;  // valid iff !direct_output
  std::size_t seg_part_idx = 0;
};

/// Footprint contracts for the GridSelect kernel family.  The partial
/// kernels read the input once and publish either the final outputs
/// (single-block-per-problem regime) or per-block partial lists, so the
/// output operands are optional and the partial-list bounds are
/// segment-sized (cap and blocks-per-problem are tuning-dependent).
inline void register_grid_select_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  const std::vector<simgpu::OperandSpec> partial_ops = {
      {"in", Access::kRead, WriteScope::kNone, {{AffineVar::kBatchN}}, 8},
      {"in_idx",
       Access::kRead,
       WriteScope::kNone,
       {{AffineVar::kBatchN}},
       4,
       /*optional=*/true},
      {"out_vals",
       Access::kWrite,
       WriteScope::kBlockLocal,
       {{AffineVar::kBatchK}},
       8,
       /*optional=*/true},
      {"out_idx",
       Access::kWrite,
       WriteScope::kBlockLocal,
       {{AffineVar::kBatchK}},
       4,
       /*optional=*/true},
      {"part_val",
       Access::kWrite,
       WriteScope::kBlockLocal,
       {{AffineVar::kSegElems}},
       8,
       /*optional=*/true},
      {"part_idx",
       Access::kWrite,
       WriteScope::kBlockLocal,
       {{AffineVar::kSegElems}},
       4,
       /*optional=*/true},
  };
  simgpu::register_footprint({"GridSelect_partial", partial_ops});
  simgpu::register_footprint({"GridSelect_partial_threadqueue", partial_ops});
  simgpu::register_footprint(
      {"GridSelect_merge",
       {
           {"part_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8},
           {"part_idx",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            4},
           {"out_vals",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kBatchK}},
            8},
           {"out_idx",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kBatchK}},
            4},
       }});
}

/// One GridSelect launch geometry: warps per block and blocks per problem,
/// with the modeled µs of its expected charges.
struct GridGeometry {
  int warps = 0;
  int blocks_per_problem = 0;
  double predicted_us = 0.0;
  /// A problem's only block writes the final results itself; with more
  /// blocks the GridSelect_merge kernel reduces their partial lists.
  [[nodiscard]] bool direct_output() const { return blocks_per_problem == 1; }
};

/// The geometry grid_select_plan launches, and the reference shape
/// (GridSelectOptions' warps and items per block through make_grid) it was
/// priced against.
struct GridGeometryChoice {
  GridGeometry chosen;
  GridGeometry reference;
};

/// Expected charges of GridSelect's partial and merge launches at one
/// geometry: every warp scans an interleaved 1/warps of its block's chunk,
/// the block merges its warp lists and publishes one sorted list (the final
/// results when it is the problem's only block); the merge kernel prunes bpp
/// lists per problem.
template <typename T>
std::pair<simgpu::KernelStats, simgpu::KernelStats> grid_select_expected(
    const Shape& s, bool shared_queue, std::size_t bpp, std::size_t warps) {
  const std::size_t cap = next_pow2(s.k);
  const bool direct = bpp == 1;
  const double chunk =
      std::ceil(static_cast<double>(s.n) / static_cast<double>(bpp));
  const auto warp_elems = static_cast<std::size_t>(
      std::ceil(chunk / static_cast<double>(warps)));
  const double warp_ops = shared_queue
                              ? expected_shared_queue_ops(warp_elems, s.k)
                              : expected_thread_queue_ops(warp_elems, s.k);
  const double block_ops = static_cast<double>(warps) * warp_ops +
                           static_cast<double>((warps - 1) *
                                               merge_prune_ops(cap));
  const double pair = sizeof(T) + sizeof(std::uint32_t);
  const double block_out = pair * static_cast<double>(direct ? s.k : cap);
  const double blocks = static_cast<double>(s.batch * bpp);
  const simgpu::KernelStats partial = expected_stats(
      static_cast<double>(s.batch * s.n * sizeof(T)), blocks * block_out,
      blocks * block_ops, chunk * sizeof(T) + block_out, block_ops);
  const double lists = pair * static_cast<double>(bpp * cap);
  const double merge_ops =
      static_cast<double>((bpp - 1) * merge_prune_ops(cap));
  const double out = pair * static_cast<double>(s.k);
  const double rows = static_cast<double>(s.batch);
  const simgpu::KernelStats merge = expected_stats(
      rows * lists, rows * out, rows * merge_ops, lists + out, merge_ops);
  return {partial, merge};
}

/// Choose GridSelect's launch geometry by pricing a few candidates with
/// CostModel::expected_us and keeping the cheapest (the first on a tie):
///  - the reference shape, GridSelectOptions' warps per block (halved until
///    the per-warp queue + list state fits shared memory) over make_grid's
///    items_per_block chunks;
///  - one block per problem with ceil(W_sat / batch) warps, which writes the
///    output directly and launches no merge kernel;
///  - splits at 8, 16 and 32 warps per block with enough blocks to cover
///    W_sat = sm_count * saturating_warps_per_sm resident warps.
/// Every candidate fits shared memory and keeps the per-warp floor: no warp
/// scans fewer keys than a warp of the reference shape.  Priced candidates
/// would otherwise spread small rows over hundreds of warps that each redo
/// the O(k) list work, which the model prices below the reference but the
/// emulator pays for in wall time.  Only expected charges are built per
/// candidate, no workspace layout.
template <typename T>
GridGeometryChoice grid_select_geometry(const Shape& s,
                                        const simgpu::DeviceSpec& spec,
                                        const GridSelectOptions& opt) {
  const std::size_t per_warp_shared = (simgpu::kWarpSize + next_pow2(s.k)) *
                                      (sizeof(T) + sizeof(std::uint32_t));
  const int max_warps = static_cast<int>(
      std::min<std::size_t>(simgpu::kMaxWarpsPerBlock,
                            spec.shared_mem_per_block / per_warp_shared));
  if (max_warps < 1) {
    throw std::invalid_argument(
        "grid_select: k too large for this device's shared memory");
  }
  if (opt.warps_per_block < 1) {
    throw std::invalid_argument("grid_select: warps_per_block must be >= 1");
  }
  int ref_warps = std::min(opt.warps_per_block, simgpu::kMaxWarpsPerBlock);
  while (ref_warps > max_warps) ref_warps /= 2;
  const int ref_bpp = make_grid(s.batch, s.n, spec,
                                ref_warps * simgpu::kWarpSize,
                                opt.items_per_block)
                          .blocks_per_problem;
  const auto warp_keys = [&](int bpp, int warps) {
    return (s.n + static_cast<std::size_t>(bpp) * warps - 1) /
           (static_cast<std::size_t>(bpp) * warps);
  };
  const std::size_t floor_keys = warp_keys(ref_bpp, ref_warps);

  const simgpu::CostModel model(spec);
  const auto price = [&](int bpp, int warps) {
    const auto [partial, merge] = grid_select_expected<T>(
        s, opt.shared_queue, static_cast<std::size_t>(bpp),
        static_cast<std::size_t>(warps));
    simgpu::KernelSchedule sched;
    sched.priced = true;
    sched.add_launch("GridSelect_partial", static_cast<int>(s.batch) * bpp,
                     warps * simgpu::kWarpSize, s.batch, s.n, s.k, {},
                     partial);
    if (bpp > 1) {
      sched.add_launch("GridSelect_merge", static_cast<int>(s.batch), 1024,
                       s.batch, s.n, s.k, {}, merge);
    }
    return GridGeometry{warps, bpp, model.expected_us(sched)};
  };

  GridGeometryChoice race;
  race.reference = price(ref_bpp, ref_warps);
  race.chosen = race.reference;
  std::array<std::pair<int, int>, 5> tried{{{ref_bpp, ref_warps}}};
  std::size_t num_tried = 1;
  const auto consider = [&](int bpp, int warps) {
    if (warps < 1 || warps > max_warps) return;
    while (bpp > 1 && warp_keys(bpp, warps) < floor_keys) --bpp;
    if (warp_keys(bpp, warps) < floor_keys) return;
    const std::pair<int, int> g{bpp, warps};
    const auto seen = tried.begin() + static_cast<std::ptrdiff_t>(num_tried);
    if (std::find(tried.begin(), seen, g) != seen) return;
    tried[num_tried++] = g;
    const GridGeometry cand = price(bpp, warps);
    if (cand.predicted_us < race.chosen.predicted_us) race.chosen = cand;
  };
  const auto ceil_div = [](std::size_t a, std::size_t b) {
    return static_cast<int>((a + b - 1) / b);
  };
  const auto w_sat = static_cast<std::size_t>(spec.sm_count) *
                     static_cast<std::size_t>(spec.saturating_warps_per_sm);
  int one_block_warps = std::min(ceil_div(w_sat, s.batch), max_warps);
  while (one_block_warps > 1 && warp_keys(1, one_block_warps) < floor_keys) {
    --one_block_warps;
  }
  consider(1, one_block_warps);
  for (const int warps : {8, 16, 32}) {
    consider(ceil_div(w_sat, s.batch * static_cast<std::size_t>(warps)),
             warps);
  }
  return race;
}

/// Phase 1 of GridSelect: validate, choose the launch geometry
/// (grid_select_geometry) and lay out the partial-list segments (none when
/// a single block per problem writes the final results directly).
template <typename T>
GridSelectPlan<T> grid_select_plan(const Shape& s,
                                   const simgpu::DeviceSpec& spec,
                                   const GridSelectOptions& opt,
                                   simgpu::WorkspaceLayout& layout,
                                   simgpu::KernelSchedule* sched = nullptr) {
  validate_problem(s.n, s.k, s.batch);
  if (s.k > kMaxSelectionK) {
    throw std::invalid_argument("grid_select: k exceeds the " +
                                std::to_string(kMaxSelectionK) + " limit");
  }
  if (!opt.in_idx.empty() && opt.in_idx.size() < s.batch * s.n) {
    throw std::invalid_argument("grid_select: in_idx too small");
  }

  GridSelectPlan<T> p;
  p.opt = opt;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  p.cap = next_pow2(s.k);
  const GridGeometry geo = grid_select_geometry<T>(s, spec, opt).chosen;
  p.num_warps = geo.warps;
  p.shape.batch = s.batch;
  p.shape.block_threads = geo.warps * simgpu::kWarpSize;
  p.shape.blocks_per_problem = geo.blocks_per_problem;
  // With a single block per problem no cross-block merge is needed: the
  // partial kernel writes the final results directly (this is the regime
  // where GridSelect degenerates to a BlockSelect-shaped launch).
  p.direct_output = geo.direct_output();
  const auto bpp = static_cast<std::size_t>(geo.blocks_per_problem);
  if (!p.direct_output) {
    p.seg_part_val =
        layout.add<T>("gridselect partial vals", s.batch * bpp * p.cap);
    p.seg_part_idx = layout.add<std::uint32_t>("gridselect partial idx",
                                               s.batch * bpp * p.cap);
  }
  register_grid_select_footprints();
  simgpu::KernelStats partial_cost;
  simgpu::KernelStats merge_cost;
  if (sched != nullptr) {
    sched->priced = true;
    std::tie(partial_cost, merge_cost) = grid_select_expected<T>(
        s, opt.shared_queue, bpp, static_cast<std::size_t>(geo.warps));
  }
  {
    std::vector<simgpu::OperandBind> binds = {{"in", simgpu::kBindInput}};
    if (!opt.in_idx.empty()) binds.push_back({"in_idx", simgpu::kBindInput});
    if (p.direct_output) {
      binds.push_back({"out_vals", simgpu::kBindOutVals});
      binds.push_back({"out_idx", simgpu::kBindOutIdx});
    } else {
      binds.push_back({"part_val", static_cast<int>(p.seg_part_val)});
      binds.push_back({"part_idx", static_cast<int>(p.seg_part_idx)});
    }
    simgpu::record_launch(sched,
                          opt.shared_queue ? "GridSelect_partial"
                                           : "GridSelect_partial_threadqueue",
                          p.shape.total_blocks(), p.shape.block_threads,
                          s.batch, s.n, s.k, std::move(binds), partial_cost);
    if (!p.direct_output) {
      simgpu::record_launch(sched, "GridSelect_merge",
                            static_cast<int>(s.batch), 1024, s.batch, s.n,
                            s.k,
                            {{"part_val", static_cast<int>(p.seg_part_val)},
                             {"part_idx", static_cast<int>(p.seg_part_idx)},
                             {"out_vals", simgpu::kBindOutVals},
                             {"out_idx", simgpu::kBindOutIdx}},
                            merge_cost);
    }
  }
  return p;
}

/// Phase 2 of GridSelect (paper §4): WarpSelect with (a) a shared-memory
/// queue with parallel two-step insertion and (b) a multi-block launch so
/// the whole device participates, followed by a cross-block merge kernel.
template <typename T>
void grid_select_run(simgpu::Device& dev, const GridSelectPlan<T>& plan,
                     simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                     simgpu::DeviceBuffer<T> out_vals,
                     simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  const GridSelectOptions& opt = plan.opt;
  if (in.size() < batch * n || out_vals.size() < batch * k ||
      out_idx.size() < batch * k) {
    throw std::invalid_argument("grid_select: buffer too small");
  }

  const std::size_t cap = plan.cap;
  const int num_warps = plan.num_warps;
  const GridShape shape = plan.shape;
  const int bpp = shape.blocks_per_problem;
  const bool shared_queue = opt.shared_queue;
  const auto ext_idx = opt.in_idx;

  const bool direct_output = plan.direct_output;
  simgpu::DeviceBuffer<T> part_val;
  simgpu::DeviceBuffer<std::uint32_t> part_idx;
  if (!direct_output) {
    part_val = ws.get<T>(plan.seg_part_val);
    part_idx = ws.get<std::uint32_t>(plan.seg_part_idx);
  }

  // ---- kernel 1: per-block partial selection ----------------------------
  {
    simgpu::LaunchConfig cfg{shared_queue ? "GridSelect_partial"
                                          : "GridSelect_partial_threadqueue",
                             shape.total_blocks(), shape.block_threads,
                             batch, n, k};
    simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
      const std::size_t prob = shape.problem_of(ctx.block_idx());
      const int bip = shape.block_in_problem(ctx.block_idx());
      const auto [begin, end] = block_chunk(n, bpp, bip);
      // Scan the block's chunk, merge the warp lists, and emit either the
      // final results or the block's sorted partial list (padded to cap).
      // Shared-queue engines allocate from block shared memory; the
      // thread-queue variant keeps its queues in registers.
      const auto scan_and_emit = [&](auto& engs) {
        emplace_engines(engs, ctx, num_warps, k);
        strided_scan<64>(ctx, engs, num_warps, in, ext_idx, prob * n, begin,
                         end);
        ctx.sync();
        auto& merged = merge_warp_lists(ctx, engs, num_warps);
        if (direct_output) {
          store_list(ctx, merged.keys(), merged.indices(), out_vals, out_idx,
                     prob * k, k);
        } else {
          publish_padded_list(
              ctx, merged.keys(), merged.indices(), part_val, part_idx,
              (prob * static_cast<std::size_t>(bpp) +
               static_cast<std::size_t>(bip)) *
                  cap,
              k, cap);
        }
      };
      if (shared_queue) {
        WarpEngines<SharedQueueEngine<T>> engs;
        scan_and_emit(engs);
      } else {
        WarpEngines<faiss_detail::WarpSelectEngine<T>> engs;
        scan_and_emit(engs);
      }
    });
  }
  if (direct_output) return;

  // ---- kernel 2: cross-block merge ---------------------------------------
  // One wide block per problem: the real kernel tree-merges the partial
  // lists across its warps, so the launch shape (and hence the modeled
  // bandwidth share) uses a full 1024-thread block.
  simgpu::LaunchConfig cfg{"GridSelect_merge", static_cast<int>(batch), 1024,
                           batch, n, k};
  simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
    const auto prob = static_cast<std::size_t>(ctx.block_idx());
    const auto lists = static_cast<std::size_t>(bpp);
    merge_partial_lists(ctx, part_val, part_idx, prob * lists * cap, lists,
                        cap, out_vals, out_idx, prob * k, k);
  });
}

}  // namespace topk
