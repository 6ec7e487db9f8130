#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"

namespace topk {

/// Options for the BucketSelect baseline.
struct BucketSelectOptions {
  int num_buckets = 256;
  int block_threads = 256;
  std::size_t items_per_block = 16 * 1024;
};

/// Execution plan for BucketSelect: validated shape plus workspace segments,
/// including a host staging segment for the copied-back histogram (the
/// per-iteration grids are data-dependent arithmetic computed in run()).
template <typename T>
struct BucketSelectPlan {
  BucketSelectOptions opt;
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t seg_val[2] = {0, 0};
  std::size_t seg_idx[2] = {0, 0};
  std::size_t seg_minmax = 0;
  std::size_t seg_hist = 0;
  std::size_t seg_counters = 0;
  std::size_t seg_host_hist = 0;  // host staging
};

/// Footprint contracts for the BucketSelect kernels.  Histogram and
/// candidate bounds are segment-sized (bucket counts are tuning options and
/// the candidate set shrinks data-dependently); the filter's output writes
/// go through cursor-reserved aggregated appends.
inline void register_bucket_select_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  simgpu::register_footprint(
      {"minmax_memset",
       {
           {"minmax",
            Access::kWrite,
            WriteScope::kSingleBlock,
            {{AffineVar::kOne, 2}},
            8},
           {"counters",
            Access::kWrite,
            WriteScope::kSingleBlock,
            {{AffineVar::kOne, 2}},
            4},
       }});
  simgpu::register_footprint(
      {"minmax_reduce",
       {
           {"in",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kBatchN}},
            8,
            /*optional=*/true},
           {"src_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8,
            /*optional=*/true},
           {"minmax", Access::kAtomic, WriteScope::kNone, {{AffineVar::kOne, 2}},
            8},
       }});
  // Shared with SampleSelect (which also clears its cursors here), so the
  // counters operand is part of the contract but optional.
  simgpu::register_footprint(
      {"hist_memset",
       {
           {"hist",
            Access::kWrite,
            WriteScope::kSingleBlock,
            {{AffineVar::kSegElems}},
            4},
           {"counters",
            Access::kWrite,
            WriteScope::kSingleBlock,
            {{AffineVar::kOne, 2}},
            4,
            /*optional=*/true},
       }});
  simgpu::register_footprint(
      {"bucket_histogram",
       {
           {"in",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kBatchN}},
            8,
            /*optional=*/true},
           {"src_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8,
            /*optional=*/true},
           {"hist", Access::kAtomic, WriteScope::kNone,
            {{AffineVar::kSegElems}}, 4},
       }});
  simgpu::register_footprint(
      {"bucket_filter",
       {
           {"in",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kBatchN}},
            8,
            /*optional=*/true},
           {"src_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8,
            /*optional=*/true},
           {"src_idx",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            4,
            /*optional=*/true},
           {"counters", Access::kAtomic, WriteScope::kNone,
            {{AffineVar::kOne, 2}}, 4},
           {"out_vals",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kBatchK}},
            8},
           {"out_idx",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kBatchK}},
            4},
           {"dst_val",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kSegElems}},
            8},
           {"dst_idx",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kSegElems}},
            4},
       }});
  register_copy_remainder_footprint();
}

/// Phase 1 of BucketSelect.
template <typename T>
BucketSelectPlan<T> bucket_select_plan(const Shape& s,
                                       const simgpu::DeviceSpec& spec,
                                       const BucketSelectOptions& opt,
                                       simgpu::WorkspaceLayout& layout,
                                       simgpu::KernelSchedule* sched = nullptr) {
  validate_problem(s.n, s.k, s.batch);

  BucketSelectPlan<T> p;
  p.opt = opt;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  const auto nb = static_cast<std::size_t>(opt.num_buckets);
  p.seg_val[0] = layout.add<T>("bucket cand vals 0", s.n);
  p.seg_val[1] = layout.add<T>("bucket cand vals 1", s.n);
  p.seg_idx[0] = layout.add<std::uint32_t>("bucket cand idx 0", s.n);
  p.seg_idx[1] = layout.add<std::uint32_t>("bucket cand idx 1", s.n);
  p.seg_minmax = layout.add<T>("bucket minmax", 2);
  p.seg_hist = layout.add<std::uint32_t>("bucket histogram", nb);
  p.seg_counters = layout.add<std::uint32_t>("bucket cursors", 2);
  p.seg_host_hist = layout.add<std::uint32_t>("bucket host hist", nb,
                                              /*host=*/true);

  if (sched != nullptr) {
    register_bucket_select_footprints();
    // Nominal per-problem unrolling: two refinement iterations (the first
    // scans the input, the second the ping-pong candidates — together they
    // exercise both buffer sides) followed by the terminal remainder copy.
    const GridShape shape =
        make_grid(1, s.n, spec, opt.block_threads, opt.items_per_block);
    int cur = 0;
    for (int iter = 0; iter < 2; ++iter) {
      const bool fi = (iter == 0);
      simgpu::record_launch(sched, "minmax_memset", 1, 32, 1, s.n, s.k,
                            {{"minmax", static_cast<int>(p.seg_minmax)},
                             {"counters", static_cast<int>(p.seg_counters)}});
      std::vector<simgpu::OperandBind> reduce_binds;
      if (fi) {
        reduce_binds.push_back({"in", simgpu::kBindInput});
      } else {
        reduce_binds.push_back({"src_val", static_cast<int>(p.seg_val[cur])});
      }
      reduce_binds.push_back({"minmax", static_cast<int>(p.seg_minmax)});
      simgpu::record_launch(sched, "minmax_reduce", shape.total_blocks(),
                            opt.block_threads, 1, s.n, s.k,
                            std::move(reduce_binds));
      simgpu::record_host(sched, "minmax",
                          {{"minmax", static_cast<int>(p.seg_minmax),
                            simgpu::Access::kRead}});
      simgpu::record_launch(sched, "hist_memset", 1, 32, 1, s.n, s.k,
                            {{"hist", static_cast<int>(p.seg_hist)}});
      std::vector<simgpu::OperandBind> hist_binds;
      if (fi) {
        hist_binds.push_back({"in", simgpu::kBindInput});
      } else {
        hist_binds.push_back({"src_val", static_cast<int>(p.seg_val[cur])});
      }
      hist_binds.push_back({"hist", static_cast<int>(p.seg_hist)});
      simgpu::record_launch(sched, "bucket_histogram", shape.total_blocks(),
                            opt.block_threads, 1, s.n, s.k,
                            std::move(hist_binds));
      simgpu::record_host(
          sched, "bucket hist",
          {{"hist", static_cast<int>(p.seg_hist), simgpu::Access::kRead},
           {"host_hist", static_cast<int>(p.seg_host_hist),
            simgpu::Access::kWrite}});
      simgpu::record_host(sched, "scan+find_bkt",
                          {{"host_hist", static_cast<int>(p.seg_host_hist),
                            simgpu::Access::kRead}});
      std::vector<simgpu::OperandBind> filter_binds;
      if (fi) {
        filter_binds.push_back({"in", simgpu::kBindInput});
      } else {
        filter_binds.push_back({"src_val", static_cast<int>(p.seg_val[cur])});
        filter_binds.push_back({"src_idx", static_cast<int>(p.seg_idx[cur])});
      }
      filter_binds.push_back({"counters", static_cast<int>(p.seg_counters)});
      filter_binds.push_back({"out_vals", simgpu::kBindOutVals});
      filter_binds.push_back({"out_idx", simgpu::kBindOutIdx});
      filter_binds.push_back({"dst_val", static_cast<int>(p.seg_val[1 - cur])});
      filter_binds.push_back({"dst_idx", static_cast<int>(p.seg_idx[1 - cur])});
      simgpu::record_launch(sched, "bucket_filter", shape.total_blocks(),
                            opt.block_threads, 1, s.n, s.k,
                            std::move(filter_binds));
      cur = 1 - cur;
    }
    simgpu::record_launch(sched, "CopyRemainder", shape.total_blocks(),
                          opt.block_threads, 1, s.n, s.k,
                          {{"src_val", static_cast<int>(p.seg_val[cur])},
                           {"src_idx", static_cast<int>(p.seg_idx[cur])},
                           {"out_vals", simgpu::kBindOutVals},
                           {"out_idx", simgpu::kBindOutIdx}});
  }
  return p;
}

/// Phase 2 of BucketSelect (Alabi et al. 2012 / GpuSelection):
/// partition-based selection whose pivots are derived from the minimum and
/// maximum of the candidates (paper §2.2).  Each iteration runs a min/max
/// reduction, copies the extrema to the host, buckets the candidates by
/// linear interpolation, copies the histogram back, and filters into the
/// target bucket — two host round trips per iteration.
template <typename T>
void bucket_select_run(simgpu::Device& dev, const BucketSelectPlan<T>& plan,
                       simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                       simgpu::DeviceBuffer<T> out_vals,
                       simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  const BucketSelectOptions& opt = plan.opt;
  if (in.size() < batch * n || out_vals.size() < batch * k ||
      out_idx.size() < batch * k) {
    throw std::invalid_argument("bucket_select: buffer too small");
  }

  const int nb = opt.num_buckets;
  simgpu::DeviceBuffer<T> cand_val[2] = {ws.get<T>(plan.seg_val[0]),
                                         ws.get<T>(plan.seg_val[1])};
  simgpu::DeviceBuffer<std::uint32_t> cand_idx[2] = {
      ws.get<std::uint32_t>(plan.seg_idx[0]),
      ws.get<std::uint32_t>(plan.seg_idx[1])};
  auto minmax = ws.get<T>(plan.seg_minmax);
  auto ghist = ws.get<std::uint32_t>(plan.seg_hist);
  auto counters = ws.get<std::uint32_t>(plan.seg_counters);
  const std::span<std::uint32_t> host_hist(
      ws.host_ptr<std::uint32_t>(plan.seg_host_hist),
      static_cast<std::size_t>(nb));

  for (std::size_t prob = 0; prob < batch; ++prob) {
    std::uint64_t k_rem = k;
    std::uint64_t count = n;
    std::uint64_t out_cursor = prob * k;
    int cur = 0;
    bool from_input = true;

    while (true) {
      const auto src_val = cand_val[cur];
      const auto src_idx = cand_idx[cur];

      const auto copy_first = [&](std::uint64_t m) {
        const std::uint64_t dst = out_cursor;
        const bool fi = from_input;
        const GridShape shape = make_grid(1, m, dev.spec(), opt.block_threads,
                                          opt.items_per_block);
        const int bpp = shape.blocks_per_problem;
        simgpu::LaunchConfig cfg{"CopyRemainder", shape.total_blocks(),
                                 opt.block_threads, 1, n, k};
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          const auto [begin, end] = block_chunk(m, bpp, ctx.block_idx());
          for (std::size_t i = begin; i < end; ++i) {
            if (fi) {
              ctx.store(out_vals, dst + i, ctx.load(in, prob * n + i));
              ctx.store(out_idx, dst + i, static_cast<std::uint32_t>(i));
            } else {
              ctx.store(out_vals, dst + i, ctx.load(src_val, i));
              ctx.store(out_idx, dst + i, ctx.load(src_idx, i));
            }
          }
        });
        out_cursor += m;
      };

      if (count == k_rem) {
        copy_first(count);
        dev.synchronize("final");
        break;
      }

      // ---- kernel 1: min/max reduction ------------------------------------
      {
        simgpu::LaunchConfig cfg{"minmax_memset", 1, 32, 1, n, k};
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          ctx.store(minmax, 0, std::numeric_limits<T>::max());
          ctx.store(minmax, 1, std::numeric_limits<T>::lowest());
          ctx.store<std::uint32_t>(counters, 0, 0);
          ctx.store<std::uint32_t>(counters, 1, 0);
        });
      }
      const GridShape shape = make_grid(1, count, dev.spec(),
                                        opt.block_threads,
                                        opt.items_per_block);
      const int bpp = shape.blocks_per_problem;
      {
        simgpu::LaunchConfig cfg{"minmax_reduce", shape.total_blocks(),
                                 opt.block_threads, 1, n, k};
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          const auto [begin, end] = block_chunk(count, bpp, ctx.block_idx());
          T lo = std::numeric_limits<T>::max();
          T hi = std::numeric_limits<T>::lowest();
          for (std::size_t i = begin; i < end; ++i) {
            const T v =
                from_input ? ctx.load(in, prob * n + i) : ctx.load(src_val, i);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
          ctx.ops(2 * (end - begin));
          if (begin < end) {
            ctx.atomic_min(minmax, 0, lo);
            ctx.atomic_max(minmax, 1, hi);
          }
        });
      }
      std::array<T, 2> host_minmax;
      dev.copy_to_host(minmax, std::span<T>(host_minmax), "minmax");
      const double lo = static_cast<double>(host_minmax[0]);
      const double hi = static_cast<double>(host_minmax[1]);
      if (!std::isfinite(lo) || !std::isfinite(hi)) {
        // An infinite extreme makes the interpolation scale 0 (or NaN): every
        // key lands in one bucket and the refinement never narrows.
        throw std::invalid_argument(
            "BucketSelect: keys must be finite (the min/max interpolation "
            "cannot bucket +-inf); use another algorithm for such rows");
      }
      if (!(lo < hi)) {
        // All remaining candidates are identical: any k_rem of them work.
        copy_first(k_rem);
        dev.synchronize("final");
        break;
      }
      const double scale = static_cast<double>(nb) / (hi - lo);

      // ---- kernel 2: interpolation histogram ------------------------------
      {
        simgpu::LaunchConfig cfg{"hist_memset", 1, 32, 1, n, k};
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          for (int d = 0; d < nb; ++d) {
            ctx.store<std::uint32_t>(ghist, static_cast<std::size_t>(d), 0);
          }
        });
      }
      {
        simgpu::LaunchConfig cfg{"bucket_histogram", shape.total_blocks(),
                                 opt.block_threads, 1, n, k};
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          auto shist =
              ctx.shared_zero<std::uint32_t>(static_cast<std::size_t>(nb));
          const auto [begin, end] = block_chunk(count, bpp, ctx.block_idx());
          for (std::size_t i = begin; i < end; ++i) {
            const T v =
                from_input ? ctx.load(in, prob * n + i) : ctx.load(src_val, i);
            const auto b = std::min<std::int64_t>(
                nb - 1, static_cast<std::int64_t>(
                            (static_cast<double>(v) - lo) * scale));
            ++shist[static_cast<std::size_t>(std::max<std::int64_t>(0, b))];
          }
          ctx.ops(4 * (end - begin));
          ctx.sync();
          for (int d = 0; d < nb; ++d) {
            if (shist[static_cast<std::size_t>(d)] != 0) {
              ctx.atomic_add_scattered(ghist, static_cast<std::size_t>(d),
                                       shist[static_cast<std::size_t>(d)]);
            }
          }
        });
      }
      dev.copy_to_host(ghist, host_hist, "bucket hist");
      dev.host_compute("scan+find_bkt",
                       static_cast<std::uint64_t>(3 * nb));
      std::uint64_t less = 0;
      std::uint32_t target = 0;
      std::uint64_t target_count = 0;
      for (int d = 0; d < nb; ++d) {
        const std::uint32_t c = host_hist[static_cast<std::size_t>(d)];
        if (less + c >= k_rem) {
          target = static_cast<std::uint32_t>(d);
          target_count = c;
          break;
        }
        less += c;
      }

      // ---- kernel 3: filter ------------------------------------------------
      const auto dst_val = cand_val[1 - cur];
      const auto dst_idx = cand_idx[1 - cur];
      const std::uint64_t out_base = out_cursor;
      {
        simgpu::LaunchConfig cfg{"bucket_filter", shape.total_blocks(),
                                 opt.block_threads, 1, n, k};
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          const auto [begin, end] = block_chunk(count, bpp, ctx.block_idx());
          AggregatedAppender<T, std::uint32_t> out_app(
              out_vals, out_idx, out_base, counters, 0, less,
              "bucket_select results");
          AggregatedAppender<T, std::uint32_t> cand_app(
              dst_val, dst_idx, 0, counters, 1, count,
              "bucket_select candidates");
          for (std::size_t i = begin; i < end; ++i) {
            T v;
            std::uint32_t id;
            if (from_input) {
              v = ctx.load(in, prob * n + i);
              id = static_cast<std::uint32_t>(i);
            } else {
              v = ctx.load(src_val, i);
              id = ctx.load(src_idx, i);
            }
            const auto raw = static_cast<std::int64_t>(
                (static_cast<double>(v) - lo) * scale);
            const auto b = static_cast<std::uint32_t>(
                std::min<std::int64_t>(nb - 1, std::max<std::int64_t>(0, raw)));
            if (b < target) {
              out_app.push(ctx, v, id);
            } else if (b == target) {
              cand_app.push(ctx, v, id);
            }
          }
          out_app.flush(ctx);
          cand_app.flush(ctx);
          ctx.ops(5 * (end - begin));
        });
      }
      dev.synchronize("host check");
      out_cursor += less;
      k_rem -= less;
      count = target_count;
      cur = 1 - cur;
      from_input = false;
    }
    if (out_cursor != prob * k + k) {
      throw std::logic_error("bucket_select: result count mismatch");
    }
  }
}

}  // namespace topk
