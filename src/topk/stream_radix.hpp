#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/radix_traits.hpp"

namespace topk {

/// Options for the streaming large-K radix select (RadiK direction).
struct StreamRadixOptions {
  int digit_bits = 8;  ///< 8-bit digits / 256 buckets per pass
  int block_threads = 256;
  std::size_t items_per_block = 16 * 1024;
  /// Target chunk length.  Scratch is sized by max(chunk, 2k), never by n —
  /// the bounded-workspace contract the large-K tier exists for.
  std::size_t chunk_target = std::size_t{1} << 22;
};

/// Execution plan for the streaming chunked radix select: the host walks the
/// input row in `chunks` bounded slices, radix-selects each slice's top-k
/// into a 2k union buffer, and folds the union back to k whenever it fills.
/// Workspace = candidate ping-pong of one chunk + two k-sized union sides +
/// histogram/cursors — independent of n for n >> chunk_target.
///
/// Unlike the one-shot RadixSelect row, largest-K is native: the radix keys
/// are bitwise-complemented inside the kernels, so no n-sized negated-input
/// segment is ever planned (which would break the bounded-scratch claim).
template <typename T>
struct StreamRadixPlan {
  StreamRadixOptions opt;
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  bool greatest = false;
  std::size_t chunks = 1;     ///< S: host-loop slice count
  std::size_t chunk_cap = 0;  ///< max slice length = ceil(n / chunks)
  std::size_t cand_cap = 0;   ///< candidate buffer length = max(chunk_cap, 2k)
  int nb = 0;
  std::uint32_t mask = 0;
  int num_passes = 0;

  struct Pass {
    std::string_view hist_name;    // interned "StreamHist(<p>)"
    std::string_view filter_name;  // interned "StreamFilter(<p>)"
    int start_bit = 0;
  };
  std::vector<Pass> passes;

  std::size_t seg_hist = 0;
  std::size_t seg_counters = 0;
  std::size_t seg_cand_val[2] = {0, 0};
  std::size_t seg_cand_idx[2] = {0, 0};
  std::size_t seg_union_val[2] = {0, 0};
  std::size_t seg_union_idx[2] = {0, 0};
  std::size_t seg_host_hist = 0;
};

/// Footprint contracts for the streaming radix kernels.  Every data operand
/// is segment-sized (chunk/candidate capacities are tuning options, not
/// shape functions); winners and survivors append through reserved atomic
/// cursors.  The terminal copies are single-block.
inline void register_stream_radix_footprints() {
  using simgpu::Access;
  using simgpu::AffineVar;
  using simgpu::WriteScope;
  simgpu::register_footprint(
      {"Memset",
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
            4},
       }});
  simgpu::register_footprint(
      {"StreamHist",
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
      {"StreamFilter",
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
           {"win_val",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kSegElems}},
            8},
           {"win_idx",
            Access::kWrite,
            WriteScope::kReserved,
            {{AffineVar::kSegElems}},
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
  simgpu::register_footprint(
      {"StreamTake",
       {
           {"src_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8},
           {"src_idx",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            4},
           {"win_val",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            8},
           {"win_idx",
            Access::kWrite,
            WriteScope::kBlockLocal,
            {{AffineVar::kSegElems}},
            4},
       }});
  simgpu::register_footprint(
      {"StreamEmit",
       {
           {"src_val",
            Access::kRead,
            WriteScope::kNone,
            {{AffineVar::kSegElems}},
            8},
           {"src_idx",
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

namespace stream_radix_detail {

/// Record one inner radix select (the per-chunk or fold loop body) into the
/// nominal schedule.  `from_input` distinguishes the chunk scan (reads the
/// caller's input) from the union fold (reads a union side).
template <typename T>
inline void record_inner_select(simgpu::KernelSchedule* sched,
                                const StreamRadixPlan<T>& p,
                                const simgpu::DeviceSpec& spec,
                                bool from_input, std::size_t count,
                                int src_side, int dst_side) {
  const GridShape hshape = make_grid(1, count, spec, p.opt.block_threads,
                                     p.opt.items_per_block);
  int cur = 0;
  for (int pass = 0; pass < p.num_passes; ++pass) {
    const auto& pp = p.passes[static_cast<std::size_t>(pass)];
    simgpu::record_launch(sched, "Memset", 1, p.opt.block_threads, 1, p.n,
                          p.k,
                          {{"hist", static_cast<int>(p.seg_hist)},
                           {"counters", static_cast<int>(p.seg_counters)}});
    std::vector<simgpu::OperandBind> hist_binds;
    if (pass == 0 && from_input) {
      hist_binds.push_back({"in", simgpu::kBindInput});
    } else if (pass == 0) {
      hist_binds.push_back(
          {"src_val", static_cast<int>(p.seg_union_val[src_side])});
    } else {
      hist_binds.push_back(
          {"src_val", static_cast<int>(p.seg_cand_val[cur])});
    }
    hist_binds.push_back({"hist", static_cast<int>(p.seg_hist)});
    simgpu::record_launch(sched, pp.hist_name, hshape.total_blocks(),
                          p.opt.block_threads, 1, p.n, p.k,
                          std::move(hist_binds));
    simgpu::record_host(
        sched, "histogram",
        {{"hist", static_cast<int>(p.seg_hist), simgpu::Access::kRead},
         {"host_hist", static_cast<int>(p.seg_host_hist),
          simgpu::Access::kWrite}});
    simgpu::record_host(sched, "scan+find_digit",
                        {{"host_hist", static_cast<int>(p.seg_host_hist),
                          simgpu::Access::kRead}});
    std::vector<simgpu::OperandBind> filter_binds;
    if (pass == 0 && from_input) {
      filter_binds.push_back({"in", simgpu::kBindInput});
    } else if (pass == 0) {
      filter_binds.push_back(
          {"src_val", static_cast<int>(p.seg_union_val[src_side])});
      filter_binds.push_back(
          {"src_idx", static_cast<int>(p.seg_union_idx[src_side])});
    } else {
      filter_binds.push_back(
          {"src_val", static_cast<int>(p.seg_cand_val[cur])});
      filter_binds.push_back(
          {"src_idx", static_cast<int>(p.seg_cand_idx[cur])});
    }
    filter_binds.push_back({"counters", static_cast<int>(p.seg_counters)});
    filter_binds.push_back(
        {"win_val", static_cast<int>(p.seg_union_val[dst_side])});
    filter_binds.push_back(
        {"win_idx", static_cast<int>(p.seg_union_idx[dst_side])});
    filter_binds.push_back(
        {"dst_val", static_cast<int>(p.seg_cand_val[1 - cur])});
    filter_binds.push_back(
        {"dst_idx", static_cast<int>(p.seg_cand_idx[1 - cur])});
    simgpu::record_launch(sched, pp.filter_name, hshape.total_blocks(),
                          p.opt.block_threads, 1, p.n, p.k,
                          std::move(filter_binds));
    cur = 1 - cur;
  }
  simgpu::record_launch(
      sched, "StreamTake", 1, p.opt.block_threads, 1, p.n, p.k,
      {{"src_val", static_cast<int>(p.seg_cand_val[cur])},
       {"src_idx", static_cast<int>(p.seg_cand_idx[cur])},
       {"win_val", static_cast<int>(p.seg_union_val[dst_side])},
       {"win_idx", static_cast<int>(p.seg_union_idx[dst_side])}});
}

}  // namespace stream_radix_detail

/// Phase 1 of the streaming radix select: pick the chunk schedule, intern
/// the per-pass kernel names, and lay out the bounded workspace.
template <typename T>
StreamRadixPlan<T> stream_radix_plan(const Shape& s,
                                     const simgpu::DeviceSpec& spec,
                                     const StreamRadixOptions& opt,
                                     simgpu::WorkspaceLayout& layout,
                                     simgpu::KernelSchedule* sched = nullptr) {
  using Traits = RadixTraits<T>;

  validate_problem(s.n, s.k, s.batch);

  StreamRadixPlan<T> p;
  p.opt = opt;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  p.greatest = s.greatest;
  p.nb = 1 << opt.digit_bits;
  p.mask = static_cast<std::uint32_t>(p.nb - 1);
  p.num_passes = (Traits::kBits + opt.digit_bits - 1) / opt.digit_bits;
  p.passes.reserve(static_cast<std::size_t>(p.num_passes));
  for (int pass = 0; pass < p.num_passes; ++pass) {
    typename StreamRadixPlan<T>::Pass pp;
    pp.start_bit = std::max(0, Traits::kBits - (pass + 1) * opt.digit_bits);
    pp.hist_name =
        simgpu::intern_name("StreamHist(" + std::to_string(pass) + ")");
    pp.filter_name =
        simgpu::intern_name("StreamFilter(" + std::to_string(pass) + ")");
    p.passes.push_back(pp);
  }

  // Chunk schedule: aim for chunk_target-sized slices, but never let a slice
  // drop below k (every slice must be able to yield k winners), so the slice
  // count is capped at n/k.
  const std::size_t target =
      std::max<std::size_t>(1, (s.n + opt.chunk_target - 1) / opt.chunk_target);
  const std::size_t cap = std::max<std::size_t>(1, s.n / s.k);
  p.chunks = std::min(target, cap);
  p.chunk_cap = (s.n + p.chunks - 1) / p.chunks;
  p.cand_cap = std::max(p.chunk_cap, 2 * s.k);

  p.seg_hist = layout.add<std::uint32_t>("stream digit histogram",
                                         static_cast<std::size_t>(p.nb));
  p.seg_counters = layout.add<std::uint32_t>("stream cursors", 2);
  p.seg_cand_val[0] = layout.add<T>("stream cand vals 0", p.cand_cap);
  p.seg_cand_val[1] = layout.add<T>("stream cand vals 1", p.cand_cap);
  p.seg_cand_idx[0] = layout.add<std::uint32_t>("stream cand idx 0",
                                                p.cand_cap);
  p.seg_cand_idx[1] = layout.add<std::uint32_t>("stream cand idx 1",
                                                p.cand_cap);
  p.seg_union_val[0] = layout.add<T>("stream union vals 0", 2 * s.k);
  p.seg_union_val[1] = layout.add<T>("stream union vals 1", 2 * s.k);
  p.seg_union_idx[0] = layout.add<std::uint32_t>("stream union idx 0",
                                                 2 * s.k);
  p.seg_union_idx[1] = layout.add<std::uint32_t>("stream union idx 1",
                                                 2 * s.k);
  p.seg_host_hist = layout.add<std::uint32_t>(
      "stream host hist", static_cast<std::size_t>(p.nb), /*host=*/true);

  if (sched != nullptr) {
    register_stream_radix_footprints();
    // Nominal per-problem unrolling for the static auditor: one chunk
    // select into union side 0; when the plan actually streams, a second
    // chunk select plus the union fold (side 0 -> side 1).  The real pass
    // and candidate counts shrink data-dependently below this superset.
    stream_radix_detail::record_inner_select(sched, p, spec,
                                             /*from_input=*/true, p.chunk_cap,
                                             /*src_side=*/0, /*dst_side=*/0);
    int emit_side = 0;
    if (p.chunks > 1) {
      stream_radix_detail::record_inner_select(
          sched, p, spec, /*from_input=*/true, p.chunk_cap, /*src_side=*/0,
          /*dst_side=*/0);
      stream_radix_detail::record_inner_select(sched, p, spec,
                                               /*from_input=*/false,
                                               2 * s.k, /*src_side=*/0,
                                               /*dst_side=*/1);
      emit_side = 1;
    }
    simgpu::record_launch(
        sched, "StreamEmit", 1, opt.block_threads, 1, s.n, s.k,
        {{"src_val", static_cast<int>(p.seg_union_val[emit_side])},
         {"src_idx", static_cast<int>(p.seg_union_idx[emit_side])},
         {"out_vals", simgpu::kBindOutVals},
         {"out_idx", simgpu::kBindOutIdx}});
  }
  return p;
}

/// Phase 2: the host-orchestrated streaming loop.  Per problem, each chunk
/// runs the classic histogram/filter radix select over its slice — winners
/// appended (with row-local global indices) into the active 2k union side —
/// and every time the union fills, one more inner select folds it back to k
/// on the other side.  Scratch never exceeds the planned candidate/union
/// capacities, so the same plan covers any n at fixed k and chunk target.
template <typename T>
void stream_radix_run(simgpu::Device& dev, const StreamRadixPlan<T>& plan,
                      simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                      simgpu::DeviceBuffer<T> out_vals,
                      simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  using Traits = RadixTraits<T>;
  using Bits = typename Traits::Bits;

  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  const StreamRadixOptions& opt = plan.opt;
  if (in.size() < batch * n) {
    throw std::invalid_argument("stream_radix: input too small");
  }
  if (out_vals.size() < batch * k || out_idx.size() < batch * k) {
    throw std::invalid_argument("stream_radix: output buffers too small");
  }

  const int nb = plan.nb;
  const std::uint32_t mask = plan.mask;
  const int num_passes = plan.num_passes;
  const bool greatest = plan.greatest;

  auto ghist = ws.get<std::uint32_t>(plan.seg_hist);
  auto counters = ws.get<std::uint32_t>(plan.seg_counters);
  simgpu::DeviceBuffer<T> cand_val[2] = {ws.get<T>(plan.seg_cand_val[0]),
                                         ws.get<T>(plan.seg_cand_val[1])};
  simgpu::DeviceBuffer<std::uint32_t> cand_idx[2] = {
      ws.get<std::uint32_t>(plan.seg_cand_idx[0]),
      ws.get<std::uint32_t>(plan.seg_cand_idx[1])};
  simgpu::DeviceBuffer<T> union_val[2] = {ws.get<T>(plan.seg_union_val[0]),
                                          ws.get<T>(plan.seg_union_val[1])};
  simgpu::DeviceBuffer<std::uint32_t> union_idx[2] = {
      ws.get<std::uint32_t>(plan.seg_union_idx[0]),
      ws.get<std::uint32_t>(plan.seg_union_idx[1])};
  const std::span<std::uint32_t> host_hist(
      ws.host_ptr<std::uint32_t>(plan.seg_host_hist),
      static_cast<std::size_t>(nb));

  // The monotone radix key of a value under the requested order: largest-K
  // complements the ordinal, so "smallest key" always means "best".
  const auto radix_key = [greatest](T v) -> Bits {
    const Bits key = Traits::to_radix(v);
    return greatest ? static_cast<Bits>(~key) : key;
  };

  // One inner radix select: the k best of `count` source elements, written
  // to (dst_val, dst_idx) at [dst_base, dst_base + k).  The source is either
  // a slice of the input row (indices synthesized as idx0 + j) or a (vals,
  // idx) buffer pair read from [0, count).
  const auto inner_select = [&](bool from_input, std::size_t in_base,
                                std::size_t idx0,
                                simgpu::DeviceBuffer<T> root_val,
                                simgpu::DeviceBuffer<std::uint32_t> root_idx,
                                std::size_t count,
                                simgpu::DeviceBuffer<T> win_val,
                                simgpu::DeviceBuffer<std::uint32_t> win_idx,
                                std::size_t dst_base) {
    std::uint64_t k_rem = k;
    std::uint64_t remaining = count;
    std::uint64_t out_written = 0;
    int cur = 0;

    for (int p = 0; p < num_passes; ++p) {
      const int start_bit = plan.passes[static_cast<std::size_t>(p)].start_bit;
      const bool scan_root = (p == 0);
      const auto src_val = scan_root ? root_val : cand_val[cur];
      const auto src_idx = scan_root ? root_idx : cand_idx[cur];
      const auto dst_val = cand_val[1 - cur];
      const auto dst_idx = cand_idx[1 - cur];
      const bool root_is_input = scan_root && from_input;

      {
        simgpu::LaunchConfig cfg{"Memset", 1, opt.block_threads, 1, n, k};
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          for (int d = 0; d < nb; ++d) {
            ctx.store<std::uint32_t>(ghist, static_cast<std::size_t>(d), 0);
          }
          ctx.store<std::uint32_t>(counters, 0, 0);
          ctx.store<std::uint32_t>(counters, 1, 0);
        });
      }

      const GridShape hshape = make_grid(1, remaining, dev.spec(),
                                         opt.block_threads,
                                         opt.items_per_block);
      {
        simgpu::LaunchConfig cfg{
            plan.passes[static_cast<std::size_t>(p)].hist_name,
            hshape.total_blocks(), opt.block_threads, 1, n, k};
        const int bpp = hshape.blocks_per_problem;
        const std::uint64_t rem = remaining;
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          auto shist =
              ctx.shared_zero<std::uint32_t>(static_cast<std::size_t>(nb));
          const auto [begin, end] = block_chunk(rem, bpp, ctx.block_idx());
          const auto bump = [&](std::size_t, T v) {
            ++shist[static_cast<std::size_t>(
                static_cast<std::uint32_t>(radix_key(v) >> start_bit) &
                mask)];
          };
          if (root_is_input) {
            ctx.for_each_elem(in, in_base + begin, end - begin, bump);
          } else {
            ctx.for_each_elem(src_val, begin, end - begin, bump);
          }
          ctx.ops(3 * (end - begin));
          ctx.sync();
          for (int d = 0; d < nb; ++d) {
            if (shist[static_cast<std::size_t>(d)] != 0) {
              ctx.atomic_add_scattered(ghist, static_cast<std::size_t>(d),
                                       shist[static_cast<std::size_t>(d)]);
            }
          }
          ctx.ops(static_cast<std::uint64_t>(nb));
        });
      }

      dev.copy_to_host(ghist, host_hist, "histogram");
      dev.host_compute("scan+find_digit",
                       static_cast<std::uint64_t>(3 * nb));
      std::uint64_t less = 0;
      std::uint32_t target_digit = 0;
      std::uint64_t target_count = 0;
      for (int d = 0; d < nb; ++d) {
        const std::uint32_t c = host_hist[static_cast<std::size_t>(d)];
        if (less + c >= k_rem) {
          target_digit = static_cast<std::uint32_t>(d);
          target_count = c;
          break;
        }
        less += c;
      }

      {
        simgpu::LaunchConfig cfg{
            plan.passes[static_cast<std::size_t>(p)].filter_name,
            hshape.total_blocks(), opt.block_threads, 1, n, k};
        const int bpp = hshape.blocks_per_problem;
        const std::uint64_t rem = remaining;
        const std::uint64_t out_cursor_base = dst_base + out_written;
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          const auto [begin, end] = block_chunk(rem, bpp, ctx.block_idx());
          const auto filter = [&](std::size_t, T v, std::uint32_t id) {
            const Bits key = radix_key(v);
            const std::uint32_t digit =
                static_cast<std::uint32_t>(key >> start_bit) & mask;
            if (digit < target_digit) {
              const std::uint32_t pos = ctx.atomic_add(counters, 0, 1u);
              ctx.store(win_val, out_cursor_base + pos, v);
              ctx.store(win_idx, out_cursor_base + pos, id);
            } else if (digit == target_digit) {
              const std::uint32_t pos = ctx.atomic_add(counters, 1, 1u);
              ctx.store(dst_val, pos, v);
              ctx.store(dst_idx, pos, id);
            }
          };
          if (root_is_input) {
            ctx.for_each_elem(
                in, in_base + begin, end - begin, [&](std::size_t j, T v) {
                  filter(begin + j, v,
                         static_cast<std::uint32_t>(idx0 + begin + j));
                });
          } else {
            scan_pairs(ctx, src_val, src_idx, 0, begin, end, filter);
          }
          ctx.ops(4 * (end - begin));
        });
      }

      out_written += less;
      k_rem -= less;
      remaining = target_count;
      cur = 1 - cur;

      dev.synchronize("host check");
      if (k_rem == remaining || p == num_passes - 1) {
        const std::uint64_t take = k_rem;
        const auto fin_val = cand_val[cur];
        const auto fin_idx = cand_idx[cur];
        const std::uint64_t out_cursor_base = dst_base + out_written;
        simgpu::LaunchConfig cfg{"StreamTake", 1, opt.block_threads, 1, n, k};
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          copy_pairs(ctx, fin_val, fin_idx, 0, win_val, win_idx,
                     out_cursor_base, take);
          ctx.ops(take);
        });
        dev.synchronize("final");
        out_written += take;
        break;
      }
    }
    if (out_written != k) {
      throw std::logic_error("stream_radix: inner select wrote " +
                             std::to_string(out_written) + " of " +
                             std::to_string(k) + " results");
    }
  };

  for (std::size_t prob = 0; prob < batch; ++prob) {
    int uside = 0;       // union side accumulating chunk winners
    std::size_t have = 0;  // winners currently staged on that side
    for (std::size_t c = 0; c < plan.chunks; ++c) {
      const auto [begin, end] =
          block_chunk(n, static_cast<int>(plan.chunks), static_cast<int>(c));
      inner_select(/*from_input=*/true, prob * n + begin, begin,
                   simgpu::DeviceBuffer<T>{}, {}, end - begin,
                   union_val[uside], union_idx[uside], have);
      have += k;
      if (have == 2 * k) {
        inner_select(/*from_input=*/false, 0, 0, union_val[uside],
                     union_idx[uside], 2 * k, union_val[1 - uside],
                     union_idx[1 - uside], 0);
        uside = 1 - uside;
        have = k;
      }
    }
    {
      const auto fv = union_val[uside];
      const auto fi = union_idx[uside];
      const std::uint64_t out_base = prob * k;
      simgpu::LaunchConfig cfg{"StreamEmit", 1, opt.block_threads, 1, n, k};
      simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
        copy_pairs(ctx, fv, fi, 0, out_vals, out_idx, out_base, k);
        ctx.ops(k);
      });
      dev.synchronize("emit");
    }
  }
}

}  // namespace topk
