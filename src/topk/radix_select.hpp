#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "simgpu/simd.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/common.hpp"
#include "topk/expected_cost.hpp"
#include "topk/radix_traits.hpp"

namespace topk {

/// Options for the host-managed RadixSelect baseline.
struct RadixSelectOptions {
  int digit_bits = 8;  ///< 8-bit digits / 256 buckets, as in DrTopK
  int block_threads = 256;
  std::size_t items_per_block = 16 * 1024;
};

/// Execution plan for RadixSelect: the per-pass kernel names (interned once
/// at plan time, so running a pass never builds a string) plus workspace
/// segments for the histogram, cursors, the candidate ping-pong buffers and
/// the host-side histogram staging.
template <typename T>
struct RadixSelectPlan {
  RadixSelectOptions opt;
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  int nb = 0;
  std::uint32_t mask = 0;
  int num_passes = 0;

  struct Pass {
    std::string_view hist_name;    // interned "CalculateOccurence(<p>)"
    std::string_view filter_name;  // interned "Filter(<p>)"
    int start_bit = 0;
  };
  std::vector<Pass> passes;

  std::size_t seg_hist = 0;
  std::size_t seg_counters = 0;
  std::size_t seg_val[2] = {0, 0};
  std::size_t seg_idx[2] = {0, 0};
  std::size_t seg_host_hist = 0;
};

/// Footprint contracts for the host-managed RadixSelect kernels.  The
/// per-pass kernels register under their bare family names; the histogram
/// bound is segment-sized because the bucket count is a digit-width tuning
/// option that must not be folded into a shape-generic contract.
inline void register_radix_select_footprints() {
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
      {"CalculateOccurence",
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
      {"Filter",
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

/// Candidates matching the K-th value's first one and two 8-bit digits per
/// unit of K on uniform (0, 1] keys (v ~ K/n, x = v / 2^e log-uniform).
/// Digit 0 is sign + seven exponent bits: the bucket spans an exponent
/// pair [2^e, 2^(e+2)), 3 * 2^e wide for x in [1, 4), so the mean is
/// 3 E[1/x] = 3 * (3/4) / ln 4 ~ 1.62.  Digit 1 is the last exponent bit
/// + seven mantissa bits: 2^e / 128 wide for x in [1, 2), mean
/// E[1/x] / 128 = 1 / (256 ln 2) ~ 0.0056.  Every later digit keeps 2^-8.
inline constexpr double kRadixFirstDigitSurvivors = 1.62;
inline constexpr double kRadixSecondDigitSurvivors = 0.0056;

/// Phase 1 of RadixSelect: validate, precompute the pass schedule (start
/// bits and interned kernel names) and lay out the workspace.
template <typename T>
RadixSelectPlan<T> radix_select_plan(const Shape& s,
                                     const simgpu::DeviceSpec& spec,
                                     const RadixSelectOptions& opt,
                                     simgpu::WorkspaceLayout& layout,
                                     simgpu::KernelSchedule* sched = nullptr) {
  using Traits = RadixTraits<T>;

  validate_problem(s.n, s.k, s.batch);

  RadixSelectPlan<T> p;
  p.opt = opt;
  p.batch = s.batch;
  p.n = s.n;
  p.k = s.k;
  p.nb = 1 << opt.digit_bits;
  p.mask = static_cast<std::uint32_t>(p.nb - 1);
  p.num_passes = (Traits::kBits + opt.digit_bits - 1) / opt.digit_bits;
  p.passes.reserve(static_cast<std::size_t>(p.num_passes));
  for (int pass = 0; pass < p.num_passes; ++pass) {
    typename RadixSelectPlan<T>::Pass pp;
    pp.start_bit = std::max(0, Traits::kBits - (pass + 1) * opt.digit_bits);
    pp.hist_name = simgpu::intern_name("CalculateOccurence(" +
                                       std::to_string(pass) + ")");
    pp.filter_name = simgpu::intern_name("Filter(" + std::to_string(pass) +
                                         ")");
    p.passes.push_back(pp);
  }

  p.seg_hist = layout.add<std::uint32_t>("radix digit histogram",
                                         static_cast<std::size_t>(p.nb));
  p.seg_counters = layout.add<std::uint32_t>("radix cursors", 2);
  p.seg_val[0] = layout.add<T>("radix cand vals 0", s.n);
  p.seg_val[1] = layout.add<T>("radix cand vals 1", s.n);
  p.seg_idx[0] = layout.add<std::uint32_t>("radix cand idx 0", s.n);
  p.seg_idx[1] = layout.add<std::uint32_t>("radix cand idx 1", s.n);
  p.seg_host_hist = layout.add<std::uint32_t>(
      "radix host hist", static_cast<std::size_t>(p.nb), /*host=*/true);

  if (sched != nullptr) {
    register_radix_select_footprints();
    // Nominal per-problem unrolling for the static auditor: every pass is
    // assumed to scan the full n candidates (the real pass count and
    // candidate counts shrink data-dependently, so this is the conservative
    // superset of any actual execution).
    //
    // Expected costs: the host loop runs every step once per problem
    // (repeat = batch).  Pass q scans the count[q] candidates matching the
    // digits picked so far.  A row stops early once every remaining
    // candidate is a result — after pass q-1 with probability
    // 1 / count[q] (the K-th key is the bucket's largest) — so pass q
    // repeats for the expected number of rows still running.
    const GridShape hshape =
        make_grid(1, s.n, spec, opt.block_threads, opt.items_per_block);
    const double nb = static_cast<double>(p.nb);
    const double pair = sizeof(T) + 4.0;
    std::vector<double> count(
        std::max<std::size_t>(3, static_cast<std::size_t>(p.num_passes) + 1),
        static_cast<double>(s.n));
    count[1] = std::min(count[0],
                        kRadixFirstDigitSurvivors * static_cast<double>(s.k));
    count[2] = std::min(count[1],
                        kRadixSecondDigitSurvivors * static_cast<double>(s.k));
    for (std::size_t q = 3; q < count.size(); ++q) {
      count[q] = count[q - 1] / static_cast<double>(p.nb);
    }
    const auto rows = static_cast<double>(s.batch);
    sched->priced = true;
    double running = rows;
    int cur = 0;
    for (int pass = 0; pass < p.num_passes; ++pass) {
      const auto& pp = p.passes[static_cast<std::size_t>(pass)];
      const auto q = static_cast<std::size_t>(pass);
      if (q >= 1) running *= 1.0 - 1.0 / std::max(1.0, count[q]);
      const GridShape pshape =
          make_grid(1, static_cast<std::size_t>(std::ceil(count[q])), spec,
                    opt.block_threads, opt.items_per_block);
      const double chunk =
          std::ceil(count[q] / pshape.blocks_per_problem);
      const double src_bytes = q == 0 ? sizeof(T) : pair;
      simgpu::record_launch(sched, "Memset", 1, opt.block_threads, 1, s.n,
                            s.k,
                            {{"hist", static_cast<int>(p.seg_hist)},
                             {"counters", static_cast<int>(p.seg_counters)}},
                            expected_stats(0.0, 4.0 * nb + 8.0, 0.0,
                                           4.0 * nb + 8.0, 0.0),
                            running);
      simgpu::KernelStats hist_cost = expected_stats(
          count[q] * sizeof(T), 0.0,
          3.0 * count[q] + nb * pshape.blocks_per_problem,
          chunk * sizeof(T), 3.0 * chunk + nb);
      hist_cost.grid_blocks = pshape.total_blocks();
      std::vector<simgpu::OperandBind> hist_binds;
      if (pass == 0) {
        hist_binds.push_back({"in", simgpu::kBindInput});
      } else {
        hist_binds.push_back({"src_val", static_cast<int>(p.seg_val[cur])});
      }
      hist_binds.push_back({"hist", static_cast<int>(p.seg_hist)});
      simgpu::record_launch(sched, pp.hist_name, hshape.total_blocks(),
                            opt.block_threads, 1, s.n, s.k,
                            std::move(hist_binds), hist_cost, running);
      simgpu::record_host(
          sched, "histogram",
          {{"hist", static_cast<int>(p.seg_hist), simgpu::Access::kRead},
           {"host_hist", static_cast<int>(p.seg_host_hist),
            simgpu::Access::kWrite}},
          {simgpu::HostCharge::Kind::kCopyToHost,
           static_cast<std::uint64_t>(4 * p.nb)},
          running);
      simgpu::record_host(sched, "scan+find_digit",
                          {{"host_hist", static_cast<int>(p.seg_host_hist),
                            simgpu::Access::kRead}},
                          {simgpu::HostCharge::Kind::kCompute,
                           static_cast<std::uint64_t>(3 * p.nb)},
                          running);
      std::vector<simgpu::OperandBind> filter_binds;
      if (pass == 0) {
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
      // Pass 0 emits everything below the K-th value's bucket; every pass
      // moves its bucket to the other candidate buffer, one atomic each.
      const double moved =
          count[q + 1] + (q == 0 ? static_cast<double>(s.k) : 0.0);
      simgpu::KernelStats filter_cost = expected_stats(
          count[q] * src_bytes, moved * pair, 4.0 * count[q],
          chunk * src_bytes + moved * pair / pshape.blocks_per_problem,
          4.0 * chunk);
      filter_cost.grid_blocks = pshape.total_blocks();
      filter_cost.atomic_ops = expected_count(moved);
      simgpu::record_launch(sched, pp.filter_name, hshape.total_blocks(),
                            opt.block_threads, 1, s.n, s.k,
                            std::move(filter_binds), filter_cost, running);
      simgpu::record_host(sched, "host check", {},
                          {simgpu::HostCharge::Kind::kSync, 0}, running);
      cur = 1 - cur;
    }
    simgpu::record_launch(sched, "CopyRemainder", 1, opt.block_threads, 1,
                          s.n, s.k,
                          {{"src_val", static_cast<int>(p.seg_val[cur])},
                           {"src_idx", static_cast<int>(p.seg_idx[cur])},
                           {"out_vals", simgpu::kBindOutVals},
                           {"out_idx", simgpu::kBindOutIdx}},
                          expected_stats(pair, pair, 1.0, 2.0 * pair, 1.0),
                          rows);
    simgpu::record_host(sched, "final", {},
                        {simgpu::HostCharge::Kind::kSync, 0}, rows);
  }
  return p;
}

/// Phase 2 of RadixSelect (Alabi et al. 2012 / DrTopK-style): the classic
/// parallel radix top-K where the *host* orchestrates every iteration.
///
/// Per radix pass the host launches a histogram kernel, copies the histogram
/// back over PCIe, computes the prefix sum and the target digit on the CPU,
/// then launches a filter kernel.  This host engagement — the per-iteration
/// D2H copies and the synchronizations they imply — is exactly the overhead
/// AIR Top-K's iteration-fused design eliminates (paper §3.1, Fig. 8).
///
/// Batched problems are processed one at a time, as the original
/// implementations do; nothing amortizes the per-iteration host round trips,
/// which is why the paper sees up to 574x speedups at batch size 100.
template <typename T>
void radix_select_run(simgpu::Device& dev, const RadixSelectPlan<T>& plan,
                      simgpu::Workspace& ws, simgpu::DeviceBuffer<T> in,
                      simgpu::DeviceBuffer<T> out_vals,
                      simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  using Traits = RadixTraits<T>;
  using Bits = typename Traits::Bits;

  const std::size_t batch = plan.batch;
  const std::size_t n = plan.n;
  const std::size_t k = plan.k;
  const RadixSelectOptions& opt = plan.opt;
  if (in.size() < batch * n) {
    throw std::invalid_argument("radix_select: input too small");
  }
  if (out_vals.size() < batch * k || out_idx.size() < batch * k) {
    throw std::invalid_argument("radix_select: output buffers too small");
  }

  const int nb = plan.nb;
  const std::uint32_t mask = plan.mask;
  const int num_passes = plan.num_passes;

  auto ghist = ws.get<std::uint32_t>(plan.seg_hist);
  auto counters = ws.get<std::uint32_t>(plan.seg_counters);
  simgpu::DeviceBuffer<T> cand_val[2] = {ws.get<T>(plan.seg_val[0]),
                                         ws.get<T>(plan.seg_val[1])};
  simgpu::DeviceBuffer<std::uint32_t> cand_idx[2] = {
      ws.get<std::uint32_t>(plan.seg_idx[0]),
      ws.get<std::uint32_t>(plan.seg_idx[1])};
  const std::span<std::uint32_t> host_hist(
      ws.host_ptr<std::uint32_t>(plan.seg_host_hist),
      static_cast<std::size_t>(nb));

  for (std::size_t prob = 0; prob < batch; ++prob) {
    std::uint64_t k_rem = k;
    std::uint64_t count = n;
    std::uint64_t out_base = prob * k;
    std::uint64_t out_written = 0;
    int cur = 0;  // candidate ping-pong side holding the current candidates

    for (int p = 0; p < num_passes; ++p) {
      const int start_bit = plan.passes[static_cast<std::size_t>(p)].start_bit;
      const bool from_input = (p == 0);
      const auto src_val = cand_val[cur];
      const auto src_idx = cand_idx[cur];
      const auto dst_val = cand_val[1 - cur];
      const auto dst_idx = cand_idx[1 - cur];

      // ---- kernel 0: cudaMemset analogue for histogram + cursors ---------
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

      // ---- kernel 1: histogram over the current candidates ---------------
      const GridShape hshape = make_grid(1, count, dev.spec(),
                                         opt.block_threads,
                                         opt.items_per_block);
      {
        simgpu::LaunchConfig cfg{
            plan.passes[static_cast<std::size_t>(p)].hist_name,
            hshape.total_blocks(), opt.block_threads, 1, n, k};
        const int bpp = hshape.blocks_per_problem;
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          auto shist = ctx.shared_zero<std::uint32_t>(
              static_cast<std::size_t>(nb));
          std::uint32_t* const hraw = shist.unchecked_data();
          const auto [begin, end] = block_chunk(count, bpp, ctx.block_idx());
          const int sb = start_bit;
          const std::uint32_t dm = mask;
          const auto scan_with = [&](auto&& bump) {
            if (from_input) {
              ctx.for_each_elem(in, prob * n + begin, end - begin, bump);
            } else {
              ctx.for_each_elem(src_val, begin, end - begin, bump);
            }
          };
          if (hraw != nullptr) {
            bool vectorized = false;
            if constexpr (std::is_same_v<T, float>) {
              // SIMD-ized digit histogram over the contiguous candidate
              // chunk (hraw != nullptr already implies the unsanitized tile
              // path).  Tile loads charge the same bytes as the scalar scan
              // and the bulk ctx.ops below is shared, so KernelStats stay
              // bit-identical; accumulation order does not matter.
              const auto base = from_input ? prob * n + begin : begin;
              std::size_t i = 0;
              const std::size_t total = end - begin;
              while (i < total) {
                const std::size_t c = std::min(simgpu::kTileElems, total - i);
                const std::span<const float> tv =
                    from_input ? ctx.load_tile(in, base + i, c)
                               : ctx.load_tile(src_val, base + i, c);
                simgpu::simd::histogram_digits_f32(
                    tv.data(), tv.size(),  // lint:allow-raw-access
                    0u, sb, dm, hraw);
                i += c;
              }
              vectorized = true;
            }
            if (!vectorized) {
              scan_with([&](std::size_t, T v) {
                ++hraw[static_cast<std::uint32_t>(Traits::to_radix(v) >> sb) &
                       dm];
              });
            }
          } else {
            scan_with([&](std::size_t, T v) {
              ++shist[static_cast<std::uint32_t>(Traits::to_radix(v) >> sb) &
                      dm];
            });
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

      // ---- host round trip: copy histogram, prefix-sum, pick digit -------
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

      // ---- kernel 2: filter (results out, candidates to the other buffer)
      {
        simgpu::LaunchConfig cfg{
            plan.passes[static_cast<std::size_t>(p)].filter_name,
            hshape.total_blocks(), opt.block_threads, 1, n, k};
        const int bpp = hshape.blocks_per_problem;
        const std::uint64_t out_cursor_base = out_base + out_written;
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          const auto [begin, end] = block_chunk(count, bpp, ctx.block_idx());
          const auto filter = [&](std::size_t, T v, std::uint32_t id) {
            const Bits key = Traits::to_radix(v);
            const std::uint32_t digit =
                static_cast<std::uint32_t>(key >> start_bit) & mask;
            if (digit < target_digit) {
              const std::uint32_t pos = ctx.atomic_add(counters, 0, 1u);
              ctx.store(out_vals, out_cursor_base + pos, v);
              ctx.store(out_idx, out_cursor_base + pos, id);
            } else if (digit == target_digit) {
              const std::uint32_t pos = ctx.atomic_add(counters, 1, 1u);
              ctx.store(dst_val, pos, v);
              ctx.store(dst_idx, pos, id);
            }
          };
          if (from_input) {
            ctx.for_each_elem(in, prob * n + begin, end - begin,
                              [&](std::size_t j, T v) {
                                filter(begin + j, v,
                                       static_cast<std::uint32_t>(begin + j));
                              });
          } else {
            scan_pairs(ctx, src_val, src_idx, 0, begin, end, filter);
          }
          ctx.ops(4 * (end - begin));
        });
      }

      out_written += less;
      k_rem -= less;
      count = target_count;
      cur = 1 - cur;

      // The host decides whether more passes are needed; it must synchronize
      // to know the device state is consistent before the next decision.
      dev.synchronize("host check");
      if (k_rem == count || p == num_passes - 1) {
        // All remaining candidates tie at the K-th value (or digits are
        // exhausted): copy the first k_rem of them to the output.
        const std::uint64_t take = k_rem;
        const auto fin_val = cand_val[cur];
        const auto fin_idx = cand_idx[cur];
        const std::uint64_t out_cursor_base = out_base + out_written;
        simgpu::LaunchConfig cfg{"CopyRemainder", 1, opt.block_threads, 1, n,
                                 k};
        simgpu::launch(dev, cfg, [=](simgpu::BlockCtx& ctx) {
          copy_pairs(ctx, fin_val, fin_idx, 0, out_vals, out_idx,
                     out_cursor_base, take);
          ctx.ops(take);
        });
        dev.synchronize("final");
        out_written += take;
        break;
      }
    }
    if (out_written != k) {
      throw std::logic_error("radix_select: wrote " +
                             std::to_string(out_written) + " of " +
                             std::to_string(k) + " results");
    }
  }
}

}  // namespace topk
