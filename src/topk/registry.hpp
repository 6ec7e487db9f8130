#pragma once

#include <array>
#include <cstddef>
#include <string_view>
#include <variant>

#include "core/topk.hpp"
#include "simgpu/simgpu.hpp"
#include "topk/air_topk.hpp"
#include "topk/bitonic_topk.hpp"
#include "topk/bucket_approx.hpp"
#include "topk/bucket_select.hpp"
#include "topk/fused_rowwise.hpp"
#include "topk/grid_select.hpp"
#include "topk/quick_select.hpp"
#include "topk/radix_select.hpp"
#include "topk/sample_select.hpp"
#include "topk/shard_merge.hpp"
#include "topk/sort_topk.hpp"
#include "topk/stream_radix.hpp"
#include "topk/warp_select.hpp"

/// Table-driven selector registry: every Algo resolves to one AlgoRow holding
/// its CLI key, display name, K ceiling, native largest-K capability, and the
/// two-phase plan/run thunks.  The four AIR ablation variants collapse onto
/// one plan/run pair parameterized by AirTopkOptions flags, and GridSelect's
/// thread-queue ablation onto grid_select with shared_queue = false.
///
/// Dispatch through the table never touches the heap: row lookup is a linear
/// scan of a constexpr array, the plan lives in a variant inside PlanImpl,
/// and the run thunks std::get the concrete plan out by type.
namespace topk {

/// The concrete, cacheable product of plan_select(): resolved algorithm,
/// shape, the workspace layout whose segments run_select() binds, and the
/// per-algorithm plan.  Owned behind ExecutionPlan's shared_ptr so copies of
/// the handle are cheap and the layout outlives every binding (Workspace
/// captures it by pointer).
struct PlanImpl {
  Algo algo = Algo::kAuto;  ///< concrete algorithm (kAuto resolved at plan)
  Shape shape;              ///< batch/n/k plus the requested order
  /// Largest-K requested on an algorithm without a native descending order:
  /// run_select() negates the input into `seg_negated` on the way in and
  /// negates the output values on the way out (paper WLOG smallest-K).
  bool negate = false;
  std::size_t seg_negated = 0;
  /// Key element type this plan executes (SelectOptions::dtype at plan
  /// time), and the carrier it resolved to: i32/u32 keys run the algorithm
  /// instantiated at uint32_t over monotone radix ordinals (largest-K wraps
  /// via bitwise complement); everything else runs the float instantiation.
  KeyType dtype = KeyType::kF32;
  bool u32_carrier = false;
  simgpu::WorkspaceLayout layout;
  /// Nominal kernel sequence recorded by the plan function, for the static
  /// plan auditor (src/verify) and predict_us.  Not consumed by run_select.
  simgpu::KernelSchedule schedule;
  std::variant<SortTopkPlan<float>, BitonicTopkPlan<float>,
               QuickSelectPlan<float>, BucketSelectPlan<float>,
               SampleSelectPlan<float>, RadixSelectPlan<float>,
               AirTopkPlan<float>, GridSelectPlan<float>,
               faiss_detail::FaissSelectPlan<float>, FusedRowwisePlan<float>,
               ShardMergePlan<float>, BucketApproxPlan<float>,
               StreamRadixPlan<float>, SortTopkPlan<std::uint32_t>,
               BitonicTopkPlan<std::uint32_t>, RadixSelectPlan<std::uint32_t>,
               AirTopkPlan<std::uint32_t>, GridSelectPlan<std::uint32_t>,
               faiss_detail::FaissSelectPlan<std::uint32_t>,
               StreamRadixPlan<std::uint32_t>>
      plan;
};

namespace registry_detail {

using PlanFn = void (*)(PlanImpl&, const simgpu::DeviceSpec&,
                        const SelectOptions&);
using RunFn = void (*)(simgpu::Device&, const PlanImpl&, simgpu::Workspace&,
                       simgpu::DeviceBuffer<float>, simgpu::DeviceBuffer<float>,
                       simgpu::DeviceBuffer<std::uint32_t>);
/// u32-carrier run thunk: the same algorithm instantiated at uint32_t, fed
/// radix ordinals.  nullptr on rows whose dtype mask excludes the integer
/// key types.
using RunFnU32 = void (*)(simgpu::Device&, const PlanImpl&, simgpu::Workspace&,
                          simgpu::DeviceBuffer<std::uint32_t>,
                          simgpu::DeviceBuffer<std::uint32_t>,
                          simgpu::DeviceBuffer<std::uint32_t>);

/// One AirTopkOptions for all four AIR table rows: the ablation variants are
/// flag deltas on the same planner, not separate implementations.
inline AirTopkOptions air_options_for(Algo algo, const SelectOptions& opt) {
  AirTopkOptions o;
  o.alpha = opt.alpha;
  o.greatest = opt.greatest;
  if (algo == Algo::kAirTopkNoAdaptive) o.adaptive = false;
  if (algo == Algo::kAirTopkNoEarlyStop) o.early_stopping = false;
  if (algo == Algo::kAirTopkFusedFilter) o.fuse_last_filter = true;
  return o;
}

template <typename T>
void plan_air_t(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                const SelectOptions& opt) {
  impl.plan = air_topk_plan<T>(impl.shape, spec,
                               air_options_for(impl.algo, opt), impl.layout,
                               &impl.schedule);
}

inline void plan_air(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                     const SelectOptions& opt) {
  impl.u32_carrier ? plan_air_t<std::uint32_t>(impl, spec, opt)
                   : plan_air_t<float>(impl, spec, opt);
}

inline void run_air(simgpu::Device& dev, const PlanImpl& impl,
                    simgpu::Workspace& ws, simgpu::DeviceBuffer<float> in,
                    simgpu::DeviceBuffer<float> out_vals,
                    simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  air_topk_run(dev, std::get<AirTopkPlan<float>>(impl.plan), ws, in, out_vals,
               out_idx);
}

inline void run_air_u32(simgpu::Device& dev, const PlanImpl& impl,
                        simgpu::Workspace& ws,
                        simgpu::DeviceBuffer<std::uint32_t> in,
                        simgpu::DeviceBuffer<std::uint32_t> out_vals,
                        simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  air_topk_run(dev, std::get<AirTopkPlan<std::uint32_t>>(impl.plan), ws, in,
               out_vals, out_idx);
}

template <typename T>
void plan_grid_t(PlanImpl& impl, const simgpu::DeviceSpec& spec) {
  GridSelectOptions o;
  o.shared_queue = impl.algo != Algo::kGridSelectThreadQueue;
  impl.plan =
      grid_select_plan<T>(impl.shape, spec, o, impl.layout, &impl.schedule);
}

inline void plan_grid(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                      const SelectOptions&) {
  impl.u32_carrier ? plan_grid_t<std::uint32_t>(impl, spec)
                   : plan_grid_t<float>(impl, spec);
}

inline void run_grid(simgpu::Device& dev, const PlanImpl& impl,
                     simgpu::Workspace& ws, simgpu::DeviceBuffer<float> in,
                     simgpu::DeviceBuffer<float> out_vals,
                     simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  grid_select_run(dev, std::get<GridSelectPlan<float>>(impl.plan), ws, in,
                  out_vals, out_idx);
}

inline void run_grid_u32(simgpu::Device& dev, const PlanImpl& impl,
                         simgpu::Workspace& ws,
                         simgpu::DeviceBuffer<std::uint32_t> in,
                         simgpu::DeviceBuffer<std::uint32_t> out_vals,
                         simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  grid_select_run(dev, std::get<GridSelectPlan<std::uint32_t>>(impl.plan), ws,
                  in, out_vals, out_idx);
}

template <typename T>
void plan_radix_t(PlanImpl& impl, const simgpu::DeviceSpec& spec) {
  impl.plan =
      radix_select_plan<T>(impl.shape, spec, {}, impl.layout, &impl.schedule);
}

inline void plan_radix(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                       const SelectOptions&) {
  impl.u32_carrier ? plan_radix_t<std::uint32_t>(impl, spec)
                   : plan_radix_t<float>(impl, spec);
}

inline void run_radix(simgpu::Device& dev, const PlanImpl& impl,
                      simgpu::Workspace& ws, simgpu::DeviceBuffer<float> in,
                      simgpu::DeviceBuffer<float> out_vals,
                      simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  radix_select_run(dev, std::get<RadixSelectPlan<float>>(impl.plan), ws, in,
                   out_vals, out_idx);
}

inline void run_radix_u32(simgpu::Device& dev, const PlanImpl& impl,
                          simgpu::Workspace& ws,
                          simgpu::DeviceBuffer<std::uint32_t> in,
                          simgpu::DeviceBuffer<std::uint32_t> out_vals,
                          simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  radix_select_run(dev, std::get<RadixSelectPlan<std::uint32_t>>(impl.plan),
                   ws, in, out_vals, out_idx);
}

template <typename T>
void plan_faiss_t(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                  int num_warps, std::string_view name) {
  impl.plan = faiss_detail::faiss_select_plan<T>(impl.shape, spec, num_warps,
                                                 name, impl.layout,
                                                 &impl.schedule);
}

inline void plan_warp(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                      const SelectOptions&) {
  impl.u32_carrier
      ? plan_faiss_t<std::uint32_t>(impl, spec, /*num_warps=*/1, "WarpSelect")
      : plan_faiss_t<float>(impl, spec, /*num_warps=*/1, "WarpSelect");
}

inline void plan_block(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                       const SelectOptions&) {
  impl.u32_carrier
      ? plan_faiss_t<std::uint32_t>(impl, spec, /*num_warps=*/4, "BlockSelect")
      : plan_faiss_t<float>(impl, spec, /*num_warps=*/4, "BlockSelect");
}

inline void run_faiss(simgpu::Device& dev, const PlanImpl& impl,
                      simgpu::Workspace& ws, simgpu::DeviceBuffer<float> in,
                      simgpu::DeviceBuffer<float> out_vals,
                      simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  faiss_detail::faiss_select_run(dev, std::get<faiss_detail::FaissSelectPlan<float>>(impl.plan), ws, in,
                   out_vals, out_idx);
}

inline void run_faiss_u32(simgpu::Device& dev, const PlanImpl& impl,
                          simgpu::Workspace& ws,
                          simgpu::DeviceBuffer<std::uint32_t> in,
                          simgpu::DeviceBuffer<std::uint32_t> out_vals,
                          simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  faiss_detail::faiss_select_run(
      dev, std::get<faiss_detail::FaissSelectPlan<std::uint32_t>>(impl.plan),
      ws, in, out_vals, out_idx);
}

template <typename T>
void plan_bitonic_t(PlanImpl& impl, const simgpu::DeviceSpec& spec) {
  impl.plan =
      bitonic_topk_plan<T>(impl.shape, spec, {}, impl.layout, &impl.schedule);
}

inline void plan_bitonic(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                         const SelectOptions&) {
  impl.u32_carrier ? plan_bitonic_t<std::uint32_t>(impl, spec)
                   : plan_bitonic_t<float>(impl, spec);
}

inline void run_bitonic(simgpu::Device& dev, const PlanImpl& impl,
                        simgpu::Workspace& ws, simgpu::DeviceBuffer<float> in,
                        simgpu::DeviceBuffer<float> out_vals,
                        simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  bitonic_topk_run(dev, std::get<BitonicTopkPlan<float>>(impl.plan), ws, in,
                   out_vals, out_idx);
}

inline void run_bitonic_u32(simgpu::Device& dev, const PlanImpl& impl,
                            simgpu::Workspace& ws,
                            simgpu::DeviceBuffer<std::uint32_t> in,
                            simgpu::DeviceBuffer<std::uint32_t> out_vals,
                            simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  bitonic_topk_run(dev, std::get<BitonicTopkPlan<std::uint32_t>>(impl.plan),
                   ws, in, out_vals, out_idx);
}

inline void plan_quick(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                       const SelectOptions&) {
  impl.plan = quick_select_plan<float>(impl.shape, spec, {}, impl.layout,
                                       &impl.schedule);
}

inline void run_quick(simgpu::Device& dev, const PlanImpl& impl,
                      simgpu::Workspace& ws, simgpu::DeviceBuffer<float> in,
                      simgpu::DeviceBuffer<float> out_vals,
                      simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  quick_select_run(dev, std::get<QuickSelectPlan<float>>(impl.plan), ws, in,
                   out_vals, out_idx);
}

inline void plan_bucket(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                        const SelectOptions&) {
  impl.plan = bucket_select_plan<float>(impl.shape, spec, {}, impl.layout,
                                        &impl.schedule);
}

inline void run_bucket(simgpu::Device& dev, const PlanImpl& impl,
                       simgpu::Workspace& ws, simgpu::DeviceBuffer<float> in,
                       simgpu::DeviceBuffer<float> out_vals,
                       simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  bucket_select_run(dev, std::get<BucketSelectPlan<float>>(impl.plan), ws, in,
                    out_vals, out_idx);
}

inline void plan_sample(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                        const SelectOptions&) {
  impl.plan = sample_select_plan<float>(impl.shape, spec, {}, impl.layout,
                                        &impl.schedule);
}

inline void run_sample(simgpu::Device& dev, const PlanImpl& impl,
                       simgpu::Workspace& ws, simgpu::DeviceBuffer<float> in,
                       simgpu::DeviceBuffer<float> out_vals,
                       simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  sample_select_run(dev, std::get<SampleSelectPlan<float>>(impl.plan), ws, in,
                    out_vals, out_idx);
}

inline void plan_sort(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                      const SelectOptions&) {
  if (impl.u32_carrier) {
    impl.plan = sort_topk_plan<std::uint32_t>(impl.shape, spec, {},
                                              impl.layout, &impl.schedule);
  } else {
    impl.plan = sort_topk_plan<float>(impl.shape, spec, {}, impl.layout,
                                      &impl.schedule);
  }
}

inline void run_sort(simgpu::Device& dev, const PlanImpl& impl,
                     simgpu::Workspace& ws, simgpu::DeviceBuffer<float> in,
                     simgpu::DeviceBuffer<float> out_vals,
                     simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  sort_topk_run(dev, std::get<SortTopkPlan<float>>(impl.plan), ws, in,
                out_vals, out_idx);
}

inline void run_sort_u32(simgpu::Device& dev, const PlanImpl& impl,
                         simgpu::Workspace& ws,
                         simgpu::DeviceBuffer<std::uint32_t> in,
                         simgpu::DeviceBuffer<std::uint32_t> out_vals,
                         simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  sort_topk_run(dev, std::get<SortTopkPlan<std::uint32_t>>(impl.plan), ws, in,
                out_vals, out_idx);
}

inline void plan_stream_radix(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                              const SelectOptions&) {
  if (impl.u32_carrier) {
    impl.plan = stream_radix_plan<std::uint32_t>(impl.shape, spec, {},
                                                 impl.layout, &impl.schedule);
  } else {
    impl.plan = stream_radix_plan<float>(impl.shape, spec, {}, impl.layout,
                                         &impl.schedule);
  }
}

inline void run_stream_radix(simgpu::Device& dev, const PlanImpl& impl,
                             simgpu::Workspace& ws,
                             simgpu::DeviceBuffer<float> in,
                             simgpu::DeviceBuffer<float> out_vals,
                             simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  stream_radix_run(dev, std::get<StreamRadixPlan<float>>(impl.plan), ws, in,
                   out_vals, out_idx);
}

inline void run_stream_radix_u32(simgpu::Device& dev, const PlanImpl& impl,
                                 simgpu::Workspace& ws,
                                 simgpu::DeviceBuffer<std::uint32_t> in,
                                 simgpu::DeviceBuffer<std::uint32_t> out_vals,
                                 simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  stream_radix_run(dev, std::get<StreamRadixPlan<std::uint32_t>>(impl.plan),
                   ws, in, out_vals, out_idx);
}

inline void plan_fused_warp(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                            const SelectOptions&) {
  impl.plan = fused_rowwise_plan<float>(impl.shape, spec, {},
                                        /*block_variant=*/false, impl.layout,
                                        &impl.schedule);
}

inline void plan_fused_block(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                             const SelectOptions&) {
  impl.plan = fused_rowwise_plan<float>(impl.shape, spec, {},
                                        /*block_variant=*/true, impl.layout,
                                        &impl.schedule);
}

inline void run_fused(simgpu::Device& dev, const PlanImpl& impl,
                      simgpu::Workspace& ws, simgpu::DeviceBuffer<float> in,
                      simgpu::DeviceBuffer<float> out_vals,
                      simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  fused_rowwise_run(dev, std::get<FusedRowwisePlan<float>>(impl.plan), ws, in,
                    out_vals, out_idx);
}

inline void plan_shard_merge(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                             const SelectOptions&) {
  impl.plan = shard_merge_plan<float>(impl.shape, spec, {}, impl.layout,
                                      &impl.schedule);
}

inline void run_shard_merge(simgpu::Device& dev, const PlanImpl& impl,
                            simgpu::Workspace& ws,
                            simgpu::DeviceBuffer<float> in,
                            simgpu::DeviceBuffer<float> out_vals,
                            simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  shard_merge_run(dev, std::get<ShardMergePlan<float>>(impl.plan), ws, in,
                  out_vals, out_idx);
}

inline void plan_bucket_approx(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                               const SelectOptions& opt) {
  BucketApproxOptions o;
  o.recall_target = opt.recall_target;
  impl.plan = bucket_approx_plan<float>(impl.shape, spec, o, impl.layout,
                                        &impl.schedule);
}

inline void run_bucket_approx(simgpu::Device& dev, const PlanImpl& impl,
                              simgpu::Workspace& ws,
                              simgpu::DeviceBuffer<float> in,
                              simgpu::DeviceBuffer<float> out_vals,
                              simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  bucket_approx_run(dev, std::get<BucketApproxPlan<float>>(impl.plan), ws, in,
                    out_vals, out_idx);
}

}  // namespace registry_detail

/// One registry row per Algo value.  `k_limit` of 0 means no ceiling below n
/// (paper §2.2 gives the partial-sorting methods their hard limits).  kAuto
/// has no thunks: it is resolved to a concrete algorithm before lookup.
///
/// `dtypes` is the KeyType bitmask the row accepts (key_type_bit): the
/// radix/comparison kernels that are fully carrier-generic declare all five
/// key types and supply `run_u32`; the float-arithmetic tiers (pivots,
/// bucket math, packed-u64 SIMD paths) stay float-family.  `streaming` rows
/// bound their scratch independently of n and are exempt from the device's
/// max_select_elems single-select capacity check.
struct AlgoRow {
  Algo algo;
  std::string_view key;   ///< CLI/parse key (algo_key / parse_algo)
  std::string_view name;  ///< human-readable display name (algo_name)
  std::size_t k_limit;
  bool native_greatest;
  registry_detail::PlanFn plan;
  registry_detail::RunFn run;
  registry_detail::RunFnU32 run_u32;
  unsigned dtypes;  ///< supported-KeyType bitmask (key_type_bit)
  bool streaming;   ///< scratch bounded independent of n; no n capacity cap
};

inline constexpr std::array<AlgoRow, 20> kAlgoTable = {{
    {Algo::kAirTopk, "air", "AIR Top-K", 0, true, &registry_detail::plan_air,
     &registry_detail::run_air, &registry_detail::run_air_u32, kDtypesAll,
     false},
    {Algo::kGridSelect, "grid", "GridSelect", 2048, false,
     &registry_detail::plan_grid, &registry_detail::run_grid,
     &registry_detail::run_grid_u32, kDtypesAll, false},
    {Algo::kRadixSelect, "radixselect", "RadixSelect", 0, false,
     &registry_detail::plan_radix, &registry_detail::run_radix,
     &registry_detail::run_radix_u32, kDtypesAll, false},
    {Algo::kWarpSelect, "warp", "WarpSelect", 2048, false,
     &registry_detail::plan_warp, &registry_detail::run_faiss,
     &registry_detail::run_faiss_u32, kDtypesAll, false},
    {Algo::kBlockSelect, "block", "BlockSelect", 2048, false,
     &registry_detail::plan_block, &registry_detail::run_faiss,
     &registry_detail::run_faiss_u32, kDtypesAll, false},
    {Algo::kBitonicTopk, "bitonic", "Bitonic Top-K", 256, false,
     &registry_detail::plan_bitonic, &registry_detail::run_bitonic,
     &registry_detail::run_bitonic_u32, kDtypesAll, false},
    {Algo::kQuickSelect, "quick", "QuickSelect", 0, false,
     &registry_detail::plan_quick, &registry_detail::run_quick, nullptr,
     kDtypesFloatFamily, false},
    {Algo::kBucketSelect, "bucket", "BucketSelect", 0, false,
     &registry_detail::plan_bucket, &registry_detail::run_bucket, nullptr,
     kDtypesFloatFamily, false},
    {Algo::kSampleSelect, "sample", "SampleSelect", 0, false,
     &registry_detail::plan_sample, &registry_detail::run_sample, nullptr,
     kDtypesFloatFamily, false},
    {Algo::kSort, "sort", "Sort", 0, false, &registry_detail::plan_sort,
     &registry_detail::run_sort, &registry_detail::run_sort_u32, kDtypesAll,
     false},
    {Algo::kAirTopkNoAdaptive, "air-noadaptive", "AIR Top-K (no adaptive)", 0,
     true, &registry_detail::plan_air, &registry_detail::run_air,
     &registry_detail::run_air_u32, kDtypesAll, false},
    {Algo::kAirTopkNoEarlyStop, "air-noearlystop", "AIR Top-K (no early stop)",
     0, true, &registry_detail::plan_air, &registry_detail::run_air,
     &registry_detail::run_air_u32, kDtypesAll, false},
    {Algo::kAirTopkFusedFilter, "air-fusedfilter",
     "AIR Top-K (fused last filter)", 0, true, &registry_detail::plan_air,
     &registry_detail::run_air, &registry_detail::run_air_u32, kDtypesAll,
     false},
    {Algo::kGridSelectThreadQueue, "grid-threadqueue",
     "GridSelect (thread queues)", 2048, false, &registry_detail::plan_grid,
     &registry_detail::run_grid, &registry_detail::run_grid_u32, kDtypesAll,
     false},
    {Algo::kFusedWarpRowwise, "fused-warp", "Fused row-wise (warp/row)", 2048,
     false, &registry_detail::plan_fused_warp, &registry_detail::run_fused,
     nullptr, kDtypesFloatFamily, false},
    {Algo::kFusedBlockRowwise, "fused-block", "Fused row-wise (block/row)",
     2048, false, &registry_detail::plan_fused_block,
     &registry_detail::run_fused, nullptr, kDtypesFloatFamily, false},
    {Algo::kShardMerge, "shard-merge", "Shard candidate merge", 2048, false,
     &registry_detail::plan_shard_merge, &registry_detail::run_shard_merge,
     nullptr, kDtypesFloatFamily, false},
    {Algo::kBucketApprox, "bucket-approx", "Bucketed approximate Top-K", 2048,
     false, &registry_detail::plan_bucket_approx,
     &registry_detail::run_bucket_approx, nullptr, kDtypesFloatFamily, false},
    {Algo::kStreamRadix, "stream-radix", "Streaming radix select", kMaxK,
     true, &registry_detail::plan_stream_radix,
     &registry_detail::run_stream_radix,
     &registry_detail::run_stream_radix_u32, kDtypesAll, true},
    {Algo::kAuto, "auto", "Auto", 0, false, nullptr, nullptr, nullptr,
     kDtypesAll, false},
}};

/// The registry row for `algo`, or nullptr for values outside the enum.
/// Linear scan of the constexpr rows: no hashing, no heap, and the table
/// order matches the enum so the common case exits immediately.
[[nodiscard]] inline const AlgoRow* find_algo_row(Algo algo) {
  const auto idx = static_cast<std::size_t>(algo);
  if (idx < kAlgoTable.size() && kAlgoTable[idx].algo == algo) {
    return &kAlgoTable[idx];
  }
  for (const AlgoRow& row : kAlgoTable) {
    if (row.algo == algo) return &row;
  }
  return nullptr;
}

}  // namespace topk
