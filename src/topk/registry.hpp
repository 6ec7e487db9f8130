#pragma once

#include <array>
#include <cstddef>
#include <stdexcept>
#include <string_view>
#include <type_traits>
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
/// its CLI key, display name, K ceiling, native largest-K capability, dtype
/// mask and plan thunk.  A plan thunk calls its family's `*_plan` and stores
/// the result in PlanImpl::plan; run_plan() then visits that variant and
/// calls the alternative's `*_run`, so one generic run serves every row on
/// both carriers.  Rows that differ only in options share a plan family: the
/// four AIR variants are AirTopkOptions flag deltas, GridSelect's
/// thread-queue ablation is shared_queue = false, WarpSelect/BlockSelect and
/// the two fused row-wise rows differ in warps per problem.
///
/// Dispatch through the table never touches the heap: row lookup indexes a
/// constexpr array, and the plan lives in a variant inside PlanImpl.
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

/// The one place a plan thunk picks its carrier: `plan` is invoked with
/// std::type_identity<uint32_t> for i32/u32 plans and <float> otherwise.
/// plan_select sets u32_carrier only when the row's dtype mask admits
/// integer keys, so float-family rows never call this and instantiate their
/// family at float alone.
template <typename PlanOnCarrier>
void on_carrier(const PlanImpl& impl, PlanOnCarrier&& plan) {
  if (impl.u32_carrier) {
    plan(std::type_identity<std::uint32_t>{});
  } else {
    plan(std::type_identity<float>{});
  }
}

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

inline void plan_air(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                     const SelectOptions& opt) {
  on_carrier(impl, [&]<typename T>(std::type_identity<T>) {
    impl.plan = air_topk_plan<T>(impl.shape, spec,
                                 air_options_for(impl.algo, opt), impl.layout,
                                 &impl.schedule);
  });
}

inline void plan_grid(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                      const SelectOptions&) {
  GridSelectOptions o;
  o.shared_queue = impl.algo != Algo::kGridSelectThreadQueue;
  on_carrier(impl, [&]<typename T>(std::type_identity<T>) {
    impl.plan =
        grid_select_plan<T>(impl.shape, spec, o, impl.layout, &impl.schedule);
  });
}

inline void plan_radix(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                       const SelectOptions&) {
  on_carrier(impl, [&]<typename T>(std::type_identity<T>) {
    impl.plan =
        radix_select_plan<T>(impl.shape, spec, {}, impl.layout, &impl.schedule);
  });
}

/// WarpSelect is one warp per problem, BlockSelect four.
inline void plan_faiss(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                       const SelectOptions&) {
  const bool block = impl.algo == Algo::kBlockSelect;
  on_carrier(impl, [&]<typename T>(std::type_identity<T>) {
    impl.plan = faiss_detail::faiss_select_plan<T>(
        impl.shape, spec, block ? 4 : 1, block ? "BlockSelect" : "WarpSelect",
        impl.layout, &impl.schedule);
  });
}

inline void plan_bitonic(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                         const SelectOptions&) {
  on_carrier(impl, [&]<typename T>(std::type_identity<T>) {
    impl.plan =
        bitonic_topk_plan<T>(impl.shape, spec, {}, impl.layout, &impl.schedule);
  });
}

inline void plan_sort(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                      const SelectOptions&) {
  on_carrier(impl, [&]<typename T>(std::type_identity<T>) {
    impl.plan =
        sort_topk_plan<T>(impl.shape, spec, {}, impl.layout, &impl.schedule);
  });
}

inline void plan_stream_radix(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                              const SelectOptions&) {
  on_carrier(impl, [&]<typename T>(std::type_identity<T>) {
    impl.plan =
        stream_radix_plan<T>(impl.shape, spec, {}, impl.layout, &impl.schedule);
  });
}

inline void plan_quick(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                       const SelectOptions&) {
  impl.plan = quick_select_plan<float>(impl.shape, spec, {}, impl.layout,
                                       &impl.schedule);
}

inline void plan_bucket(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                        const SelectOptions&) {
  impl.plan = bucket_select_plan<float>(impl.shape, spec, {}, impl.layout,
                                        &impl.schedule);
}

inline void plan_sample(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                        const SelectOptions&) {
  impl.plan = sample_select_plan<float>(impl.shape, spec, {}, impl.layout,
                                        &impl.schedule);
}

inline void plan_fused(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                       const SelectOptions&) {
  impl.plan = fused_rowwise_plan<float>(
      impl.shape, spec, {},
      /*block_variant=*/impl.algo == Algo::kFusedBlockRowwise, impl.layout,
      &impl.schedule);
}

inline void plan_shard_merge(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                             const SelectOptions&) {
  impl.plan = shard_merge_plan<float>(impl.shape, spec, {}, impl.layout,
                                      &impl.schedule);
}

inline void plan_bucket_approx(PlanImpl& impl, const simgpu::DeviceSpec& spec,
                               const SelectOptions& opt) {
  BucketApproxOptions o;
  o.recall_target = opt.recall_target;
  impl.plan = bucket_approx_plan<float>(impl.shape, spec, o, impl.layout,
                                        &impl.schedule);
}

/// kRun<Plan>: the phase-2 function of each PlanImpl::plan alternative.
template <typename Plan>
inline constexpr auto kRun = nullptr;
template <typename T>
inline constexpr auto kRun<AirTopkPlan<T>> = &air_topk_run<T>;
template <typename T>
inline constexpr auto kRun<GridSelectPlan<T>> = &grid_select_run<T>;
template <typename T>
inline constexpr auto kRun<RadixSelectPlan<T>> = &radix_select_run<T>;
template <typename T>
inline constexpr auto kRun<faiss_detail::FaissSelectPlan<T>> =
    &faiss_detail::faiss_select_run<T>;
template <typename T>
inline constexpr auto kRun<BitonicTopkPlan<T>> = &bitonic_topk_run<T>;
template <typename T>
inline constexpr auto kRun<SortTopkPlan<T>> = &sort_topk_run<T>;
template <typename T>
inline constexpr auto kRun<StreamRadixPlan<T>> = &stream_radix_run<T>;
template <typename T>
inline constexpr auto kRun<QuickSelectPlan<T>> = &quick_select_run<T>;
template <typename T>
inline constexpr auto kRun<BucketSelectPlan<T>> = &bucket_select_run<T>;
template <typename T>
inline constexpr auto kRun<SampleSelectPlan<T>> = &sample_select_run<T>;
template <typename T>
inline constexpr auto kRun<FusedRowwisePlan<T>> = &fused_rowwise_run<T>;
template <typename T>
inline constexpr auto kRun<ShardMergePlan<T>> = &shard_merge_run<T>;
template <typename T>
inline constexpr auto kRun<BucketApproxPlan<T>> = &bucket_approx_run<T>;

}  // namespace registry_detail

/// The generic run: visit the plan variant and call that alternative's
/// `*_run` on buffers of carrier `Carrier`.  A plan whose carrier is not
/// `Carrier` is a std::logic_error (run_select rejects the mismatch up
/// front, so reaching it means the plan and its dtype disagree).
template <typename Carrier>
void run_plan(simgpu::Device& dev, const PlanImpl& impl,
              simgpu::Workspace& ws, simgpu::DeviceBuffer<Carrier> in,
              simgpu::DeviceBuffer<Carrier> out_vals,
              simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  std::visit(
      [&]<template <typename> class Plan, typename T>(const Plan<T>& plan) {
        if constexpr (std::is_same_v<T, Carrier>) {
          registry_detail::kRun<Plan<T>>(dev, plan, ws, in, out_vals,
                                         out_idx);
        } else {
          throw std::logic_error(
              "run_plan: the plan's carrier differs from the buffer type");
        }
      },
      impl.plan);
}

/// One registry row per Algo value.  `k_limit` of 0 means no ceiling below n
/// (paper §2.2 gives the partial-sorting methods their hard limits).  kAuto
/// has no plan thunk: it is resolved to a concrete algorithm before lookup.
///
/// `dtypes` is the KeyType bitmask the row accepts (key_type_bit), and the
/// only record of which rows take i32/u32 keys: the radix/comparison kernels
/// that are fully carrier-generic declare all five key types and plan
/// through on_carrier; the float-arithmetic tiers (pivots, bucket math,
/// packed-u64 SIMD paths) stay float-family.  `streaming` rows bound their
/// scratch independently of n and are exempt from the device's
/// max_select_elems single-select capacity check.
struct AlgoRow {
  Algo algo;
  std::string_view key;   ///< CLI/parse key (algo_key / parse_algo)
  std::string_view name;  ///< human-readable display name (algo_name)
  std::size_t k_limit;
  bool native_greatest;
  registry_detail::PlanFn plan;
  unsigned dtypes;  ///< supported-KeyType bitmask (key_type_bit)
  bool streaming;   ///< scratch bounded independent of n; no n capacity cap
};

inline constexpr std::array<AlgoRow, 20> kAlgoTable = {{
    {Algo::kAirTopk, "air", "AIR Top-K", 0, true, &registry_detail::plan_air,
     kDtypesAll, false},
    {Algo::kGridSelect, "grid", "GridSelect", 2048, false,
     &registry_detail::plan_grid, kDtypesAll, false},
    {Algo::kRadixSelect, "radixselect", "RadixSelect", 0, false,
     &registry_detail::plan_radix, kDtypesAll, false},
    {Algo::kWarpSelect, "warp", "WarpSelect", 2048, false,
     &registry_detail::plan_faiss, kDtypesAll, false},
    {Algo::kBlockSelect, "block", "BlockSelect", 2048, false,
     &registry_detail::plan_faiss, kDtypesAll, false},
    {Algo::kBitonicTopk, "bitonic", "Bitonic Top-K", 256, false,
     &registry_detail::plan_bitonic, kDtypesAll, false},
    {Algo::kQuickSelect, "quick", "QuickSelect", 0, false,
     &registry_detail::plan_quick, kDtypesFloatFamily, false},
    {Algo::kBucketSelect, "bucket", "BucketSelect", 0, false,
     &registry_detail::plan_bucket, kDtypesFloatFamily, false},
    {Algo::kSampleSelect, "sample", "SampleSelect", 0, false,
     &registry_detail::plan_sample, kDtypesFloatFamily, false},
    {Algo::kSort, "sort", "Sort", 0, false, &registry_detail::plan_sort,
     kDtypesAll, false},
    {Algo::kAirTopkNoAdaptive, "air-noadaptive", "AIR Top-K (no adaptive)", 0,
     true, &registry_detail::plan_air, kDtypesAll, false},
    {Algo::kAirTopkNoEarlyStop, "air-noearlystop", "AIR Top-K (no early stop)",
     0, true, &registry_detail::plan_air, kDtypesAll, false},
    {Algo::kAirTopkFusedFilter, "air-fusedfilter",
     "AIR Top-K (fused last filter)", 0, true, &registry_detail::plan_air,
     kDtypesAll, false},
    {Algo::kGridSelectThreadQueue, "grid-threadqueue",
     "GridSelect (thread queues)", 2048, false, &registry_detail::plan_grid,
     kDtypesAll, false},
    {Algo::kFusedWarpRowwise, "fused-warp", "Fused row-wise (warp/row)", 2048,
     false, &registry_detail::plan_fused, kDtypesFloatFamily, false},
    {Algo::kFusedBlockRowwise, "fused-block", "Fused row-wise (block/row)",
     2048, false, &registry_detail::plan_fused, kDtypesFloatFamily, false},
    {Algo::kShardMerge, "shard-merge", "Shard candidate merge", 2048, false,
     &registry_detail::plan_shard_merge, kDtypesFloatFamily, false},
    {Algo::kBucketApprox, "bucket-approx", "Bucketed approximate Top-K", 2048,
     false, &registry_detail::plan_bucket_approx, kDtypesFloatFamily, false},
    {Algo::kStreamRadix, "stream-radix", "Streaming radix select", kMaxK,
     true, &registry_detail::plan_stream_radix, kDtypesAll, true},
    {Algo::kAuto, "auto", "Auto", 0, false, nullptr, kDtypesAll, false},
}};

static_assert(
    [] {
      for (std::size_t i = 0; i < kAlgoTable.size(); ++i) {
        if (kAlgoTable[i].algo != static_cast<Algo>(i)) return false;
      }
      return true;
    }(),
    "kAlgoTable row i must hold Algo(i): find_algo_row indexes by the enum");

/// The registry row for `algo`, or nullptr for values outside the enum.
[[nodiscard]] inline const AlgoRow* find_algo_row(Algo algo) {
  const auto idx = static_cast<std::size_t>(algo);
  return idx < kAlgoTable.size() ? &kAlgoTable[idx] : nullptr;
}

}  // namespace topk
