#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/topk.hpp"
#include "simgpu/simgpu.hpp"

/// Sharded multi-device top-K: execute one query whose N exceeds any single
/// device by splitting the input across a pool of simulated devices, running
/// the ordinary per-shard selection through the plan/run layer, and reducing
/// the per-shard candidate lists with a hierarchical device-side merge
/// (Algo::kShardMerge).
///
/// Execution shape (one query, S shards, D devices):
///
///   host input ──split──> shard 0..S-1  (device s % D, round-robin rounds)
///        per shard: cached ExecutionPlan + pooled Workspace -> top-k
///        candidates gathered D2H (recorded), indices rebased to the query
///   candidates ──H2D──> merge device ──ShardMerge plan──> exact top-k
///
/// Largest-K is handled ONCE at the coordinator boundary: the input is
/// negated while staging shards and the final values are negated back, so
/// neither the per-shard plans nor the merge ever see a negate wrap of
/// their own (no double negation, no per-shard wrap overhead).
namespace topk::shard {

/// Pool + query configuration for a Coordinator.
struct ShardConfig {
  /// Devices in the pool (>= 1).  The merge runs on device 0.
  std::size_t devices = 4;
  /// Spec of every pooled device.  `max_select_elems` is the per-device
  /// ceiling that forces sharding; cap it low (e.g. 1 << 22) to scale out.
  simgpu::DeviceSpec device_spec{};
  /// Shard count; 0 picks recommend_shards() per query.  Clamped so every
  /// shard fits one device and still holds at least k keys.
  std::size_t shards = 0;
  /// Per-shard selection algorithm (kAuto recommends at the per-shard
  /// shape via WorkloadHints::shards).
  Algo algo = Algo::kAuto;
  /// greatest / sorted / alpha, applied at the coordinator boundary.
  SelectOptions options{};
};

/// Modeled-time breakdown of one sharded query (CostModel over each pooled
/// device's event log; devices run concurrently, so the selection phase
/// costs the busiest device, not the sum).
struct ShardTiming {
  double select_us = 0.0;  ///< busiest device: per-shard selection kernels
  double gather_us = 0.0;  ///< busiest device: candidate D2H copies
  double merge_us = 0.0;   ///< merge device: candidate H2D + merge kernels
  double output_us = 0.0;  ///< final result D2H (every path pays this)
  double total_us = 0.0;   ///< sum of the four phases
};

/// Result of one sharded query.
struct ShardedResult {
  SelectResult topk;          ///< indices into the original host input
  Algo shard_algo = Algo::kAuto;  ///< concrete per-shard algorithm
  std::size_t shards = 0;
  std::size_t devices = 0;    ///< devices actually used (min(shards, pool))
  ShardTiming timing;
  std::vector<double> shard_us;  ///< modeled per-shard selection time
};

/// The plans one sharded query executes, labeled for audit tooling:
/// one per distinct shard shape (block_chunk yields at most two) plus the
/// cross-shard merge plan when shards > 1.  `topk_audit --sharded` walks
/// these through the same static schedule auditor as single-device plans.
struct ShardedPlan {
  std::size_t shards = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  Algo shard_algo = Algo::kAuto;
  std::vector<std::pair<std::string, ExecutionPlan>> plans;
};

/// Host-side coordinator owning the device pool, per-device pooled
/// workspaces, and the per-shape plan caches.  Single-driver contract: one
/// thread drives a Coordinator (matching simgpu::Device).
class Coordinator {
 public:
  explicit Coordinator(const ShardConfig& cfg);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Execute one top-k query over `data`, sharded per the config.  `shards`
  /// / `algo` override the config for this query when non-zero / non-kAuto
  /// (the serving layer forwards per-request WorkloadHints through them).
  ShardedResult select(std::span<const float> data, std::size_t k,
                       std::size_t shards = 0, Algo algo = Algo::kAuto);

  /// Typed key-value variant: float-family keys (f32/f16/bf16) are encoded
  /// to their exact float carrier, sharded and merged in the carrier domain
  /// (carrier order equals key order, so ties/NaNs shard exactly), and the
  /// result is decoded back (SelectResult::values_bits).  A payload, when
  /// present, must cover every key; the winners' entries are gathered into
  /// SelectResult::payload after the cross-shard merge.  Integer key types
  /// throw std::invalid_argument — the shard pipeline is float-carrier only;
  /// route i32/u32 queries through the streaming tier instead.
  ShardedResult select_typed(KeyView keys, std::size_t k,
                             PayloadView payload = {}, std::size_t shards = 0,
                             Algo algo = Algo::kAuto);

  [[nodiscard]] const ShardConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t plan_cache_hits() const { return plan_hits_; }
  [[nodiscard]] std::size_t plan_cache_misses() const { return plan_misses_; }

 private:
  struct DeviceSlot;

  ShardConfig cfg_;
  std::vector<std::unique_ptr<DeviceSlot>> slots_;
  /// (n, k, algo) -> plan; block_chunk keeps this at <= 2 live shard shapes
  /// per (n, k, shards) triple, plus one merge-plan entry per (shards, k).
  std::map<std::tuple<std::size_t, std::size_t, Algo>, ExecutionPlan> plans_;
  std::vector<float> stage_;  ///< host staging scratch (negation, slicing)
  std::vector<float> typed_stage_;  ///< f16/bf16 carrier-encoded keys
  std::size_t plan_hits_ = 0;
  std::size_t plan_misses_ = 0;
};

/// One-shot convenience wrapper: build a Coordinator, run one query.
ShardedResult sharded_select(std::span<const float> data, std::size_t k,
                             const ShardConfig& cfg = {});

/// Shard-count floor/ceiling for a query: every shard must fit the device
/// (ceil(n / max_select_elems) at least) and still hold >= k keys (n / k at
/// most).  Throws when the interval is empty (k too large for the pool).
[[nodiscard]] std::size_t min_shards(std::size_t n,
                                     const simgpu::DeviceSpec& spec);
[[nodiscard]] std::size_t max_shards(std::size_t n, std::size_t k);

/// Predicted modeled cost (microseconds) of a sharded query on `spec`: the
/// per-shard select plan's predict_us times the round count
/// ceil(shards / devices), plus the PCIe gather terms and the ShardMerge
/// plan's predict_us when shards > 1.  `algo` must be kAuto or a row whose
/// plans are priced (see predict_us).  Used by recommend_shards.
[[nodiscard]] double estimated_sharded_cost_us(
    Algo algo, std::size_t shards, std::size_t devices, std::size_t n,
    std::size_t k, const simgpu::DeviceSpec& spec = {});

/// Pick a shard count for (n, k) on a pool of `devices`: race the unsharded
/// candidate (when it fits the device at all) against doublings from the
/// feasibility floor, under estimated_sharded_cost_us.
[[nodiscard]] std::size_t recommend_shards(std::size_t n, std::size_t k,
                                           std::size_t devices,
                                           const simgpu::DeviceSpec& spec);

/// Pure planning view of one sharded query, for the static auditor: the
/// per-shard plans (one per distinct block_chunk shape) and the merge plan,
/// exactly as Coordinator::select would cache them.  No Device is created.
[[nodiscard]] ShardedPlan plan_sharded(const simgpu::DeviceSpec& spec,
                                       std::size_t n, std::size_t k,
                                       std::size_t shards, Algo algo,
                                       const SelectOptions& opt = {});

}  // namespace topk::shard
