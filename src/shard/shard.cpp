#include "shard/shard.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "topk/common.hpp"
#include "topk/key_codec.hpp"
#include "topk/partial_sort_common.hpp"

namespace topk::shard {

namespace {

/// Shard-boundary validation with messages that diagnose on their own (the
/// serving layer surfaces them to clients verbatim).
void validate_query(std::size_t n, std::size_t k) {
  std::ostringstream err;
  if (n == 0) {
    err << "sharded_select: n must be > 0";
  } else if (k == 0 || k > n) {
    err << "sharded_select: k must be in [1, n], got k=" << k << " n=" << n;
  } else if (k > kMaxSelectionK) {
    err << "sharded_select: k=" << k << " exceeds the cross-shard merge's "
        << kMaxSelectionK << " candidate-list limit";
  } else if (n > std::numeric_limits<std::uint32_t>::max()) {
    err << "sharded_select: n=" << n << " exceeds the 32-bit index space";
  } else {
    return;
  }
  throw std::invalid_argument(err.str());
}

/// kAuto for a query split `shards` ways: the row recommend_algorithm picks
/// at the per-shard row length (a concrete `algo` passes through).
Algo resolve_shard_algo(const simgpu::DeviceSpec& spec, Algo algo,
                        std::size_t n, std::size_t k, std::size_t shards) {
  if (algo != Algo::kAuto) return algo;
  WorkloadHints hints;
  hints.shards = shards;
  return recommend_algorithm(spec, n, k, hints);
}

}  // namespace

std::size_t min_shards(std::size_t n, const simgpu::DeviceSpec& spec) {
  const std::size_t cap = std::max<std::size_t>(1, spec.max_select_elems);
  return std::max<std::size_t>(1, (n + cap - 1) / cap);
}

std::size_t max_shards(std::size_t n, std::size_t k) {
  return std::max<std::size_t>(1, n / std::max<std::size_t>(1, k));
}

double estimated_sharded_cost_us(Algo algo, std::size_t shards,
                                 std::size_t devices, std::size_t n,
                                 std::size_t k,
                                 const simgpu::DeviceSpec& spec) {
  shards = std::max<std::size_t>(1, shards);
  devices = std::max<std::size_t>(1, devices);
  const std::size_t n_shard = (n + shards - 1) / shards;
  algo = resolve_shard_algo(spec, algo, n, k, shards);
  const double rounds =
      static_cast<double>((shards + devices - 1) / devices);
  const double lat = spec.pcie_latency_us;
  const double bw = spec.pcie_bytes_per_us();
  const double kk = static_cast<double>(k);
  // Selection: shards run device-parallel, rounds serialize; the gather is
  // two D2H copies (values + indices) per shard.
  double cost =
      rounds * predict_us(plan_select(spec, 1, n_shard, k, algo), spec) +
      static_cast<double>(shards) * (2.0 * lat + kk * 8.0 / bw);
  if (shards > 1) {
    // Candidate H2D to the merge device, the merge tree, result D2H.
    cost += lat + static_cast<double>(shards) * kk * 4.0 / bw;
    cost += predict_us(
        plan_select(spec, 1, shards * k, k, Algo::kShardMerge), spec);
    cost += 2.0 * lat + kk * 8.0 / bw;
  }
  return cost;
}

std::size_t recommend_shards(std::size_t n, std::size_t k,
                             std::size_t devices,
                             const simgpu::DeviceSpec& spec) {
  validate_query(n, k);
  devices = std::max<std::size_t>(1, devices);
  const std::size_t lo = min_shards(n, spec);
  const std::size_t hi = max_shards(n, k);
  if (lo > hi) {
    std::ostringstream err;
    err << "recommend_shards: k=" << k << " does not fit a device-sized "
        << "shard (every shard holds at most " << spec.max_select_elems
        << " of n=" << n << " keys but must hold at least k)";
    throw std::invalid_argument(err.str());
  }
  std::size_t best = lo;
  double best_cost = std::numeric_limits<double>::infinity();
  // Race the feasibility floor (the unsharded candidate when lo == 1) and
  // its doublings; stop once shards far outnumber the pool — past that the
  // round count grows linearly and nothing can win.
  for (std::size_t s = lo; s <= hi; s *= 2) {
    const double cost = estimated_sharded_cost_us(Algo::kAuto, s, devices, n,
                                                  k, spec);
    if (cost < best_cost) {
      best = s;
      best_cost = cost;
    }
    if (s > 8 * devices) break;
  }
  return best;
}

ShardedPlan plan_sharded(const simgpu::DeviceSpec& spec, std::size_t n,
                         std::size_t k, std::size_t shards, Algo algo,
                         const SelectOptions& opt) {
  validate_query(n, k);
  shards = std::clamp(shards == 0 ? recommend_shards(n, k, 1, spec) : shards,
                      min_shards(n, spec), max_shards(n, k));
  algo = resolve_shard_algo(spec, algo, n, k, shards);

  ShardedPlan sp;
  sp.shards = shards;
  sp.n = n;
  sp.k = k;
  sp.shard_algo = algo;
  // Shards see smallest-K plans: largest-K is negated once at the
  // coordinator boundary, never inside the per-shard plans.
  SelectOptions shard_opt;
  shard_opt.alpha = opt.alpha;
  // block_chunk yields at most two distinct shard lengths (base + 1 for the
  // leading remainder chunks, base for the rest) — the first and last shard
  // between them exhibit both.
  std::size_t prev_len = 0;
  for (const std::size_t s :
       {std::size_t{0}, shards - 1}) {
    const auto [begin, end] =
        topk::block_chunk(n, static_cast<int>(shards), static_cast<int>(s));
    const std::size_t len = end - begin;
    if (len == prev_len) continue;
    prev_len = len;
    std::ostringstream label;
    label << "shard " << algo_key(algo) << " n=" << len << " k=" << k;
    sp.plans.emplace_back(label.str(),
                          plan_select(spec, 1, len, k, algo, shard_opt));
  }
  if (shards > 1) {
    std::ostringstream label;
    label << "merge shard-merge n=" << shards * k << " k=" << k;
    sp.plans.emplace_back(
        label.str(),
        plan_select(spec, 1, shards * k, k, Algo::kShardMerge, {}));
  }
  return sp;
}

struct Coordinator::DeviceSlot {
  simgpu::Device dev;
  simgpu::Workspace ws;
  simgpu::DeviceBuffer<float> in;
  simgpu::DeviceBuffer<float> out_vals;
  simgpu::DeviceBuffer<std::uint32_t> out_idx;
  simgpu::DeviceBuffer<float> merge_in;  ///< slot 0 only
  std::size_t in_cap = 0;
  std::size_t out_cap = 0;
  std::size_t merge_cap = 0;

  explicit DeviceSlot(const simgpu::DeviceSpec& spec) : dev(spec), ws(dev) {}
};

Coordinator::Coordinator(const ShardConfig& cfg) : cfg_(cfg) {
  cfg_.devices = std::max<std::size_t>(1, cfg_.devices);
  slots_.reserve(cfg_.devices);
  for (std::size_t d = 0; d < cfg_.devices; ++d) {
    slots_.push_back(std::make_unique<DeviceSlot>(cfg_.device_spec));
  }
}

Coordinator::~Coordinator() = default;

ShardedResult Coordinator::select(std::span<const float> data, std::size_t k,
                                  std::size_t shards, Algo algo) {
  const std::size_t n = data.size();
  validate_query(n, k);

  const simgpu::DeviceSpec& spec = cfg_.device_spec;
  const std::size_t lo = min_shards(n, spec);
  const std::size_t hi = max_shards(n, k);
  if (lo > hi) {
    std::ostringstream err;
    err << "sharded_select: k=" << k << " does not fit a device-sized shard "
        << "(per-device capacity " << spec.max_select_elems << " keys, n="
        << n << ")";
    throw std::invalid_argument(err.str());
  }
  if (shards == 0) shards = cfg_.shards;
  const std::size_t S = std::clamp(
      shards != 0 ? shards : recommend_shards(n, k, slots_.size(), spec), lo,
      hi);

  algo = resolve_shard_algo(spec, algo == Algo::kAuto ? cfg_.algo : algo, n,
                            k, S);

  // Largest-K, handled exactly once: shards select the smallest of the
  // negated input, the merged values are negated back below.  Per-shard
  // plans therefore never carry their own negate wrap.
  const bool negate = cfg_.options.greatest;
  std::span<const float> src = data;
  if (negate) {
    stage_.resize(n);
    for (std::size_t i = 0; i < n; ++i) stage_[i] = -data[i];
    src = stage_;
  }
  SelectOptions shard_opt;
  shard_opt.alpha = cfg_.options.alpha;

  const std::size_t devices_used = std::min(S, slots_.size());
  const simgpu::CostModel model(spec);
  for (std::size_t d = 0; d < devices_used; ++d) slots_[d]->dev.clear_events();

  const auto plan_for = [&](std::size_t pn, Algo palgo) -> const ExecutionPlan& {
    const auto key = std::make_tuple(pn, k, palgo);
    auto it = plans_.find(key);
    if (it != plans_.end()) {
      ++plan_hits_;
      return it->second;
    }
    ++plan_misses_;
    const SelectOptions& popt =
        palgo == Algo::kShardMerge ? SelectOptions{} : shard_opt;
    return plans_.emplace(key, plan_select(spec, 1, pn, k, palgo, popt))
        .first->second;
  };

  ShardedResult res;
  res.shards = S;
  res.devices = devices_used;
  res.shard_algo = algo;
  res.shard_us.resize(S, 0.0);

  // ---- phase 1: per-shard selection + candidate gather -------------------
  std::vector<float> cand_vals(S * k);
  std::vector<std::uint32_t> cand_idx(S * k);
  std::vector<double> dev_select_us(devices_used, 0.0);
  std::vector<double> dev_gather_us(devices_used, 0.0);
  for (std::size_t s = 0; s < S; ++s) {
    const auto [begin, end] =
        topk::block_chunk(n, static_cast<int>(S), static_cast<int>(s));
    const std::size_t len = end - begin;
    DeviceSlot& slot = *slots_[s % devices_used];
    // Opened before the slot's IO is allocated, as in select().
    const SimcheckGuard simcheck(slot.dev);
    if (slot.in_cap < len) {
      slot.in = slot.dev.alloc<float>(len, "shard input");
      slot.in_cap = len;
    }
    if (slot.out_cap < k) {
      slot.out_vals = slot.dev.alloc<float>(k, "shard out vals");
      slot.out_idx = slot.dev.alloc<std::uint32_t>(k, "shard out idx");
      slot.out_cap = k;
    }
    const ExecutionPlan& plan = plan_for(len, algo);
    // Scatter is an unrecorded upload: like the paper's measured regions
    // (and select()'s own staging), a shard's timed region starts with its
    // slice resident on the device.
    slot.dev.upload(slot.in, src.subspan(begin, len));
    const double before = model.total_us(slot.dev.events());
    run_select(slot.dev, plan, slot.ws, slot.in, slot.out_vals, slot.out_idx);
    const double selected = model.total_us(slot.dev.events());
    slot.dev.copy_to_host(slot.out_vals, std::span<float>(cand_vals).subspan(s * k, k),
                          "shard gather vals");
    slot.dev.copy_to_host(slot.out_idx,
                          std::span<std::uint32_t>(cand_idx).subspan(s * k, k),
                          "shard gather idx");
    const double gathered = model.total_us(slot.dev.events());
    res.shard_us[s] = gathered - before;
    dev_select_us[s % devices_used] += selected - before;
    dev_gather_us[s % devices_used] += gathered - selected;
    simcheck.check(algo);
    // Rebase shard-local indices into the query's index space host-side.
    const auto base = static_cast<std::uint32_t>(begin);
    for (std::size_t i = 0; i < k; ++i) cand_idx[s * k + i] += base;
  }
  // Devices run concurrently: each phase costs its busiest device.
  for (std::size_t d = 0; d < devices_used; ++d) {
    res.timing.select_us = std::max(res.timing.select_us, dev_select_us[d]);
    res.timing.gather_us = std::max(res.timing.gather_us, dev_gather_us[d]);
  }

  // ---- phase 2: hierarchical cross-shard merge on device 0 ---------------
  res.topk.values.resize(k);
  res.topk.indices.resize(k);
  if (S == 1) {
    std::copy_n(cand_vals.begin(), k, res.topk.values.begin());
    std::copy_n(cand_idx.begin(), k, res.topk.indices.begin());
    // Unsharded: the gather copies ARE the final result transfer.
    res.timing.output_us = res.timing.gather_us;
    res.timing.gather_us = 0.0;
  } else {
    DeviceSlot& m = *slots_[0];
    const std::size_t nm = S * k;
    const SimcheckGuard simcheck(m.dev);
    if (m.merge_cap < nm) {
      m.merge_in = m.dev.alloc<float>(nm, "shard merge candidates");
      m.merge_cap = nm;
    }
    const ExecutionPlan& mplan = plan_for(nm, Algo::kShardMerge);
    const double before = model.total_us(m.dev.events());
    m.dev.upload_recorded(m.merge_in, std::span<const float>(cand_vals),
                          "shard candidate gather");
    run_select(m.dev, mplan, m.ws, m.merge_in, m.out_vals, m.out_idx);
    const double merged = model.total_us(m.dev.events());
    std::vector<std::uint32_t> merge_pos(k);
    m.dev.copy_to_host(m.out_vals, std::span<float>(res.topk.values),
                       "merged vals");
    m.dev.copy_to_host(m.out_idx, std::span<std::uint32_t>(merge_pos),
                       "merged idx");
    res.timing.merge_us = merged - before;
    res.timing.output_us = model.total_us(m.dev.events()) - merged;
    simcheck.check(Algo::kShardMerge);
    // The merge indexes the candidate array; map back through the gathered
    // (already rebased) per-shard indices.
    for (std::size_t i = 0; i < k; ++i) {
      res.topk.indices[i] = cand_idx[merge_pos[i]];
    }
  }

  if (negate) {
    for (float& v : res.topk.values) v = -v;
  }
  if (cfg_.options.sorted) {
    std::vector<std::uint32_t> order;
    sort_result_best_first(res.topk, cfg_.options.greatest, order);
  }
  res.timing.total_us = res.timing.select_us + res.timing.gather_us +
                        res.timing.merge_us + res.timing.output_us;
  return res;
}

ShardedResult Coordinator::select_typed(KeyView keys, std::size_t k,
                                        PayloadView payload,
                                        std::size_t shards, Algo algo) {
  if (key_type_is_integer(keys.dtype)) {
    std::ostringstream err;
    err << "sharded_select: dtype " << key_type_name(keys.dtype)
        << " is not supported by the float-carrier shard pipeline (use the "
           "streaming tier, Algo::kStreamRadix, for integer keys)";
    throw std::invalid_argument(err.str());
  }
  if (payload.present() && payload.size != keys.size) {
    std::ostringstream err;
    err << "sharded_select: payload holds " << payload.size
        << " entries but must cover every key (n=" << keys.size << ")";
    throw std::invalid_argument(err.str());
  }
  ShardedResult res;
  if (keys.dtype == KeyType::kF32) {
    res = select(std::span<const float>(
                     static_cast<const float*>(keys.data), keys.size),
                 k, shards, algo);
  } else {
    // Encode to the exact float carrier (the 16-bit radix ordinal) so the
    // shards and the merge see a totally ordered float stream; decoded back
    // after the merge.  The negate-at-boundary wrap composes: carrier order
    // is key order, so negating carriers selects the key-largest.
    typed_stage_.resize(keys.size);
    codec::encode_keys_f32(keys, typed_stage_.data());
    res = select(std::span<const float>(typed_stage_), k, shards, algo);
    codec::decode_result_f32(keys.dtype, res.topk);
  }
  if (payload.present()) {
    res.topk.payload.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      res.topk.payload[i] = codec::payload_at(payload, res.topk.indices[i]);
    }
  }
  return res;
}

ShardedResult sharded_select(std::span<const float> data, std::size_t k,
                             const ShardConfig& cfg) {
  Coordinator coord(cfg);
  return coord.select(data, k);
}

}  // namespace topk::shard
