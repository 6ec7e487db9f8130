#include "core/topk.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "topk/key_codec.hpp"
#include "topk/registry.hpp"

namespace topk {

std::string algo_name(Algo algo) {
  const AlgoRow* row = find_algo_row(algo);
  return row != nullptr ? std::string(row->name) : "unknown";
}

std::string_view algo_key(Algo algo) {
  const AlgoRow* row = find_algo_row(algo);
  return row != nullptr ? row->key : std::string_view{"unknown"};
}

std::optional<Algo> parse_algo(std::string_view key) {
  for (const AlgoRow& row : kAlgoTable) {
    if (row.key == key) return row.algo;
  }
  return std::nullopt;
}

std::span<const Algo> all_algorithms() {
  static constexpr std::array<Algo, 14> kAll = {
      Algo::kAirTopk,      Algo::kGridSelect,  Algo::kRadixSelect,
      Algo::kWarpSelect,   Algo::kBlockSelect, Algo::kBitonicTopk,
      Algo::kQuickSelect,  Algo::kBucketSelect, Algo::kSampleSelect,
      Algo::kSort,         Algo::kFusedWarpRowwise,
      Algo::kFusedBlockRowwise, Algo::kShardMerge, Algo::kBucketApprox,
  };
  return kAll;
}

std::string_view key_type_name(KeyType t) {
  switch (t) {
    case KeyType::kF32:
      return "f32";
    case KeyType::kF16:
      return "f16";
    case KeyType::kBF16:
      return "bf16";
    case KeyType::kI32:
      return "i32";
    case KeyType::kU32:
      return "u32";
  }
  return "unknown";
}

std::optional<KeyType> parse_key_type(std::string_view key) {
  for (std::size_t i = 0; i < kNumKeyTypes; ++i) {
    const auto t = static_cast<KeyType>(i);
    if (key_type_name(t) == key) return t;
  }
  return std::nullopt;
}

bool algo_supports_dtype(Algo algo, KeyType t) {
  const AlgoRow* row = find_algo_row(algo);
  return row != nullptr && row->plan != nullptr &&
         (row->dtypes & key_type_bit(t)) != 0;
}

std::size_t max_k(Algo algo, std::size_t n) {
  const AlgoRow* row = find_algo_row(algo);
  if (row == nullptr || row->k_limit == 0) {
    // kAuto included: the recommender only returns algorithms that are
    // legal for the requested k, so auto dispatch has no k ceiling.
    return n;
  }
  return std::min(n, row->k_limit);
}

namespace {

/// Rows the kAuto race plans, in tie-break order.  Over a 108-shape probe
/// (A100/H100/A10 x uniform/adversarial x batch {1, 100} x n {2^12, 2^16,
/// 2^20} x k {16, 256, 2048}) the best exact row was always one of the
/// first five; RadixSelect stays in the race as the host-serial baseline.
constexpr std::array<Algo, 6> kAutoCandidates = {
    Algo::kFusedWarpRowwise, Algo::kFusedBlockRowwise, Algo::kGridSelect,
    Algo::kBlockSelect,      Algo::kAirTopk,           Algo::kRadixSelect};

/// Rows whose traffic depends on the key bits: predict_us prices their
/// survivor counts at the uniform expected case, which radix-adversarial
/// keys (every key sharing its leading bits) exceed by up to one extra
/// input sweep per pass.  The race hedges toward the rows whose charges are
/// independent of key bits: a radix row's prediction is scored
/// (1 + kRadixHedge) times higher, so it wins only by a clear margin.
bool radix_family(Algo algo) {
  return algo == Algo::kAirTopk || algo == Algo::kRadixSelect;
}
constexpr double kRadixHedge = 0.10;


/// Validated race shape: the per-shard row length for sharded hints.
std::size_t race_row_length(std::size_t n, std::size_t k,
                            const WorkloadHints& hints) {
  // A sharded query is recommended at the shape one device actually sees:
  // the per-shard row length.  The shard coordinator runs the same concrete
  // algorithm on every shard, so this is the choice that matters.
  if (hints.shards > 1) {
    const std::size_t n_shard = (n + hints.shards - 1) / hints.shards;
    if (k > n_shard) {
      std::ostringstream err;
      err << "recommend_algorithm: k=" << k << " exceeds the per-shard row "
          << "length ceil(n/shards)=" << n_shard << " at shards="
          << hints.shards << "; request fewer shards";
      throw std::invalid_argument(err.str());
    }
    n = n_shard;
  }
  validate_problem(n, k, hints.batch);
  if (!(hints.recall_target > 0.0) || hints.recall_target > 1.0) {
    std::ostringstream err;
    err << "recommend_algorithm: recall_target must be in (0, 1], got "
        << hints.recall_target;
    throw std::invalid_argument(err.str());
  }
  if (hints.on_the_fly && k > max_k(Algo::kGridSelect, n)) {
    throw std::invalid_argument(
        "recommend_algorithm: on-the-fly selection supports k <= 2048");
  }
  return n;
}

}  // namespace

double predict_us(const ExecutionPlan& plan, const simgpu::DeviceSpec& spec) {
  if (!plan.schedule().priced) {
    throw std::invalid_argument("predict_us: " + algo_name(plan.algo()) +
                                " plans record no expected costs");
  }
  return simgpu::CostModel(spec).expected_us(plan.schedule());
}

std::vector<PricedAlgo> price_candidates(const simgpu::DeviceSpec& spec,
                                         std::size_t n, std::size_t k,
                                         const WorkloadHints& hints) {
  n = race_row_length(n, k, hints);
  std::vector<PricedAlgo> race;
  if (hints.on_the_fly) return race;
  SelectOptions opt;
  opt.dtype = hints.dtype;
  opt.recall_target = hints.recall_target;
  const auto enter = [&](Algo cand) {
    if (k > max_k(cand, n) || !algo_supports_dtype(cand, hints.dtype)) return;
    try {
      const ExecutionPlan plan =
          plan_select(spec, hints.batch, n, k, cand, opt);
      race.push_back({cand, predict_us(plan, spec)});
    } catch (const std::invalid_argument&) {
      // The row rejects this shape on this device (shared memory, single-
      // select capacity): it is not a candidate.
    }
  };
  for (Algo cand : kAutoCandidates) enter(cand);
  // At recall_target = 1.0 the approximate tier never races, so the
  // recommendation is provably exact.
  if (hints.recall_target < 1.0) enter(Algo::kBucketApprox);
  return race;
}

Algo recommend_algorithm(const simgpu::DeviceSpec& spec, std::size_t n,
                         std::size_t k, const WorkloadHints& hints) {
  if (hints.on_the_fly) {
    (void)race_row_length(n, k, hints);
    // The approximate tier buffers whole chunks, so a streaming producer
    // cannot feed it; the recall hint cannot override the streaming need.
    return Algo::kGridSelect;
  }
  const std::vector<PricedAlgo> race = price_candidates(spec, n, k, hints);
  if (race.empty()) {
    // Nothing fits one device: plan_select on AIR reports the capacity
    // error that points at the sharded path.
    return Algo::kAirTopk;
  }
  const auto score = [](const PricedAlgo& c) {
    return c.predicted_us * (radix_family(c.algo) ? 1.0 + kRadixHedge : 1.0);
  };
  return std::min_element(race.begin(), race.end(),
                          [&](const PricedAlgo& a, const PricedAlgo& b) {
                            return score(a) < score(b);
                          })
      ->algo;
}

Algo recommend_algorithm(std::size_t n, std::size_t k,
                         const WorkloadHints& hints) {
  return recommend_algorithm(simgpu::DeviceSpec{}, n, k, hints);
}

Algo resolve_algo(const simgpu::DeviceSpec& spec, Algo algo, std::size_t n,
                  std::size_t k, std::size_t batch, double recall_target,
                  KeyType dtype) {
  if (algo != Algo::kAuto) return algo;
  WorkloadHints hints;
  hints.batch = batch;
  hints.recall_target = recall_target;
  hints.dtype = dtype;
  return recommend_algorithm(spec, n, k, hints);
}

Algo resolve_algo(Algo algo, std::size_t n, std::size_t k, std::size_t batch,
                  double recall_target, KeyType dtype) {
  return resolve_algo(simgpu::DeviceSpec{}, algo, n, k, batch, recall_target,
                      dtype);
}

namespace {

/// Best-first reorder of one row in the carrier domain: carrier order equals
/// key order for every dtype (total, NaN-safe for f16/bf16 ordinals), so
/// sorting BEFORE decode avoids the float-comparison hazards a decoded sort
/// would reintroduce.  Permutes values, indices and (when present) payload.
template <typename Carrier>
void sort_row_best_first(std::vector<Carrier>& vals,
                         std::vector<std::uint32_t>& idx,
                         std::vector<std::uint64_t>& payload, bool greatest,
                         std::vector<std::uint32_t>& order_scratch) {
  const std::size_t k = vals.size();
  order_scratch.resize(k);
  std::iota(order_scratch.begin(), order_scratch.end(), 0U);
  std::sort(order_scratch.begin(), order_scratch.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return greatest ? vals[b] < vals[a] : vals[a] < vals[b];
            });
  // Apply the permutation in place (dest[i] = src[order[i]]): chase each
  // source slot through the already-swapped prefix, then swap it into
  // position.  No per-row copies of the value/index vectors.
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = order_scratch[i];
    while (j < i) j = order_scratch[j];
    if (j != i) {
      std::swap(vals[i], vals[j]);
      std::swap(idx[i], idx[j]);
      if (!payload.empty()) std::swap(payload[i], payload[j]);
    }
  }
}

}  // namespace

void sort_result_best_first(SelectResult& r, bool greatest,
                            std::vector<std::uint32_t>& order_scratch) {
  sort_row_best_first(r.values, r.indices, r.payload, greatest,
                      order_scratch);
}

namespace {

const PlanImpl& deref_plan(const std::shared_ptr<const PlanImpl>& impl,
                           const char* accessor) {
  if (impl == nullptr) {
    throw std::logic_error(std::string(accessor) +
                           ": empty ExecutionPlan handle");
  }
  return *impl;
}

}  // namespace

Algo ExecutionPlan::algo() const {
  return deref_plan(impl_, "ExecutionPlan::algo").algo;
}

std::size_t ExecutionPlan::batch() const {
  return deref_plan(impl_, "ExecutionPlan::batch").shape.batch;
}

std::size_t ExecutionPlan::n() const {
  return deref_plan(impl_, "ExecutionPlan::n").shape.n;
}

std::size_t ExecutionPlan::k() const {
  return deref_plan(impl_, "ExecutionPlan::k").shape.k;
}

bool ExecutionPlan::greatest() const {
  return deref_plan(impl_, "ExecutionPlan::greatest").shape.greatest;
}

KeyType ExecutionPlan::dtype() const {
  return deref_plan(impl_, "ExecutionPlan::dtype").dtype;
}

bool ExecutionPlan::u32_carrier() const {
  return deref_plan(impl_, "ExecutionPlan::u32_carrier").u32_carrier;
}

const simgpu::WorkspaceLayout& ExecutionPlan::layout() const {
  return deref_plan(impl_, "ExecutionPlan::layout").layout;
}

std::size_t ExecutionPlan::workspace_bytes() const {
  return deref_plan(impl_, "ExecutionPlan::workspace_bytes")
      .layout.total_bytes();
}

const simgpu::KernelSchedule& ExecutionPlan::schedule() const {
  return deref_plan(impl_, "ExecutionPlan::schedule").schedule;
}

ExecutionPlan plan_select(const simgpu::DeviceSpec& spec, std::size_t batch,
                          std::size_t n, std::size_t k, Algo algo,
                          const SelectOptions& opt) {
  if (!(opt.recall_target > 0.0) || opt.recall_target > 1.0) {
    std::ostringstream err;
    err << "plan_select: recall_target must be in (0, 1], got "
        << opt.recall_target;
    throw std::invalid_argument(err.str());
  }
  if (k > kMaxK) {
    std::ostringstream err;
    err << "plan_select: k=" << k << " exceeds TOPK_MAX_K=" << kMaxK
        << " (2^20), the system-wide K ceiling";
    throw std::invalid_argument(err.str());
  }
  algo = resolve_algo(spec, algo, n, k, batch, opt.recall_target, opt.dtype);
  const AlgoRow* row = find_algo_row(algo);
  if (row == nullptr || row->plan == nullptr) {
    throw std::invalid_argument("plan_select: unknown algorithm");
  }
  if ((row->dtypes & key_type_bit(opt.dtype)) == 0) {
    std::ostringstream err;
    err << "plan_select: " << row->name << " does not support dtype "
        << key_type_name(opt.dtype)
        << " (algo_supports_dtype lists each algorithm's key types)";
    throw std::invalid_argument(err.str());
  }
  if (!row->streaming && batch * n > spec.max_select_elems) {
    std::ostringstream err;
    err << "plan_select: batch=" << batch << " x n=" << n << " = "
        << batch * n << " keys exceeds this device's single-select capacity ("
        << spec.max_select_elems
        << " elems); split the query across the device pool with "
           "topk::shard::sharded_select (serve engages it automatically, or "
           "via WorkloadHints::shards), or use the bounded-scratch streaming "
           "tier (Algo::kStreamRadix)";
    throw std::invalid_argument(err.str());
  }
  auto impl = std::make_shared<PlanImpl>();
  impl->algo = algo;
  impl->shape = Shape{batch, n, k, opt.greatest};
  impl->dtype = opt.dtype;
  impl->u32_carrier = key_type_is_integer(opt.dtype);
  // WLOG the paper selects the smallest K; algorithms without a native
  // largest-K order get a negate wrap: plan a device segment for the
  // negated copy here, apply it in run_select.  On the u32 carrier the wrap
  // is a bitwise complement of the radix ordinals, not a float negation.
  impl->negate = opt.greatest && !row->native_greatest;
  if (impl->negate) {
    impl->seg_negated =
        impl->u32_carrier
            ? impl->layout.add<std::uint32_t>("negated input", batch * n)
            : impl->layout.add<float>("negated input", batch * n);
  }
  row->plan(*impl, spec, opt);
  if (impl->negate) {
    // The plan function recorded its schedule against the caller's input
    // buffer, but under the negate wrap run_select feeds the kernels the
    // negated copy.  Rewrite the input binds to the negated segment and
    // prepend the host negation so the static auditor sees the sequence
    // that actually executes (and the segment's first write).
    for (simgpu::KernelStep& step : impl->schedule.steps) {
      for (simgpu::OperandBind& bind : step.binds) {
        if (bind.target == simgpu::kBindInput) bind.target = impl->seg_negated;
      }
    }
    simgpu::KernelStep neg;
    neg.kind = simgpu::KernelStep::Kind::kHost;
    neg.name = "negate input";
    neg.batch = batch;
    neg.n = n;
    neg.k = k;
    neg.binds = {{"in", simgpu::kBindInput, simgpu::Access::kRead},
                 {"negated", impl->seg_negated, simgpu::Access::kWrite}};
    impl->schedule.steps.insert(impl->schedule.steps.begin(), std::move(neg));
  }
  return ExecutionPlan(std::move(impl));
}

namespace {

/// The run_select body for both carriers.  Largest-K on a row without a
/// native descending order flips the input into the plan's negated segment
/// and flips the selected values back: float negation on the f32 carrier,
/// bitwise complement on the u32 carrier (the monotone order reversal of the
/// unsigned radix ordinals).  Both flips are their own inverse.
template <typename Carrier>
void run_on_carrier(simgpu::Device& dev, const PlanImpl& impl,
                    simgpu::Workspace& ws, simgpu::DeviceBuffer<Carrier> in,
                    simgpu::DeviceBuffer<Carrier> out_vals,
                    simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  constexpr bool kU32 = std::is_same_v<Carrier, std::uint32_t>;
  if (impl.u32_carrier != kU32) {
    throw std::invalid_argument(
        kU32 ? "run_select: this plan executes on the float carrier; use the "
               "DeviceBuffer<float> overload"
             : "run_select: this plan executes i32/u32 keys on the u32 "
               "carrier; use the DeviceBuffer<uint32_t> overload");
  }
  const auto flip = [](Carrier v) -> Carrier {
    if constexpr (kU32) {
      return ~v;
    } else {
      return -v;
    }
  };
  ws.bind(impl.layout);
  simgpu::DeviceBuffer<Carrier> input = in;
  if (impl.negate) {
    const std::size_t total = impl.shape.batch * impl.shape.n;
    if (in.size() < total) {
      throw std::invalid_argument("run_select: input smaller than batch*n");
    }
    simgpu::DeviceBuffer<Carrier> neg = ws.get<Carrier>(impl.seg_negated);
    for (std::size_t i = 0; i < total; ++i) neg.data()[i] = flip(in.data()[i]);
    if (simgpu::Sanitizer* san = dev.sanitizer()) {
      // The host-side copy bypasses the shadow; mark it like an upload so
      // the kernels' reads are not flagged uninitialized.
      san->mark_initialized(neg.data(), total * sizeof(Carrier));
    }
    input = neg;
  }
  run_plan(dev, impl, ws, input, out_vals, out_idx);
  if (impl.negate) {
    const std::size_t out_total = impl.shape.batch * impl.shape.k;
    for (std::size_t i = 0; i < out_total; ++i) {
      out_vals.data()[i] = flip(out_vals.data()[i]);
    }
  }
}

}  // namespace

void run_select(simgpu::Device& dev, const ExecutionPlan& plan,
                simgpu::Workspace& ws, simgpu::DeviceBuffer<float> in,
                simgpu::DeviceBuffer<float> out_vals,
                simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  run_on_carrier(dev, deref_plan(plan.impl_, "run_select"), ws, in, out_vals,
                 out_idx);
}

void run_select(simgpu::Device& dev, const ExecutionPlan& plan,
                simgpu::Workspace& ws,
                simgpu::DeviceBuffer<std::uint32_t> in,
                simgpu::DeviceBuffer<std::uint32_t> out_vals,
                simgpu::DeviceBuffer<std::uint32_t> out_idx) {
  run_on_carrier(dev, deref_plan(plan.impl_, "run_select"), ws, in, out_vals,
                 out_idx);
}

void select_device(simgpu::Device& dev, simgpu::DeviceBuffer<float> in,
                   std::size_t batch, std::size_t n, std::size_t k,
                   simgpu::DeviceBuffer<float> out_vals,
                   simgpu::DeviceBuffer<std::uint32_t> out_idx, Algo algo,
                   const SelectOptions& opt) {
  const ExecutionPlan plan = plan_select(dev.spec(), batch, n, k, algo, opt);
  simgpu::Workspace ws(dev);
  run_select(dev, plan, ws, in, out_vals, out_idx);
}

bool simcheck_env_enabled() {
  const char* v = std::getenv("TOPK_SIMCHECK");
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

void throw_if_new_issues(const simgpu::Sanitizer& san,
                         std::size_t issues_before, Algo algo) {
  if (san.issue_count() <= issues_before) return;
  const simgpu::SanitizerReport rep = san.snapshot();
  std::ostringstream err;
  err << "simcheck: " << algo_name(algo) << " raised "
      << san.issue_count() - issues_before << " issue(s):\n";
  for (std::size_t i = issues_before; i < rep.issues.size(); ++i) {
    err << "  " << rep.issues[i].to_string() << "\n";
  }
  if (rep.dropped > 0) {
    err << "  (+" << rep.dropped << " dropped past the report cap)\n";
  }
  throw std::runtime_error(err.str());
}

SimcheckGuard::SimcheckGuard(simgpu::Device& dev) {
  if (simcheck_env_enabled() && dev.sanitizer() == nullptr) {
    dev.enable_sanitizer();
  }
  san_ = dev.sanitizer();
  issues_before_ = san_ != nullptr ? san_->issue_count() : 0;
}

void SimcheckGuard::check(Algo algo) const {
  if (san_ != nullptr) throw_if_new_issues(*san_, issues_before_, algo);
}

namespace {

/// Host-entry-point argument validation with messages that name the caller
/// and echo the offending values — the serving layer surfaces these strings
/// to clients, so they must diagnose the problem on their own.
void validate_select_args(const char* fn, std::size_t data_size,
                          std::size_t batch, std::size_t n, std::size_t k,
                          double recall_target = 1.0) {
  std::ostringstream err;
  if (batch == 0) {
    err << fn << ": batch must be > 0 (got an empty batch)";
  } else if (n == 0) {
    err << fn << ": row length n must be > 0";
  } else if (k == 0) {
    err << fn << ": k must be >= 1 (got k=0)";
  } else if (k > kMaxK) {
    err << fn << ": k=" << k << " exceeds TOPK_MAX_K=" << kMaxK
        << " (2^20), the system-wide K ceiling";
  } else if (k > n) {
    err << fn << ": k=" << k << " exceeds row length n=" << n;
  } else if (data_size < batch * n) {
    err << fn << ": data holds " << data_size << " keys but batch=" << batch
        << " rows of n=" << n << " need " << batch * n
        << " (mismatched row lengths?)";
  } else if (!(recall_target > 0.0) || recall_target > 1.0) {
    err << fn << ": recall_target must be in (0, 1], got " << recall_target
        << " (1.0 = exact)";
  } else {
    return;
  }
  throw std::invalid_argument(err.str());
}

void validate_payload_arg(const char* fn, PayloadView payload,
                          std::size_t batch, std::size_t n) {
  if (!payload.present()) return;
  if (payload.size != batch * n) {
    std::ostringstream err;
    err << fn << ": payload holds " << payload.size
        << " entries but must cover every key (batch=" << batch << " x n="
        << n << " = " << batch * n << ")";
    throw std::invalid_argument(err.str());
  }
}

/// The device buffer a selection reads its `keys` from.  Kernels only read
/// their input (every footprint declares it kRead), and the upload sits
/// outside the modeled event stream, so without a sanitizer the caller's
/// keys are bound in place instead of being copied into a fresh device
/// allocation.  With a sanitizer attached they are uploaded into a tracked
/// allocation, so the shadow sees them like any device data.
template <typename T>
simgpu::DeviceBuffer<T> bind_input(simgpu::Device& dev,
                                   std::span<const T> keys) {
  if (dev.sanitizer() == nullptr) {
    return {const_cast<T*>(keys.data()), keys.size()};
  }
  auto in = dev.alloc<T>(keys.size(), "select input");
  dev.upload(in, keys);
  return in;
}

/// The select()/select_batch() body on one carrier: float (f32/f16/bf16) or
/// uint32_t (i32/u32).  Runs the carrier-typed plan, then gathers payloads,
/// reorders and decodes per row back to `keys.dtype`.
template <typename Carrier>
std::vector<SelectResult> run_typed(simgpu::Device& dev, KeyView keys,
                                    std::size_t batch, std::size_t n,
                                    std::size_t k, Algo algo,
                                    const SelectOptions& opt,
                                    PayloadView payload) {
  const KeyType dtype = keys.dtype;
  // f32 and u32 keys are their own carrier and are bound in place; other
  // dtypes are encoded into a host copy of the batch*n keys the problem
  // uses (the view may be larger; validate_select_args checked it is not
  // smaller).
  const KeyView used{dtype, keys.data, batch * n};
  std::vector<Carrier> encoded;
  std::span<const Carrier> carrier;
  if (dtype == KeyType::kF32 || dtype == KeyType::kU32) {
    carrier = {static_cast<const Carrier*>(keys.data), used.size};
  } else {
    encoded.resize(used.size);
    if constexpr (std::is_same_v<Carrier, float>) {
      codec::encode_keys_f32(used, encoded.data());
    } else {
      codec::encode_keys_u32(used, encoded.data());
    }
    carrier = encoded;
  }
  // Resolve auto dispatch up front so sanitizer issue attribution names the
  // concrete algorithm that actually runs.
  algo = resolve_algo(dev.spec(), algo, n, k, batch, opt.recall_target, dtype);
  const SimcheckGuard simcheck(dev);
  simgpu::ScopedWorkspace scoped(dev);
  const auto in = bind_input(dev, carrier);
  auto out_vals = dev.alloc<Carrier>(batch * k, "select output vals");
  auto out_idx = dev.alloc<std::uint32_t>(batch * k, "select output idx");
  SelectOptions topt = opt;
  topt.dtype = dtype;
  const ExecutionPlan plan =
      plan_select(dev.spec(), batch, n, k, algo, topt);
  simgpu::Workspace ws(dev);
  // run_select handles largest-K uniformly (natively where the row has a
  // descending order, via the negate wrap otherwise), so out_vals already
  // holds values in the requested order.
  run_select(dev, plan, ws, in, out_vals, out_idx);
  simcheck.check(algo);
  std::vector<SelectResult> results(batch);
  std::vector<std::uint32_t> order;  // permutation scratch, shared by rows
  for (std::size_t b = 0; b < batch; ++b) {
    SelectResult& r = results[b];
    std::vector<Carrier> vals(out_vals.data() + b * k,
                              out_vals.data() + (b + 1) * k);
    r.indices.assign(out_idx.data() + b * k, out_idx.data() + (b + 1) * k);
    if (payload.present()) {
      r.payload.resize(k);
      for (std::size_t i = 0; i < k; ++i) {
        r.payload[i] = codec::payload_at(payload, b * n + r.indices[i]);
      }
    }
    if (opt.sorted) {
      sort_row_best_first(vals, r.indices, r.payload, opt.greatest, order);
    }
    if constexpr (std::is_same_v<Carrier, float>) {
      r.values = std::move(vals);
      codec::decode_result_f32(dtype, r);
    } else {
      codec::decode_result_u32(dtype, vals, r);
    }
  }
  return results;
}

std::vector<SelectResult> run_select_keys(simgpu::Device& dev, KeyView keys,
                                          std::size_t batch, std::size_t n,
                                          std::size_t k, Algo algo,
                                          const SelectOptions& opt,
                                          PayloadView payload) {
  return codec::uses_u32_carrier(keys.dtype)
             ? run_typed<std::uint32_t>(dev, keys, batch, n, k, algo, opt,
                                        payload)
             : run_typed<float>(dev, keys, batch, n, k, algo, opt, payload);
}

}  // namespace

SelectResult select(simgpu::Device& dev, std::span<const float> data,
                    std::size_t k, Algo algo, const SelectOptions& opt) {
  return select(dev, KeyView::of(data), k, algo, opt);
}

std::vector<SelectResult> select_batch(simgpu::Device& dev,
                                       std::span<const float> data,
                                       std::size_t batch, std::size_t n,
                                       std::size_t k, Algo algo,
                                       const SelectOptions& opt) {
  return select_batch(dev, KeyView::of(data), batch, n, k, algo, opt);
}

SelectResult select(simgpu::Device& dev, KeyView keys, std::size_t k,
                    Algo algo, const SelectOptions& opt,
                    PayloadView payload) {
  validate_select_args("select", keys.size, 1, keys.size, k,
                       opt.recall_target);
  validate_payload_arg("select", payload, 1, keys.size);
  return run_select_keys(dev, keys, 1, keys.size, k, algo, opt, payload)
      .front();
}

std::vector<SelectResult> select_batch(simgpu::Device& dev, KeyView keys,
                                       std::size_t batch, std::size_t n,
                                       std::size_t k, Algo algo,
                                       const SelectOptions& opt,
                                       PayloadView payload) {
  validate_select_args("select_batch", keys.size, batch, n, k,
                       opt.recall_target);
  validate_payload_arg("select_batch", payload, batch, n);
  return run_select_keys(dev, keys, batch, n, k, algo, opt, payload);
}

SelectResult reference_select(std::span<const float> data, std::size_t k) {
  if (k > kMaxK) {
    std::ostringstream err;
    err << "reference_select: k=" << k << " exceeds TOPK_MAX_K=" << kMaxK
        << " (2^20), the system-wide K ceiling";
    throw std::invalid_argument(err.str());
  }
  if (k == 0 || k > data.size()) {
    std::ostringstream err;
    err << "reference_select: k=" << k << " must be in [1, n=" << data.size()
        << "]";
    throw std::invalid_argument(err.str());
  }
  std::vector<std::uint32_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::nth_element(order.begin(), order.begin() + static_cast<long>(k) - 1,
                   order.end(), [&](std::uint32_t a, std::uint32_t b) {
                     return data[a] < data[b];
                   });
  SelectResult r;
  r.values.reserve(k);
  r.indices.assign(order.begin(), order.begin() + static_cast<long>(k));
  for (std::uint32_t i : r.indices) r.values.push_back(data[i]);
  return r;
}

std::string verify_topk(std::span<const float> data, std::size_t k,
                        const SelectResult& result) {
  std::ostringstream err;
  if (k == 0 || k > data.size()) {
    err << "k=" << k << " must be in [1, n=" << data.size() << "]";
    return err.str();
  }
  if (result.values.size() != k || result.indices.size() != k) {
    err << "size mismatch: got " << result.values.size() << " values, "
        << result.indices.size() << " indices, expected " << k;
    return err.str();
  }
  std::vector<bool> seen(data.size(), false);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t idx = result.indices[i];
    if (idx >= data.size()) {
      err << "index " << idx << " out of range at position " << i;
      return err.str();
    }
    if (seen[idx]) {
      err << "duplicate index " << idx << " at position " << i;
      return err.str();
    }
    seen[idx] = true;
    if (!(data[idx] == result.values[i]) &&
        !(std::isnan(data[idx]) && std::isnan(result.values[i]))) {
      err << "value mismatch at position " << i << ": index " << idx
          << " holds " << data[idx] << " but result says "
          << result.values[i];
      return err.str();
    }
  }
  // Multiset equality with the reference top-k values.
  std::vector<float> got = result.values;
  std::vector<float> want(data.begin(), data.end());
  std::nth_element(want.begin(), want.begin() + static_cast<long>(k) - 1,
                   want.end());
  want.resize(k);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  for (std::size_t i = 0; i < k; ++i) {
    if (got[i] != want[i]) {
      err << "value multiset differs at sorted position " << i << ": got "
          << got[i] << ", want " << want[i];
      return err.str();
    }
  }
  return {};
}

}  // namespace topk
