#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "data/recall.hpp"

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"modeled_us_geomean", "us"},
      {"wall_ms_geomean", "ms"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"throughput_qps", "1/s"},
      {"recall_mean", "ratio"},
      {"peak_rss_mib", "MiB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = [] {
    std::vector<MetricDef> d = {
        {"core.run_select_ms_geomean", "ms"},
        {"core.plan_select_us_p50", "us"},
        {"core.recommend_us_p50", "us"},
        {"core.host_glue_ms_geomean", "ms"},
        {"core.auto_regret_geomean", "ratio"},
        {"core.auto_regret_max", "ratio"},
        {"core.auto_regret_cells", "count"},
    };
    for (topk::Algo a : topk::all_algorithms()) {
      d.push_back({"topk.rows_used." + std::string(topk::algo_key(a)),
                   "count"});
    }
    for (topk::Algo a : topk::all_algorithms()) {
      d.push_back(
          {"topk." + std::string(topk::algo_key(a)) + ".wall_ms_geomean",
           "ms"});
    }
    const std::vector<MetricDef> rest = {
        {"simgpu.emu_ns_per_elem", "ns"},
        {"simgpu.kernels_per_query", "count"},
        {"simgpu.device_bytes_per_query", "B"},
        {"simgpu.lane_ops_per_query", "count"},
        {"simgpu.memcpy_bytes_per_query", "B"},
        {"simgpu.host_syncs_per_query", "count"},
        {"simgpu.device_allocs_steady", "count/query"},
        {"simgpu.pool_hit_rate", "ratio"},
        {"simgpu.pool_high_water_mib", "MiB"},
        {"serve.submit_us_p50", "us"},
        {"serve.mean_batch_rows", "rows"},
        {"serve.batches_per_s", "1/s"},
        {"serve.modeled_us_per_query", "us"},
        {"serve.plan_cache_hit_rate", "ratio"},
        {"serve.approx_queries", "count"},
        {"serve.sharded_queries", "count"},
        {"serve.latency_p99_ms", "ms"},
        {"shard.select_us", "us"},
        {"shard.gather_us", "us"},
        {"shard.merge_us", "us"},
        {"shard.output_us", "us"},
        {"shard.wall_ms", "ms"},
        {"shard.merge_share", "ratio"},
        {"bench.gen_lag_p99_ms", "ms"},
        {"bench.host_steal_pct", "%"},
        {"bench.host_busy_pct", "%"},
        {"bench.trace_overhead_pct", "%"},
        {"error_rate", "ratio"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return kDefs;
}

Report::Report(bool trace)
    : traced_(trace),
      defs_(trace ? per_layer_metrics() : end_to_end_metrics()) {
  if (trace) {
    for (const MetricDef& d : defs_) values_[d.name] = 0.0;
  }
}

void Report::set(const std::string& name, double value) {
  const bool known = std::any_of(defs_.begin(), defs_.end(),
                                 [&](const MetricDef& d) {
                                   return d.name == name;
                                 });
  if (!known) throw std::logic_error("metric outside this run's table: " + name);
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  values_[name] = value;
}

void Report::wrong(std::string why) {
  correct = false;
  notes_.push_back("WRONG: " + std::move(why));
}

void Report::print(std::ostream& os) const {
  for (const std::string& n : notes_) os << "# " << n << '\n';
  for (const MetricDef& d : defs_) {
    const auto it = values_.find(d.name);
    if (it == values_.end()) {
      throw std::logic_error("metric never measured: " + d.name);
    }
    os << "  " << std::left << std::setw(36) << d.name << ' '
       << std::setw(14) << it->second << ' ' << d.unit << '\n';
  }
  std::ostringstream js;
  js << std::setprecision(17);
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs_) {
    js << (first ? "" : ", ") << '"' << d.name << "\": {\"value\": "
       << values_.at(d.name) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  js << "}}";
  os << js.str() << std::endl;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) {
    if (!(x > 0.0)) throw std::runtime_error("geomean of a non-positive value");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

HostNoise::Sample HostNoise::read() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t f[8] = {};
  in >> cpu;
  for (std::uint64_t& x : f) in >> x;
  Sample s;
  if (!in || cpu != "cpu") return s;
  for (std::uint64_t x : f) s.total += x;
  s.idle = f[3] + f[4];
  s.steal = f[7];
  return s;
}

double HostNoise::steal_pct() const {
  const Sample now = read();
  const double total = static_cast<double>(now.total - start_.total);
  return total > 0 ? 100.0 * static_cast<double>(now.steal - start_.steal) /
                         total
                   : 0.0;
}

double HostNoise::busy_pct() const {
  const Sample now = read();
  const double total = static_cast<double>(now.total - start_.total);
  const double idle = static_cast<double>(now.idle - start_.idle);
  return total > 0 ? 100.0 * (total - idle) / total : 0.0;
}

void set_rows_used(Report& rep, topk::Algo algo, double count) {
  const auto rows = topk::all_algorithms();
  const std::string key(topk::algo_key(algo));
  if (std::find(rows.begin(), rows.end(), algo) == rows.end()) {
    rep.note("row " + key + " served " + std::to_string(count) +
             " queries (no per-row metric)");
    return;
  }
  rep.set("topk.rows_used." + key, count);
}

void record_host_noise(Report& rep, const HostNoise& noise,
                       double gen_lag_p99_ms, double max_gen_lag_p99_ms) {
  // Past this, a run's timings are not comparable with a quiet run's.
  constexpr double kMaxStealPct = 5.0;
  const double steal = noise.steal_pct();
  const double busy = noise.busy_pct();
  std::ostringstream line;
  line << "host: steal " << steal << "%, busy " << busy
       << "%, generator lag p99 " << gen_lag_p99_ms << " ms";
  rep.note(line.str());
  if (steal > kMaxStealPct) {
    rep.note("NOISY RUN: host steal above " + std::to_string(kMaxStealPct) +
             "%");
  }
  if (gen_lag_p99_ms > max_gen_lag_p99_ms) {
    rep.note("NOISY RUN: generator lag p99 above " +
             std::to_string(max_gen_lag_p99_ms) + " ms");
  }
  if (rep.traced()) {
    rep.set("bench.host_steal_pct", steal);
    rep.set("bench.host_busy_pct", busy);
    rep.set("bench.gen_lag_p99_ms", gen_lag_p99_ms);
  }
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// Order-independent fingerprint of an answer: FNV-1a over its (index,
/// value bits) pairs sorted by index.
std::uint64_t fingerprint(const topk::SelectResult& r) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(r.indices.size());
  for (std::size_t i = 0; i < r.indices.size(); ++i) {
    const float v = i < r.values.size() ? r.values[i] : 0.0f;
    pairs.emplace_back(r.indices[i], std::bit_cast<std::uint32_t>(v));
  }
  std::sort(pairs.begin(), pairs.end());
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint32_t x) {
    for (int b = 0; b < 4; ++b) {
      h ^= (x >> (8 * b)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint32_t>(r.indices.size()));
  mix(static_cast<std::uint32_t>(r.values.size()));
  for (const auto& [idx, bits] : pairs) {
    mix(idx);
    mix(bits);
  }
  return h;
}

}  // namespace

std::string AnswerChecker::check_exact(std::uint64_t row_id,
                                       std::span<const float> row,
                                       std::size_t k,
                                       const topk::SelectResult& r) {
  std::vector<std::uint64_t>& seen = verified_[{row_id, k}];
  const std::uint64_t fp = fingerprint(r);
  if (std::find(seen.begin(), seen.end(), fp) != seen.end()) return {};
  std::string err = topk::verify_topk(row, k, r);
  if (err.empty()) seen.push_back(fp);
  return err;
}

double AnswerChecker::recall(std::uint64_t row_id, std::span<const float> row,
                             std::size_t k, const topk::SelectResult& r) {
  auto it = exact_values_.find({row_id, k});
  if (it == exact_values_.end()) {
    it = exact_values_
             .emplace(Key{row_id, k}, topk::data::exact_topk_values(row, k))
             .first;
  }
  return topk::data::recall_at_k(r.values, it->second);
}

}  // namespace perfbench
