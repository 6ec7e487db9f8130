// serve_rowwise and serve_mixed: traffic into topk::serve::TopkService.
//
// serve_rowwise is an open loop (independent users): Poisson arrivals of
// distinct small rows at a fixed offered rate below the knee, so requests
// coalesce and the serve layer's admission, staging and dispatch set the
// wall time.  Each request is timed from when it was due.
//
// serve_mixed is a closed loop (four callers that each wait for a reply):
// mixed shapes that never coalesce, an approximate slice and a sharded
// slice, so kernels, plan-cache misses, the approximate tier and the shard
// coordinator carry the load.  Each request is timed from when it was sent.

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "serve/service.hpp"
#include "shard/shard.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using topk::serve::QueryResult;
using topk::serve::QueryStatus;
using topk::serve::ServiceStats;
using topk::serve::TopkService;

enum class Tier { kExact, kApprox, kSharded };

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kExact:
      return "exact";
    case Tier::kApprox:
      return "approx";
    case Tier::kSharded:
      return "sharded";
  }
  return "?";
}

/// Rows a workload draws its requests from.  Each pool is one contiguous
/// allocation of `rows` rows of length `n`.
struct RowPool {
  std::size_t n = 0;
  std::size_t rows = 0;
  std::uint64_t id_base = 0;  ///< row ids for the answer checker
  std::vector<float> keys;

  [[nodiscard]] std::span<const float> row(std::size_t r) const {
    return std::span<const float>(keys).subspan(r * n, n);
  }
};

/// One request as sent, and what came back.
struct Sent {
  const RowPool* pool = nullptr;
  std::size_t row = 0;
  std::size_t k = 0;
  Tier tier = Tier::kExact;
  Clock::time_point due, submit_start, submit_end;
  std::future<QueryResult> fut;
  QueryResult res;

  [[nodiscard]] Clock::time_point resolved() const {
    return submit_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::micro>(
                                  res.wall_us));
  }
  /// Due time to resolution: generator lateness plus the service's own
  /// submit-to-resolution wall time.
  [[nodiscard]] double latency_ms() const {
    return ms_between(due, submit_start) + res.wall_us / 1e3;
  }
};

std::future<QueryResult> submit(TopkService& svc, Sent& s,
                                std::vector<float> keys) {
  std::optional<topk::WorkloadHints> hints;
  if (s.tier == Tier::kApprox) hints = topk::WorkloadHints{.recall_target = 0.9};
  if (s.tier == Tier::kSharded) hints = topk::WorkloadHints{.shards = 4};
  s.submit_start = Clock::now();
  auto fut = svc.submit(std::move(keys), s.k, std::nullopt, std::nullopt, hints);
  s.submit_end = Clock::now();
  return fut;
}

std::vector<float> copy_row(const Sent& s) {
  const auto r = s.pool->row(s.row);
  return std::vector<float>(r.begin(), r.end());
}

/// What a measured phase produced, scored outside the timed region.
struct Phase {
  std::vector<Sent> sent;
  Clock::time_point start, end;  ///< first due time, last resolution
  std::vector<double> gen_lag_ms;
  ServiceStats before, after;
};

struct Scored {
  std::vector<double> latency_ms;
  /// The phase cut into equal windows of about a second: latencies by due
  /// window, completions by resolution window.  Reporting the median window
  /// keeps a few seconds of host interference from moving a run's figures.
  std::vector<std::vector<double>> window_latency_ms;
  std::vector<double> window_completed;
  double window_s = 1.0;
  std::vector<double> device_us;
  std::map<std::string, std::vector<double>> cell_latency_ms;
  std::vector<double> recall_exact, recall_approx;
  std::size_t completed = 0;
};

Scored score(const Phase& ph, AnswerChecker& checker, Report& rep) {
  Scored sc;
  const double phase_s = ms_between(ph.start, ph.end) / 1e3;
  const auto windows =
      static_cast<std::size_t>(std::max(1.0, std::floor(phase_s)));
  sc.window_s = phase_s / static_cast<double>(windows);
  sc.window_latency_ms.resize(windows);
  sc.window_completed.resize(windows);
  const auto window_of = [&](Clock::time_point t) {
    const double at = ms_between(ph.start, t) / 1e3 / sc.window_s;
    return std::min(windows - 1,
                    static_cast<std::size_t>(std::max(0.0, at)));
  };
  for (const Sent& s : ph.sent) {
    if (s.res.status != QueryStatus::kOk) {
      rep.count(false);
      continue;
    }
    ++sc.completed;
    const std::uint64_t id = s.pool->id_base + s.row;
    const auto row = s.pool->row(s.row);
    bool ok = true;
    if (s.tier == Tier::kApprox) {
      try {
        sc.recall_approx.push_back(checker.recall(id, row, s.k, s.res.topk));
      } catch (const std::invalid_argument& e) {
        ok = false;  // not k answers
      }
    } else {
      const std::string err = checker.check_exact(id, row, s.k, s.res.topk);
      if (err.empty()) {
        sc.recall_exact.push_back(1.0);
      } else {
        ok = false;
        rep.wrong(std::string(tier_name(s.tier)) + " n=" +
                  std::to_string(s.pool->n) + " k=" + std::to_string(s.k) +
                  ": " + err);
        sc.recall_exact.push_back(checker.recall(id, row, s.k, s.res.topk));
      }
    }
    rep.count(ok);
    sc.latency_ms.push_back(s.latency_ms());
    sc.window_latency_ms[window_of(s.due)].push_back(s.latency_ms());
    sc.window_completed[window_of(s.resolved())] += 1;
    sc.device_us.push_back(std::max(s.res.device_us, 1e-9));
    sc.cell_latency_ms[std::string(tier_name(s.tier)) + " n=" +
                       std::to_string(s.pool->n) + " k=" +
                       std::to_string(s.k)]
        .push_back(s.latency_ms());
  }
  return sc;
}

void set_end_to_end(Report& rep, const Scored& sc, double setup_s) {
  std::vector<double> cell_medians;
  for (const auto& [cell, lat] : sc.cell_latency_ms) {
    cell_medians.push_back(median(lat));
  }
  const auto& recalls =
      sc.recall_approx.empty() ? sc.recall_exact : sc.recall_approx;
  rep.set("setup_s", setup_s);
  rep.set("modeled_us_geomean", geomean(sc.device_us));
  rep.set("wall_ms_geomean", geomean(cell_medians));
  std::vector<double> p50, p90, qps;
  for (std::size_t w = 0; w < sc.window_completed.size(); ++w) {
    p50.push_back(quantile(sc.window_latency_ms[w], 0.5));
    p90.push_back(quantile(sc.window_latency_ms[w], 0.9));
    qps.push_back(sc.window_completed[w] / sc.window_s);
  }
  rep.set("latency_p50_ms", median(p50));
  rep.set("latency_p90_ms", median(p90));
  rep.set("throughput_qps", median(qps));
  rep.set("recall_mean",
          std::accumulate(recalls.begin(), recalls.end(), 0.0) /
              static_cast<double>(std::max<std::size_t>(recalls.size(), 1)));
  rep.set("peak_rss_mib", peak_rss_mib());
}

/// Per-layer metrics of a traced phase: its spans, the service counters it
/// moved and the routing of its answers.
void set_serve_layers(Report& rep, Tracer& tracer, const Phase& ph,
                      const Scored& sc) {
  std::vector<double> submit_us;
  std::map<topk::Algo, double> used;
  for (const Sent& s : ph.sent) {
    const std::uint64_t req = tracer.new_request();
    const std::size_t root =
        tracer.add(std::string("serve.request.") + tier_name(s.tier), req,
                   Tracer::kNoParent, s.due,
                   std::max(s.resolved(), s.submit_end));
    if (s.submit_start > s.due) {
      tracer.add("bench.gen_lag", req, root, s.due, s.submit_start);
    }
    const std::size_t service =
        tracer.add("serve.in_service", req, root, s.submit_start,
                   std::max(s.resolved(), s.submit_end));
    tracer.add("serve.submit", req, service, s.submit_start, s.submit_end);
    submit_us.push_back(ms_between(s.submit_start, s.submit_end) * 1e3);
    if (s.res.status == QueryStatus::kOk) used[s.res.algo] += 1;
  }
  for (const auto& [algo, count] : used) set_rows_used(rep, algo, count);
  const ServiceStats& a = ph.before;
  const ServiceStats& b = ph.after;
  double rows = 0, batches = 0;
  for (const auto& [size, count] : b.batch_rows_histogram) {
    const auto it = a.batch_rows_histogram.find(size);
    const double delta = static_cast<double>(
        count - (it == a.batch_rows_histogram.end() ? 0 : it->second));
    rows += static_cast<double>(size) * delta;
    batches += delta;
  }
  const double completed = static_cast<double>(b.completed - a.completed);
  const double plan_lookups = static_cast<double>(
      (b.plan_cache_hits - a.plan_cache_hits) +
      (b.plan_cache_misses - a.plan_cache_misses));
  const double binds = static_cast<double>((b.pool_hits - a.pool_hits) +
                                           (b.pool_misses - a.pool_misses));
  rep.set("serve.submit_us_p50", median(submit_us));
  rep.set("serve.mean_batch_rows", batches > 0 ? rows / batches : 0.0);
  rep.set("serve.batches_per_s", static_cast<double>(b.batches - a.batches) /
                                     (ms_between(ph.start, ph.end) / 1e3));
  rep.set("serve.modeled_us_per_query",
          (b.modeled_device_us - a.modeled_device_us) / completed);
  rep.set("serve.plan_cache_hit_rate",
          plan_lookups > 0
              ? static_cast<double>(b.plan_cache_hits - a.plan_cache_hits) /
                    plan_lookups
              : 0.0);
  rep.set("serve.approx_queries",
          static_cast<double>(b.approx_queries - a.approx_queries));
  rep.set("serve.sharded_queries",
          static_cast<double>(b.sharded_queries - a.sharded_queries));
  rep.set("serve.latency_p99_ms", quantile(sc.latency_ms, 0.99));
  rep.set("simgpu.device_allocs_steady",
          static_cast<double>(b.device_allocs - a.device_allocs) / completed);
  rep.set("simgpu.pool_hit_rate",
          binds > 0 ? static_cast<double>(b.pool_hits - a.pool_hits) / binds
                    : 0.0);
  rep.set("simgpu.pool_high_water_mib",
          static_cast<double>(b.pool_high_water) / (1024.0 * 1024.0));
}

/// recommend_algorithm and plan_select timed outside the service on the
/// shapes a phase sent (the service runs both inside its workers).
void set_core_replay(Report& rep, const Phase& ph) {
  constexpr std::size_t kMaxReplays = 2000;
  const simgpu::DeviceSpec spec = simgpu::DeviceSpec::a100();
  std::vector<double> rec_us, plan_us;
  for (const Sent& s : ph.sent) {
    if (s.tier == Tier::kSharded) continue;
    if (rec_us.size() == kMaxReplays) break;
    const double recall = s.tier == Tier::kApprox ? 0.9 : 1.0;
    auto t0 = Clock::now();
    (void)topk::recommend_algorithm(s.pool->n, s.k,
                                    {.recall_target = recall});
    auto t1 = Clock::now();
    (void)topk::plan_select(spec, 1, s.pool->n, s.k, topk::Algo::kAuto,
                            {.recall_target = recall});
    auto t2 = Clock::now();
    rec_us.push_back(ms_between(t0, t1) * 1e3);
    plan_us.push_back(ms_between(t1, t2) * 1e3);
  }
  rep.set("core.recommend_us_p50", median(rec_us));
  rep.set("core.plan_select_us_p50", median(plan_us));
}

// Generator lateness past which a run is flagged.  The open loop's
// lateness enters every latency, so its bound is tight; the closed loop's
// single generator also copies large rows between replies, which delays
// sends (throughput) but not the latency of a sent request.
constexpr double kRowwiseMaxLagMs = 2.0;
constexpr double kMixedMaxLagMs = 20.0;

// ---- serve_rowwise ----------------------------------------------------------

// Rows of 16 KiB; 24576 of them (384 MiB) exceed a 300 MiB last-level
// cache, so requests do not find their rows cache-resident.
constexpr std::size_t kRowwiseN = std::size_t{1} << 12;
constexpr std::size_t kRowwisePoolRows = 24576;
// Below the service's knee on a 4-core host; near 20k req/s the p50 becomes
// unstable and the generator falls behind.
constexpr double kRowwiseRateQps = 8000;

topk::serve::ServiceConfig rowwise_config() {
  topk::serve::ServiceConfig cfg;
  cfg.num_devices = 1;
  cfg.max_batch = 256;
  cfg.max_wait = std::chrono::microseconds(200);
  return cfg;
}

constexpr auto kSpinBeforeDue = std::chrono::microseconds(200);

/// Open loop: Poisson arrivals at `rate_qps` for `seconds`, each request
/// due at its arrival time whether or not earlier ones have resolved.
Phase open_loop(TopkService& svc, const RowPool& pool, double rate_qps,
                double seconds, std::mt19937_64& rng) {
  constexpr std::size_t kKs[] = {8, 16, 32};
  std::exponential_distribution<double> gap_s(rate_qps);
  std::uniform_int_distribution<std::size_t> pick_row(0, pool.rows - 1);
  std::uniform_int_distribution<std::size_t> pick_k(0, 2);
  Phase ph;
  ph.sent.reserve(static_cast<std::size_t>(rate_qps * seconds * 1.1) + 16);
  ph.before = svc.stats();
  ph.start = Clock::now() + std::chrono::milliseconds(1);
  const auto stop = ph.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
  for (auto due = ph.start; due < stop;
       due += std::chrono::duration_cast<Clock::duration>(
           std::chrono::duration<double>(gap_s(rng)))) {
    Sent s;
    s.pool = &pool;
    s.row = pick_row(rng);
    s.k = kKs[pick_k(rng)];
    s.due = due;
    std::vector<float> keys = copy_row(s);  // prepared before it is due
    // Sleep until shortly before the due time, then spin: on a busy host a
    // sleeping thread can take a millisecond to wake, and the generator's
    // lateness enters every latency.
    if (due - Clock::now() > kSpinBeforeDue) {
      std::this_thread::sleep_until(due - kSpinBeforeDue);
    }
    while (Clock::now() < due) {
    }
    s.fut = submit(svc, s, std::move(keys));
    ph.gen_lag_ms.push_back(ms_between(s.due, s.submit_start));
    ph.sent.push_back(std::move(s));
  }
  ph.end = ph.start;
  for (Sent& s : ph.sent) {
    s.res = s.fut.get();
    ph.end = std::max(ph.end, s.resolved());
  }
  ph.after = svc.stats();
  return ph;
}

// ---- serve_mixed ------------------------------------------------------------

constexpr std::size_t kMixedKs[] = {16, 100, 256, 1000, 2048};
constexpr std::size_t kCallers = 4;

struct MixedPools {
  std::vector<RowPool> plain;    ///< per (distribution, n)
  std::vector<RowPool> sharded;  ///< per distribution, rows sent sharded
};

MixedPools make_mixed_pools(const Options& opt) {
  const topk::data::DistributionSpec dists[] = {
      {topk::data::Distribution::kUniform, 20},
      {topk::data::Distribution::kNormal, 20},
      {topk::data::Distribution::kAdversarial, 20}};
  const std::vector<std::size_t> ns =
      opt.tiny ? std::vector<std::size_t>{1u << 12, 1u << 13, 1u << 14}
               : std::vector<std::size_t>{1u << 14, 1u << 16, 1u << 18,
                                          1u << 20};
  const std::size_t sharded_n = opt.tiny ? 1u << 16 : 1u << 22;
  MixedPools mp;
  std::uint64_t stream = 100;
  const auto make = [&](const topk::data::DistributionSpec& d, std::size_t n,
                        std::size_t rows) {
    RowPool p{n, rows, stream * 64, {}};
    p.keys = topk::data::generate(d, n * rows, mix_seed(opt.seed, stream++));
    return p;
  };
  for (const auto& d : dists) {
    for (std::size_t n : ns) mp.plain.push_back(make(d, n, 4));
    mp.sharded.push_back(make(d, sharded_n, 2));
  }
  return mp;
}

topk::serve::ServiceConfig mixed_config() {
  topk::serve::ServiceConfig cfg;
  cfg.num_devices = 2;
  cfg.max_wait = std::chrono::microseconds(500);
  return cfg;
}

/// Draw one request: about 1 in 32 is a sharded row, about 1 in 8 asks for
/// recall 0.9, the rest are exact.
Sent draw_mixed(const MixedPools& mp, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double tier = u(rng);
  Sent s;
  s.tier = tier < 1.0 / 32 ? Tier::kSharded
           : tier < 1.0 / 32 + 1.0 / 8 ? Tier::kApprox
                                       : Tier::kExact;
  const auto& pools = s.tier == Tier::kSharded ? mp.sharded : mp.plain;
  s.pool = &pools[std::uniform_int_distribution<std::size_t>(
      0, pools.size() - 1)(rng)];
  s.row = std::uniform_int_distribution<std::size_t>(0, s.pool->rows - 1)(rng);
  s.k = kMixedKs[std::uniform_int_distribution<std::size_t>(0, 4)(rng)];
  return s;
}

/// Closed loop: kCallers requests outstanding; a caller sends its next
/// request as soon as its previous one resolves, until `seconds` elapse.
/// The next request's row is copied while the previous one is in flight.
Phase closed_loop(TopkService& svc, const MixedPools& mp, double seconds,
                  std::mt19937_64& rng) {
  struct Caller {
    Sent cur;
    Sent next;
    std::vector<float> next_keys;
    bool busy = false;
  };
  Phase ph;
  ph.before = svc.stats();
  std::vector<Caller> callers(kCallers);
  const auto send = [&](Caller& c) {
    c.cur = std::move(c.next);
    c.cur.due = Clock::now();
    c.cur.fut = submit(svc, c.cur, std::move(c.next_keys));
    c.busy = true;
    c.next = draw_mixed(mp, rng);
    c.next_keys = copy_row(c.next);
  };
  for (Caller& c : callers) {
    c.next = draw_mixed(mp, rng);
    c.next_keys = copy_row(c.next);
  }
  ph.start = Clock::now();
  const auto stop = ph.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
  for (Caller& c : callers) send(c);
  for (;;) {
    Caller* oldest = nullptr;
    bool harvested = false;
    for (Caller& c : callers) {
      if (!c.busy) continue;
      if (c.cur.fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        if (!oldest || c.cur.due < oldest->cur.due) oldest = &c;
        continue;
      }
      c.cur.res = c.cur.fut.get();
      c.busy = false;
      harvested = true;
      const Clock::time_point done = c.cur.resolved();
      ph.sent.push_back(std::move(c.cur));
      if (Clock::now() < stop) {
        send(c);
        // How late the caller sent after its previous reply was ready.
        ph.gen_lag_ms.push_back(
            std::max(0.0, ms_between(done, c.cur.submit_start)));
      }
    }
    if (!harvested) {
      if (!oldest) break;  // every caller has stopped
      oldest->cur.fut.wait_for(std::chrono::microseconds(50));
    }
  }
  ph.end = ph.start;
  for (const Sent& s : ph.sent) ph.end = std::max(ph.end, s.resolved());
  ph.after = svc.stats();
  return ph;
}

/// Coordinator::select called directly on the sharded rows: the shard
/// layer's phase split without the service around it.
void set_shard_layers(Report& rep, Tracer& tracer, const MixedPools& mp) {
  topk::shard::ShardConfig cfg;
  cfg.devices = 4;
  cfg.shards = 4;
  topk::shard::Coordinator coord(cfg);
  std::vector<double> sel, gat, mer, out, wall, share;
  for (const RowPool& pool : mp.sharded) {
    for (std::size_t k : kMixedKs) {
      for (int rep_i = 0; rep_i < 2; ++rep_i) {
        const std::uint64_t req = tracer.new_request();
        const auto t0 = Clock::now();
        const topk::shard::ShardedResult r = coord.select(pool.row(0), k);
        const auto t1 = Clock::now();
        tracer.add("shard.select", req, Tracer::kNoParent, t0, t1);
        if (rep_i == 0) continue;  // the first call of a shape plans it
        sel.push_back(r.timing.select_us);
        gat.push_back(r.timing.gather_us);
        mer.push_back(r.timing.merge_us);
        out.push_back(r.timing.output_us);
        wall.push_back(ms_between(t0, t1));
        share.push_back(r.timing.merge_us / r.timing.total_us);
      }
    }
  }
  rep.set("shard.select_us", median(sel));
  rep.set("shard.gather_us", median(gat));
  rep.set("shard.merge_us", median(mer));
  rep.set("shard.output_us", median(out));
  rep.set("shard.wall_ms", median(wall));
  rep.set("shard.merge_share", median(share));
}

/// The measurement both serve workloads share.  `set_up` generates the inputs,
/// builds the service and runs its untimed warm pass; `run_phase(seconds)`
/// measures one phase.  Untraced: set-up kSetupReps times, one measured
/// phase, end-to-end metrics.  Traced: an untraced half and a traced half
/// (for the overhead), then the per-layer metrics, with `layers` adding the
/// workload's own probes.
template <typename SetUp, typename RunPhase, typename Layers>
Report measure_serve(const Options& opt, SetUp&& set_up, RunPhase&& run_phase,
                     double max_lag_ms, Layers&& layers) {
  Report rep(opt.trace);
  std::vector<double> setups;
  for (int i = 0; i < (opt.trace ? 1 : kSetupReps); ++i) {
    const auto t0 = Clock::now();
    set_up();
    setups.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  AnswerChecker checker;
  const HostNoise noise;
  if (!opt.trace) {
    const Phase ph = run_phase(opt.seconds);
    const Scored sc = score(ph, checker, rep);
    set_end_to_end(rep, sc, median(setups));
    record_host_noise(rep, noise, quantile(ph.gen_lag_ms, 0.99), max_lag_ms);
    return rep;
  }

  const Phase plain = run_phase(opt.seconds / 2);
  const Scored plain_sc = score(plain, checker, rep);
  const Phase traced = run_phase(opt.seconds / 2);
  const Scored traced_sc = score(traced, checker, rep);
  Tracer tracer;
  set_serve_layers(rep, tracer, traced, traced_sc);
  set_core_replay(rep, traced);
  layers(rep, tracer);
  rep.set("bench.trace_overhead_pct",
          100.0 * (quantile(traced_sc.latency_ms, 0.5) /
                       quantile(plain_sc.latency_ms, 0.5) -
                   1.0));
  record_host_noise(rep, noise, quantile(traced.gen_lag_ms, 0.99), max_lag_ms);
  finish_trace(rep, tracer, opt.trace_out);
  return rep;
}

}  // namespace

Report run_serve_rowwise(const Options& opt) {
  const std::size_t rows = opt.tiny ? 512 : kRowwisePoolRows;
  const double rate = opt.tiny ? 1000 : kRowwiseRateQps;
  const double warm_s = opt.tiny ? 0.2 : 0.5;
  std::mt19937_64 rng(mix_seed(opt.seed, 1));
  RowPool pool;
  std::unique_ptr<TopkService> svc;
  return measure_serve(
      opt,
      [&] {
        svc.reset();
        pool = RowPool{kRowwiseN, rows, 0, {}};
        pool.keys = topk::data::uniform_values(kRowwiseN * rows,
                                               mix_seed(opt.seed, 0));
        svc = std::make_unique<TopkService>(rowwise_config());
        (void)open_loop(*svc, pool, rate, warm_s, rng);
      },
      [&](double seconds) { return open_loop(*svc, pool, rate, seconds, rng); },
      kRowwiseMaxLagMs, [](Report&, Tracer&) {});
}

Report run_serve_mixed(const Options& opt) {
  std::mt19937_64 rng(mix_seed(opt.seed, 2));
  const double warm_s = opt.tiny ? 0.2 : 0.5;
  MixedPools mp;
  std::unique_ptr<TopkService> svc;
  return measure_serve(
      opt,
      [&] {
        svc.reset();
        mp = make_mixed_pools(opt);
        svc = std::make_unique<TopkService>(mixed_config());
        (void)closed_loop(*svc, mp, warm_s, rng);
      },
      [&](double seconds) { return closed_loop(*svc, mp, seconds, rng); },
      kMixedMaxLagMs,
      [&](Report& rep, Tracer& tracer) { set_shard_layers(rep, tracer, mp); });
}

}  // namespace perfbench
