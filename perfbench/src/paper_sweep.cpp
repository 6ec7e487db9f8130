// paper_sweep: the paper's grid — three distributions x three shapes x three
// k — through select_batch(kAuto), one caller and one Device, closed loop.
// topk kernels, simgpu emulation and core's recommender do all the work;
// serve and shard are idle.

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <variant>
#include <vector>

#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Cell {
  std::size_t input = 0;  ///< index into Sweep::inputs
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  std::string label;
};

struct Sweep {
  std::vector<std::vector<float>> inputs;  ///< one per (distribution, shape)
  std::vector<Cell> cells;
  std::unique_ptr<simgpu::Device> dev;
};

std::unique_ptr<Sweep> make_sweep(const Options& opt) {
  struct Shape {
    std::size_t batch, n;
  };
  const std::vector<Shape> shapes =
      opt.tiny ? std::vector<Shape>{{1, 1u << 14}, {1, 1u << 16}, {4, 1u << 12}}
               : std::vector<Shape>{{1, 1u << 20}, {1, 1u << 22}, {100, 1u << 16}};
  const topk::data::DistributionSpec dists[] = {
      {topk::data::Distribution::kUniform, 20},
      {topk::data::Distribution::kNormal, 20},
      {topk::data::Distribution::kAdversarial, 20}};
  auto s = std::make_unique<Sweep>();
  for (const auto& d : dists) {
    for (const Shape& sh : shapes) {
      const std::size_t input = s->inputs.size();
      s->inputs.push_back(topk::data::generate(d, sh.batch * sh.n,
                                               mix_seed(opt.seed, input)));
      for (std::size_t k : {32, 256, 2048}) {
        s->cells.push_back({input, sh.batch, sh.n, k,
                            d.name() + " " + std::to_string(sh.batch) + "x" +
                                std::to_string(sh.n) + " k=" +
                                std::to_string(k)});
      }
    }
  }
  s->dev = std::make_unique<simgpu::Device>();
  return s;
}

/// Modeled µs of everything recorded on `dev` since the last clear.
double modeled_us(const simgpu::Device& dev) {
  return simgpu::CostModel(dev.spec()).total_us(dev.events());
}

struct Call {
  Clock::time_point start, end;
  double wall_ms = 0.0;
  double modeled_us = 0.0;
  bool ok = false;
  std::vector<topk::SelectResult> out;
};

Call call_auto(Sweep& s, const Cell& c) {
  Call call;
  s.dev->clear_events();
  call.start = Clock::now();
  try {
    call.out = topk::select_batch(*s.dev, s.inputs[c.input], c.batch, c.n,
                                  c.k, topk::Algo::kAuto);
    call.ok = true;
  } catch (const std::exception&) {
    call.ok = false;
  }
  call.end = Clock::now();
  call.wall_ms = ms_between(call.start, call.end);
  call.modeled_us = modeled_us(*s.dev);
  return call;
}

std::span<const float> row_of(const Sweep& s, const Cell& c, std::size_t r) {
  return std::span<const float>(s.inputs[c.input]).subspan(r * c.n, c.n);
}

/// Verify every row of a call; returns the mean recall@k over its rows
/// (1 for a fully correct call).
double check_call(const Sweep& s, const Cell& c, const Call& call,
                  AnswerChecker& checker, Report& rep) {
  if (!call.ok || call.out.size() != c.batch) {
    rep.count(false);
    return 0.0;
  }
  double recall = 0.0;
  bool ok = true;
  for (std::size_t r = 0; r < c.batch; ++r) {
    const auto row = row_of(s, c, r);
    const std::uint64_t id = c.input * 1024 + r;
    const std::string err = checker.check_exact(id, row, c.k, call.out[r]);
    if (err.empty()) {
      recall += 1.0;
    } else {
      ok = false;
      rep.wrong(c.label + " row " + std::to_string(r) + ": " + err);
      recall += checker.recall(id, row, c.k, call.out[r]);
    }
  }
  rep.count(ok);
  return recall / static_cast<double>(c.batch);
}

/// Input generation, Device construction and one untimed pass.
double set_up(const Options& opt, std::unique_ptr<Sweep>& s) {
  const auto t0 = Clock::now();
  s.reset();
  s = make_sweep(opt);
  for (const Cell& c : s->cells) (void)call_auto(*s, c);
  return ms_between(t0, Clock::now()) / 1e3;
}

/// Per-cell samples of repeated select_batch passes.
struct Passes {
  std::vector<std::vector<double>> wall_ms, modeled_us;
  std::vector<double> calls_ms;  ///< every call, in order
  std::vector<double> pass_qps;  ///< calls per second of each pass
  double recall_sum = 0.0;
};

void run_passes(Sweep& s, double seconds, AnswerChecker& checker, Report& rep,
                Passes& p, Tracer* tracer = nullptr) {
  p.wall_ms.resize(s.cells.size());
  p.modeled_us.resize(s.cells.size());
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  do {
    double pass_ms = 0.0;
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
      const Cell& c = s.cells[i];
      std::uint64_t req = 0;
      std::size_t root = 0;
      if (tracer) {
        req = tracer->new_request();
        root = tracer->open("paper_sweep.cell", req);
      }
      Call call = call_auto(s, c);
      if (tracer) {
        tracer->add("core.select_batch", req, root, call.start, call.end);
      }
      p.wall_ms[i].push_back(call.wall_ms);
      p.modeled_us[i].push_back(call.modeled_us);
      p.calls_ms.push_back(call.wall_ms);
      pass_ms += call.wall_ms;
      const std::size_t verify =
          tracer ? tracer->open("bench.verify", req, root) : 0;
      p.recall_sum += check_call(s, c, call, checker, rep);
      if (tracer) {
        tracer->close(verify);
        tracer->close(root);
      }
    }
    p.pass_qps.push_back(static_cast<double>(s.cells.size()) / (pass_ms / 1e3));
  } while (Clock::now() < end);
}

std::vector<double> medians(const std::vector<std::vector<double>>& v) {
  std::vector<double> out;
  for (const auto& x : v) out.push_back(median(x));
  return out;
}

// ---- traced-run probes ----------------------------------------------------

struct EventCounts {
  double kernels = 0, device_bytes = 0, lane_ops = 0, memcpy_bytes = 0,
         syncs = 0;
};

EventCounts count_events(const simgpu::EventLog& log) {
  EventCounts c;
  for (const simgpu::Event& e : log) {
    if (const auto* k = std::get_if<simgpu::KernelEvent>(&e)) {
      c.kernels += 1;
      c.device_bytes += static_cast<double>(k->stats.bytes_total());
      c.lane_ops += static_cast<double>(k->stats.lane_ops);
    } else if (const auto* m = std::get_if<simgpu::MemcpyEvent>(&e)) {
      c.memcpy_bytes += static_cast<double>(m->bytes);
    } else if (std::holds_alternative<simgpu::SyncEvent>(e)) {
      c.syncs += 1;
    }
  }
  return c;
}

/// One plan_select + run_select of `algo` on a resident copy of the cell's
/// input, through a warm workspace: the core layer without select_batch's
/// staging and result assembly.
struct PlanRun {
  double plan_us = 0.0;
  double run_ms = 0.0;
  double modeled_us = 0.0;
  topk::Algo algo = topk::Algo::kAuto;
  std::vector<topk::SelectResult> out;
};

PlanRun plan_run(Sweep& s, const Cell& c, topk::Algo algo,
                 simgpu::Workspace& ws, Tracer* tracer, std::uint64_t req,
                 std::size_t parent) {
  simgpu::Device& dev = *s.dev;
  simgpu::ScopedWorkspace scope(dev);
  auto in = dev.alloc<float>(c.batch * c.n);
  dev.upload(in, std::span<const float>(s.inputs[c.input]));
  auto vals = dev.alloc<float>(c.batch * c.k);
  auto idx = dev.alloc<std::uint32_t>(c.batch * c.k);

  PlanRun pr;
  const auto t0 = Clock::now();
  const topk::ExecutionPlan plan =
      topk::plan_select(dev.spec(), c.batch, c.n, c.k, algo);
  const auto t1 = Clock::now();
  dev.clear_events();
  topk::run_select(dev, plan, ws, in, vals, idx);
  const auto t2 = Clock::now();
  pr.plan_us = ms_between(t0, t1) * 1e3;
  pr.run_ms = ms_between(t1, t2);
  pr.modeled_us = modeled_us(dev);
  pr.algo = plan.algo();
  if (tracer) {
    tracer->add("core.plan_select", req, parent, t0, t1);
    tracer->add("core.run_select", req, parent, t1, t2);
  }
  const std::vector<float> hv = dev.to_host(vals);
  const std::vector<std::uint32_t> hi = dev.to_host(idx);
  for (std::size_t r = 0; r < c.batch; ++r) {
    topk::SelectResult res;
    res.values.assign(hv.begin() + r * c.k, hv.begin() + (r + 1) * c.k);
    res.indices.assign(hi.begin() + r * c.k, hi.begin() + (r + 1) * c.k);
    pr.out.push_back(std::move(res));
  }
  return pr;
}

void traced_run(const Options& opt, Sweep& s, Report& rep) {
  AnswerChecker checker;
  const HostNoise noise;
  const std::size_t cells = s.cells.size();

  // Untraced and traced halves of the same passes, for the overhead.
  const std::uint64_t allocs0 = s.dev->alloc_calls();
  const auto pool0 = s.dev->memory_pool().stats();
  Passes plain;
  run_passes(s, opt.seconds / 2, checker, rep, plain);
  const double calls = static_cast<double>(plain.calls_ms.size());
  const auto pool1 = s.dev->memory_pool().stats();
  rep.set("simgpu.device_allocs_steady",
          static_cast<double>(s.dev->alloc_calls() - allocs0) / calls);
  const double binds = static_cast<double>((pool1.hits - pool0.hits) +
                                           (pool1.misses - pool0.misses));
  rep.set("simgpu.pool_hit_rate",
          binds > 0 ? static_cast<double>(pool1.hits - pool0.hits) / binds
                    : 0.0);
  rep.set("simgpu.pool_high_water_mib",
          static_cast<double>(pool1.high_water) / (1024.0 * 1024.0));

  Tracer tracer;
  Passes traced;
  run_passes(s, opt.seconds / 2, checker, rep, traced, &tracer);
  const std::vector<double> plain_ms = medians(plain.wall_ms);
  const std::vector<double> traced_ms = medians(traced.wall_ms);
  const double plain_sum = std::accumulate(plain_ms.begin(), plain_ms.end(), 0.0);
  const double traced_sum =
      std::accumulate(traced_ms.begin(), traced_ms.end(), 0.0);
  rep.set("bench.trace_overhead_pct", 100.0 * (traced_sum / plain_sum - 1.0));

  // Layer decomposition of each cell: recommend, plan, run, and the
  // simgpu event counts of the select_batch call.
  simgpu::Workspace ws(*s.dev);
  std::vector<double> recommend_us, plan_us, run_ms(cells), glue_ms(cells),
      auto_modeled(cells);
  EventCounts totals;
  double elems = 0.0;
  std::map<topk::Algo, double> used;
  for (std::size_t i = 0; i < cells; ++i) {
    const Cell& c = s.cells[i];
    const std::uint64_t req = tracer.new_request();
    const std::size_t root = tracer.open("paper_sweep.decompose", req);
    (void)call_auto(s, c);
    const EventCounts ec = count_events(s.dev->events());
    totals.kernels += ec.kernels;
    totals.device_bytes += ec.device_bytes;
    totals.lane_ops += ec.lane_ops;
    totals.memcpy_bytes += ec.memcpy_bytes;
    totals.syncs += ec.syncs;

    for (int rep_i = 0; rep_i < 5; ++rep_i) {
      const auto t0 = Clock::now();
      (void)topk::recommend_algorithm(c.n, c.k, {.batch = c.batch});
      recommend_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
    std::vector<double> runs, plans;
    PlanRun pr;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
      pr = plan_run(s, c, topk::Algo::kAuto, ws, &tracer, req, root);
      runs.push_back(pr.run_ms);
      plans.push_back(pr.plan_us);
    }
    plan_us.insert(plan_us.end(), plans.begin(), plans.end());
    run_ms[i] = median(runs);
    auto_modeled[i] = pr.modeled_us;
    elems += static_cast<double>(c.batch * c.n);
    used[pr.algo] += 1;
    // select_batch minus its plan + run: staging and result assembly.
    glue_ms[i] = std::max(median(traced.wall_ms[i]) - median(plans) / 1e3 -
                              run_ms[i],
                          1e-3);
    tracer.close(root);
  }
  rep.set("core.recommend_us_p50", median(recommend_us));
  rep.set("core.plan_select_us_p50", median(plan_us));
  rep.set("core.run_select_ms_geomean", geomean(run_ms));
  rep.set("core.host_glue_ms_geomean", geomean(glue_ms));
  rep.set("simgpu.emu_ns_per_elem",
          std::accumulate(run_ms.begin(), run_ms.end(), 0.0) * 1e6 / elems);
  const double n_cells = static_cast<double>(cells);
  rep.set("simgpu.kernels_per_query", totals.kernels / n_cells);
  rep.set("simgpu.device_bytes_per_query", totals.device_bytes / n_cells);
  rep.set("simgpu.lane_ops_per_query", totals.lane_ops / n_cells);
  rep.set("simgpu.memcpy_bytes_per_query", totals.memcpy_bytes / n_cells);
  rep.set("simgpu.host_syncs_per_query", totals.syncs / n_cells);
  for (const auto& [algo, count] : used) set_rows_used(rep, algo, count);

  // Regret oracle: every exact registry row that accepts the cell, planned
  // and run once; auto is charged against the cheapest modeled answer.
  std::map<topk::Algo, std::vector<double>> row_wall;
  std::vector<double> regret;
  for (std::size_t i = 0; i < cells; ++i) {
    const Cell& c = s.cells[i];
    const std::uint64_t req = tracer.new_request();
    const std::size_t root = tracer.open("oracle.cell", req);
    double best = auto_modeled[i];
    for (topk::Algo algo : topk::all_algorithms()) {
      if (topk::max_k(algo, c.n) < c.k) continue;
      const std::size_t span =
          tracer.open("topk." + std::string(topk::algo_key(algo)), req, root);
      PlanRun pr;
      try {
        pr = plan_run(s, c, algo, ws, &tracer, req, span);
      } catch (const std::invalid_argument&) {
        tracer.close(span);
        continue;  // the row's planner rejects this shape
      }
      tracer.close(span);
      bool ok = true;
      for (std::size_t r = 0; r < c.batch; ++r) {
        const std::string err = checker.check_exact(
            c.input * 1024 + r, row_of(s, c, r), c.k, pr.out[r]);
        if (!err.empty()) {
          ok = false;
          rep.wrong("oracle row " + std::string(topk::algo_key(algo)) +
                    " on " + c.label + ": " + err);
          break;
        }
      }
      rep.count(ok);
      if (!ok) continue;
      row_wall[algo].push_back(pr.run_ms);
      best = std::min(best, pr.modeled_us);
    }
    tracer.close(root);
    regret.push_back(auto_modeled[i] / best);
  }
  for (const auto& [algo, walls] : row_wall) {
    rep.set("topk." + std::string(topk::algo_key(algo)) + ".wall_ms_geomean",
            geomean(walls));
  }
  rep.set("core.auto_regret_geomean", geomean(regret));
  rep.set("core.auto_regret_max",
          *std::max_element(regret.begin(), regret.end()));
  rep.set("core.auto_regret_cells",
          static_cast<double>(std::count_if(regret.begin(), regret.end(),
                                            [](double r) { return r > 1.05; })));

  record_host_noise(rep, noise, 0.0, 0.0);
  finish_trace(rep, tracer, opt.trace_out);
}

}  // namespace

Report run_paper_sweep(const Options& opt) {
  Report rep(opt.trace);
  std::unique_ptr<Sweep> s;
  if (opt.trace) {
    (void)set_up(opt, s);
    traced_run(opt, *s, rep);
    return rep;
  }

  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) setups.push_back(set_up(opt, s));
  rep.set("setup_s", median(setups));

  AnswerChecker checker;
  const HostNoise noise;
  Passes p;
  run_passes(*s, opt.seconds, checker, rep, p);
  rep.set("modeled_us_geomean", geomean(medians(p.modeled_us)));
  rep.set("wall_ms_geomean", geomean(medians(p.wall_ms)));
  rep.set("latency_p50_ms", quantile(p.calls_ms, 0.5));
  rep.set("latency_p90_ms", quantile(p.calls_ms, 0.9));
  rep.set("throughput_qps", median(p.pass_qps));
  rep.set("recall_mean",
          p.recall_sum / static_cast<double>(p.calls_ms.size()));
  rep.set("peak_rss_mib", peak_rss_mib());
  rep.note("paper_sweep: " + std::to_string(p.calls_ms.size() / s->cells.size()) +
           " passes of " + std::to_string(s->cells.size()) + " cells");
  record_host_noise(rep, noise, 0.0, 0.0);
  return rep;
}

}  // namespace perfbench
