// Regret of the Algo::kAuto dispatch against the best exact row, per shape.
//
// Grid: {A100, H100, A10} x {uniform, adversarial(M=20)} x batch {1, 100} x
// n {2^12, 2^16, 2^20} x k {16, 256, 2048} — 108 cells.  In every cell each
// exact registry row (all_algorithms() minus the approximate tier and the
// shard merge) runs on the same keys; the oracle is the cheapest modeled
// device time among them.  A cell's regret is the modeled time of
// recommend_algorithm(spec, n, k, {batch})'s pick over the oracle's.  For
// every row the race priced, the bench also prints predict_us against the
// modeled time the row was actually charged.
//
// Output: a CSV table on stdout (one row per cell) and BENCH_regret.json in
// the working directory.  `--smoke` runs the A100 cells with n <= 2^16.
// Gates (nonzero exit on failure), per device spec:
//   * geomean regret <= 1.10,
//   * max regret <= 1.5.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace topk::bench {
namespace {

struct RowRun {
  Algo algo = Algo::kAuto;
  double model_us = 0.0;
  double predicted_us = -1.0;  ///< < 0: the race did not price this row
};

struct Cell {
  std::string spec;
  std::string dist;
  std::size_t batch = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  Algo pick = Algo::kAuto;
  Algo oracle = Algo::kAuto;
  double pick_us = 0.0;
  double oracle_us = 0.0;
  std::vector<RowRun> rows;

  [[nodiscard]] double regret() const { return pick_us / oracle_us; }
};

/// Every exact registry row: the oracle set.
std::vector<Algo> exact_rows() {
  std::vector<Algo> rows;
  for (const Algo a : all_algorithms()) {
    if (a == Algo::kBucketApprox || a == Algo::kShardMerge) continue;
    rows.push_back(a);
  }
  return rows;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace
}  // namespace topk::bench

int main(int argc, char** argv) {
  using namespace topk;
  using namespace topk::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const BenchScale scale = BenchScale::from_env();
  std::vector<std::pair<std::string, simgpu::DeviceSpec>> specs = {
      {"A100", simgpu::DeviceSpec::a100()}};
  if (!smoke) {
    specs.emplace_back("H100", simgpu::DeviceSpec::h100());
    specs.emplace_back("A10", simgpu::DeviceSpec::a10());
  }
  const std::vector<data::DistributionSpec> dists = {
      {data::Distribution::kUniform, 0},
      {data::Distribution::kAdversarial, 20},
  };
  const std::vector<int> log_ns =
      smoke ? std::vector<int>{12, 16} : std::vector<int>{12, 16, 20};
  const std::vector<Algo> oracle_rows = exact_rows();

  CsvWriter csv("spec,dist,batch,n,k,pick,pick_us,oracle,oracle_us,regret");
  std::vector<Cell> cells;
  for (const auto& [spec_name, spec] : specs) {
    for (const auto& dist : dists) {
      for (const std::size_t batch : {std::size_t{1}, std::size_t{100}}) {
        for (const int log_n : log_ns) {
          const std::size_t n = std::size_t{1} << log_n;
          const auto values = data::generate(dist, batch * n, 0x5E6 + n);
          for (const std::size_t k : {16, 256, 2048}) {
            Cell c;
            c.spec = spec_name;
            c.dist = dist.name();
            c.batch = batch;
            c.n = n;
            c.k = k;
            WorkloadHints hints;
            hints.batch = batch;
            c.pick = recommend_algorithm(spec, n, k, hints);
            std::map<Algo, double> predicted;
            for (const PricedAlgo& p : price_candidates(spec, n, k, hints)) {
              predicted[p.algo] = p.predicted_us;
            }
            c.oracle_us = std::numeric_limits<double>::infinity();
            for (const Algo a : oracle_rows) {
              if (k > max_k(a, n)) continue;
              const RunResult r =
                  run_algo(spec, values, batch, n, k, a, scale.verify);
              if (!r.verified) return 1;
              RowRun row;
              row.algo = a;
              row.model_us = r.model_us;
              if (const auto it = predicted.find(a); it != predicted.end()) {
                row.predicted_us = it->second;
              }
              c.rows.push_back(row);
              if (a == c.pick) c.pick_us = r.model_us;
              if (r.model_us < c.oracle_us) {
                c.oracle_us = r.model_us;
                c.oracle = a;
              }
            }
            std::ostringstream line;
            line << spec_name << "," << c.dist << "," << batch << "," << n
                 << "," << k << "," << algo_key(c.pick) << ","
                 << fmt(c.pick_us) << "," << algo_key(c.oracle) << ","
                 << fmt(c.oracle_us) << "," << fmt(c.regret());
            csv.row(line.str());
            for (const RowRun& row : c.rows) {
              if (row.predicted_us < 0.0) continue;
              std::cout << "    " << algo_key(row.algo) << " predicted "
                        << fmt(row.predicted_us) << " us, modeled "
                        << fmt(row.model_us) << " us ("
                        << (row.predicted_us >= row.model_us ? "+" : "")
                        << fmt(std::round(1000.0 *
                                          (row.predicted_us / row.model_us -
                                           1.0)) /
                               10.0)
                        << "%)\n";
            }
            cells.push_back(std::move(c));
          }
        }
      }
    }
  }

  // --- per-spec summary ----------------------------------------------------
  struct Summary {
    double log_sum = 0.0;
    double max = 0.0;
    std::size_t cells = 0;
    std::size_t above_5pct = 0;
  };
  std::map<std::string, Summary> by_spec;
  for (const Cell& c : cells) {
    Summary& s = by_spec[c.spec];
    s.log_sum += std::log(c.regret());
    s.max = std::max(s.max, c.regret());
    s.above_5pct += c.regret() > 1.05 ? 1 : 0;
    ++s.cells;
  }
  // Prediction error of each priced row on uniform keys (the case the
  // expectations are calibrated on) and over every distribution.
  std::map<Algo, std::pair<double, double>> err;  // uniform max, overall max
  for (const Cell& c : cells) {
    for (const RowRun& row : c.rows) {
      if (row.predicted_us < 0.0) continue;
      const double e = std::abs(row.predicted_us / row.model_us - 1.0);
      auto& [uniform_max, all_max] = err[row.algo];
      if (c.dist == "uniform") uniform_max = std::max(uniform_max, e);
      all_max = std::max(all_max, e);
    }
  }
  std::cout << "\nregret per spec (geomean / max / cells > 1.05x):\n";
  for (const auto& [spec, s] : by_spec) {
    std::cout << "  " << spec << ": "
              << fmt(std::exp(s.log_sum / static_cast<double>(s.cells)))
              << " / " << fmt(s.max) << " / " << s.above_5pct << " of "
              << s.cells << "\n";
  }
  std::cout << "max |predicted/modeled - 1| per priced row (uniform, all):\n";
  for (const auto& [algo, e] : err) {
    std::cout << "  " << algo_key(algo) << ": " << fmt(e.first) << ", "
              << fmt(e.second) << "\n";
  }

  std::ofstream out("BENCH_regret.json");
  out << "{\n  \"config\": {\"smoke\": " << (smoke ? "true" : "false")
      << "},\n  \"specs\": {";
  bool first = true;
  for (const auto& [spec, s] : by_spec) {
    out << (first ? "" : ",") << "\n    \"" << spec
        << "\": {\"geomean_regret\": "
        << std::exp(s.log_sum / static_cast<double>(s.cells))
        << ", \"max_regret\": " << s.max << ", \"cells\": " << s.cells
        << ", \"cells_above_1_05\": " << s.above_5pct << "}";
    first = false;
  }
  out << "\n  },\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"spec\": \"" << c.spec << "\", \"dist\": \"" << c.dist
        << "\", \"batch\": " << c.batch << ", \"n\": " << c.n
        << ", \"k\": " << c.k << ", \"pick\": \"" << algo_key(c.pick)
        << "\", \"pick_us\": " << c.pick_us << ", \"oracle\": \""
        << algo_key(c.oracle) << "\", \"oracle_us\": " << c.oracle_us
        << ", \"regret\": " << c.regret() << ", \"rows\": [";
    for (std::size_t j = 0; j < c.rows.size(); ++j) {
      const RowRun& row = c.rows[j];
      out << (j == 0 ? "" : ", ") << "{\"algo\": \"" << algo_key(row.algo)
          << "\", \"modeled_us\": " << row.model_us;
      if (row.predicted_us >= 0.0) {
        out << ", \"predicted_us\": " << row.predicted_us;
      }
      out << "}";
    }
    out << "]}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote BENCH_regret.json (" << cells.size() << " cells)\n";

  // --- gates ---------------------------------------------------------------
  bool ok = true;
  for (const auto& [spec, s] : by_spec) {
    const double geo = std::exp(s.log_sum / static_cast<double>(s.cells));
    if (geo > 1.10) {
      std::cerr << "FAIL: " << spec << " geomean regret " << fmt(geo)
                << " above 1.10\n";
      ok = false;
    }
    if (s.max > 1.5) {
      std::cerr << "FAIL: " << spec << " max regret " << fmt(s.max)
                << " above 1.5\n";
      ok = false;
    }
  }
  if (ok) std::cout << "all gates passed\n";
  return ok ? 0 : 1;
}
