// Shared pieces of the end-to-end benchmark: options, the metric tables,
// the report printed at exit, order statistics, host-noise sampling and the
// answer checker that verifies every exact result outside the timed region.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/topk.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: every workload shrinks its inputs and rates so a run
  /// takes a few seconds; the metric set and definitions are unchanged.
  bool tiny = false;
  /// Chrome trace-event JSON written by a traced run (required with trace).
  std::string trace_out;
};

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupReps = 3;

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every untraced run prints (BENCHMARK.json
/// "end_to_end" mirrors this table; the self-test compares them).
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// The per-layer metrics every traced run prints ("per_layer").
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// What one run prints.  An untraced run fills the end-to-end table; a
/// traced run starts with every per-layer metric at 0 — a layer the
/// workload leaves idle reads 0 — and fills what it measures.
class Report {
 public:
  explicit Report(bool trace);

  /// Set a metric of this run's table; throws on a name outside it.
  void set(const std::string& name, double value);
  void note(std::string line) { notes_.push_back(std::move(line)); }
  [[nodiscard]] bool traced() const { return traced_; }
  /// Count one attempted operation; `ok` false counts it as failed.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A wrong exact answer or a broken invariant: the run is incorrect.
  void wrong(std::string why);

  /// Human-readable lines, then the one-line JSON result as the last line.
  void print(std::ostream& os) const;

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  bool traced_ = false;
  std::vector<MetricDef> defs_;
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
};

// ---- order statistics ---------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Geometric mean of positive values; 0 for an empty sample.
[[nodiscard]] double geomean(const std::vector<double>& v);

// ---- host state -----------------------------------------------------------

/// Aggregate CPU time counters from /proc/stat, for the host-noise record:
/// how much of the machine was busy and how much the hypervisor stole
/// while a phase ran.
class HostNoise {
 public:
  HostNoise() : start_(read()) {}
  [[nodiscard]] double steal_pct() const;
  [[nodiscard]] double busy_pct() const;

 private:
  struct Sample {
    std::uint64_t total = 0;
    std::uint64_t idle = 0;  ///< idle + iowait
    std::uint64_t steal = 0;
  };
  static Sample read();
  Sample start_;
};

/// Set topk.rows_used.<row> to the queries `algo` served; a row outside
/// topk::all_algorithms() has no metric and is named in a note instead.
void set_rows_used(Report& rep, topk::Algo algo, double count);

/// Note the host noise of a measured phase (steal, busy share, generator
/// lateness), flag it when steal or lateness is past the bound a steady run
/// stays within, and in a traced run set the bench.* host metrics.
void record_host_noise(Report& rep, const HostNoise& noise,
                       double gen_lag_p99_ms, double max_gen_lag_p99_ms);

/// Process peak resident set (getrusage ru_maxrss) in MiB.
[[nodiscard]] double peak_rss_mib();

// ---- correctness ----------------------------------------------------------

/// Verifies answers against a host reference (topk::verify_topk) and scores
/// approximate ones with data::recall_at_k.  The same input row and k is
/// asked many times in a run; an answer identical to one already verified
/// for that (row, k) is correct without re-running the reference, so every
/// answer is checked at the cost of one reference per distinct answer.
class AnswerChecker {
 public:
  /// Empty string when `r` is a correct top-k of `row`, else the violation.
  std::string check_exact(std::uint64_t row_id, std::span<const float> row,
                          std::size_t k, const topk::SelectResult& r);
  /// recall@k of `r` against the exact top-k of `row`.
  double recall(std::uint64_t row_id, std::span<const float> row,
                std::size_t k, const topk::SelectResult& r);

 private:
  using Key = std::pair<std::uint64_t, std::size_t>;
  std::map<Key, std::vector<std::uint64_t>> verified_;
  std::map<Key, std::vector<float>> exact_values_;
};

}  // namespace perfbench
