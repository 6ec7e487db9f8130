// In-memory span recorder for the traced run.  Spans are recorded by the
// benchmark around its calls into each layer (never inside the library),
// kept in memory and written once at exit as Chrome trace-event JSON, which
// Perfetto and chrome://tracing load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  /// A fresh request id; every span of one request carries it.
  std::uint64_t new_request() { return ++last_request_; }

  /// Record a finished span and return its index (a parent for later spans).
  std::size_t add(std::string name, std::uint64_t request, std::size_t parent,
                  Clock::time_point start, Clock::time_point end);

  /// Open a span that ends at close(); children may be added in between.
  std::size_t open(std::string name, std::uint64_t request,
                   std::size_t parent = kNoParent) {
    const auto now = Clock::now();
    return add(std::move(name), request, parent, now, now);
  }
  void close(std::size_t span) { spans_[span].end = Clock::now(); }

  /// Self time of every span: its duration minus the part of it covered by
  /// its children.  Returns the requests whose spans' self times sum to
  /// more than the request's wall time (first start to last end) — none,
  /// when every child lies inside its parent.
  [[nodiscard]] std::size_t self_time_violations() const;
  /// Summed self time (ms) per span name.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;

  /// Write the spans as Chrome trace-event JSON ("X" complete events, one
  /// thread row per request, parent and request ids in args).
  void write_chrome_json(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    std::uint64_t request = 0;
    std::size_t parent = kNoParent;
    Clock::time_point start;
    Clock::time_point end;
  };

  [[nodiscard]] std::vector<double> self_ms() const;

  std::vector<Span> spans_;
  std::uint64_t last_request_ = 0;
};

/// Close a traced run: set error_rate from the report's counts, fail the
/// run if any request's span self times exceed its wall time, and write the
/// trace file.
void finish_trace(Report& rep, const Tracer& tracer, const std::string& path);

}  // namespace perfbench
