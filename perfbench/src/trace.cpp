#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::size_t Tracer::add(std::string name, std::uint64_t request,
                        std::size_t parent, Clock::time_point start,
                        Clock::time_point end) {
  spans_.push_back({std::move(name), request, parent, start, end});
  return spans_.size() - 1;
}

std::vector<double> Tracer::self_ms() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) children[spans_[i].parent].push_back(i);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (std::size_t c : children[i]) {
      const auto a = std::max(spans_[c].start, s.start);
      const auto b = std::min(spans_[c].end, s.end);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : iv) {
      const auto from = std::max(a, reach);
      if (b > from) {
        covered += ms_between(from, b);
        reach = b;
      }
    }
    self[i] = ms_between(s.start, s.end) - covered;
  }
  return self;
}

std::size_t Tracer::self_time_violations() const {
  const std::vector<double> self = self_ms();
  struct Sum {
    double self_ms = 0.0;
    Clock::time_point first = Clock::time_point::max();
    Clock::time_point last = Clock::time_point::min();
  };
  std::map<std::uint64_t, Sum> per_request;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Sum& s = per_request[spans_[i].request];
    s.self_ms += self[i];
    s.first = std::min(s.first, spans_[i].start);
    s.last = std::max(s.last, spans_[i].end);
  }
  std::size_t bad = 0;
  for (const auto& [req, s] : per_request) {
    // 1 µs of slack for rounding in the double sums.
    if (s.self_ms > ms_between(s.first, s.last) + 1e-3) ++bad;
  }
  return bad;
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  const std::vector<double> self = self_ms();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.request
        << ", \"ts\": " << ms_between(origin, s.start) * 1e3
        << ", \"dur\": " << ms_between(s.start, s.end) * 1e3
        << ", \"args\": {\"request\": " << s.request << ", \"span\": " << i
        << ", \"parent\": "
        << (s.parent == kNoParent ? std::string("null")
                                  : std::to_string(s.parent))
        << "}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

void finish_trace(Report& rep, const Tracer& tracer, const std::string& path) {
  rep.set("error_rate", rep.attempted == 0
                            ? 0.0
                            : static_cast<double>(rep.failed) /
                                  static_cast<double>(rep.attempted));
  if (const std::size_t bad = tracer.self_time_violations()) {
    rep.wrong(std::to_string(bad) +
              " traced requests whose span self times exceed their wall time");
  }
  tracer.write_chrome_json(path);
  rep.note("trace: " + std::to_string(tracer.size()) + " spans -> " + path);
  std::vector<std::pair<double, std::string>> by_self;
  for (const auto& [name, ms] : tracer.self_ms_by_name()) {
    by_self.emplace_back(ms, name);
  }
  std::sort(by_self.rbegin(), by_self.rend());
  for (const auto& [ms, name] : by_self) {
    rep.note("self time " + std::to_string(ms) + " ms  " + name);
  }
}

}  // namespace perfbench
