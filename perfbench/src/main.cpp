// topk_perfbench — the repository's end-to-end benchmark binary.
//
//   topk_perfbench --workload <paper_sweep|serve_rowwise|serve_mixed>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--tiny] [--trace-out <file>]   (--trace-out with --trace 1)
//
// Prints human-readable lines, then one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics; --trace 1 reports the per-layer metrics and writes
// a Chrome trace-event file.  Exits 1 when an answer is wrong, 2 on bad
// arguments.  perfbench/run.py builds this binary and is the entry point.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "topk_perfbench: " << why
            << "\nusage: topk_perfbench --workload <paper_sweep|serve_rowwise|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The emulator's worker pool defaults to one thread per host core.  A
  // fixed size keeps the workloads the same on every host, and two workers
  // leave cores for the service threads and the generator, so a neighbour
  // stealing one core stalls fewer of the emulator's parallel kernels.
  setenv("TOPK_SIM_THREADS", "2", 1);
  using perfbench::Options;
  Options opt;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      opt.tiny = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a] = argv[++i];
    } else {
      return usage(("unexpected argument " + a).c_str());
    }
  }
  try {
    for (const auto& [key, value] : args) {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (key == "--trace-out") {
        opt.trace_out = value;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed option value");
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  if (opt.trace && opt.trace_out.empty()) {
    return usage("--trace 1 needs --trace-out");
  }

  const std::map<std::string, perfbench::Report (*)(const Options&)> kRuns = {
      {"paper_sweep", &perfbench::run_paper_sweep},
      {"serve_rowwise", &perfbench::run_serve_rowwise},
      {"serve_mixed", &perfbench::run_serve_mixed},
  };
  const auto it = kRuns.find(opt.workload);
  if (it == kRuns.end()) return usage("unknown --workload");
  try {
    const perfbench::Report rep = it->second(opt);
    rep.print(std::cout);
    return rep.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "topk_perfbench: " << opt.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }
}
