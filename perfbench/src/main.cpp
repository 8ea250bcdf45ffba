// perfbench: the repository benchmark. Runs one workload, checks its
// outputs, and prints the result as one JSON object on the last line of
// stdout; everything else goes to stderr.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics. --trace 1 is the separate traced
// run: it prints the per-layer metrics and writes the spans it recorded to
// FILE as Chrome trace JSON. The exit code is 0 only when every check held.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Context;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload train_resnet152|corun_fuzz_pair|"
               "serve_fleet --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n";
  std::exit(2);
}

/// Self time of each layer against its span time; a layer whose self time
/// exceeds its span time is a tracer fault.
void summarize_layers(const perfbench::Tracer& tracer,
                      perfbench::Report& report) {
  std::cerr << "layer            spans      span_ms      self_ms\n";
  for (const auto& [layer, t] : tracer.layer_times()) {
    std::cerr << layer;
    for (std::size_t pad = layer.size(); pad < 12; ++pad) std::cerr << ' ';
    std::cerr << ' ' << t.spans << "  " << t.span_ms << "  " << t.self_ms
              << "\n";
    report.check(t.self_ms >= 0.0 && t.self_ms <= t.span_ms + 1e-9,
                 "layer " + layer + " self time exceeds its span time");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      usage("bad argument " + key);
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"})
    if (args.count(required) == 0)
      usage(std::string("missing --") + required);

  const std::string workload = args["workload"];
  const bool traced = args["trace"] == "1";
  if (!traced && args["trace"] != "0") usage("--trace must be 0 or 1");
  perfbench::Tracer tracer(traced);
  perfbench::Report report;
  Context ctx{0, 0.0, traced, tracer, report, std::cerr};
  try {
    ctx.seed = std::stoull(args["seed"]);
    ctx.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    usage("--seed and --seconds must be numbers");
  }
  if (!(ctx.seconds > 0.0 && ctx.seconds <= 600.0))
    usage("--seconds must be in (0, 600]");

  try {
    if (workload == "train_resnet152") {
      perfbench::run_train_resnet152(ctx);
    } else if (workload == "corun_fuzz_pair") {
      perfbench::run_corun_fuzz_pair(ctx);
    } else if (workload == "serve_fleet") {
      perfbench::run_serve_fleet(ctx);
    } else {
      usage("unknown workload " + workload);
    }
    if (traced) {
      summarize_layers(tracer, report);
      const std::string out = args.count("trace-out")
                                  ? args["trace-out"]
                                  : "perfbench-" + workload + ".trace.json";
      tracer.write_chrome(out);
      std::cerr << "trace: " << tracer.size() << " spans written to " << out
                << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }

  // The readable summary, then the result line.
  for (const auto& [name, m] : report.metrics())
    std::cout << name << " = " << m.value << " " << m.unit << "\n";
  std::cout << "failed_frac = "
            << static_cast<double>(report.failed()) /
                   static_cast<double>(std::max<std::size_t>(
                       report.attempted(), 1))
            << " frac (" << report.failed() << " of " << report.attempted()
            << " attempts)\n";
  std::cout << report.to_json() << std::endl;
  return report.correct() ? 0 : 1;
}
