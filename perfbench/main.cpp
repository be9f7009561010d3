// perfbench — the repository benchmark's measuring binary.
//
//   perfbench --workload study|tick|serve --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out PATH] [--smoke]
//   perfbench --pin [--smoke]     print the golden fingerprint table
//
// Prints one context line and then, as the last line, the gate tally and
// the measured values: {"correct": ..., "attempted": ..., "failed": ...,
// "values": {name: value}} — the end-to-end values with --trace 0, the
// per-layer means over the run's traced ops with --trace 1. run.py turns
// them into the result object BENCHMARK.json describes. Exits 1 if any
// correctness gate failed, 2 on bad arguments.
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include "workloads.h"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload study|tick|serve --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-out PATH] "
               "[--smoke]\n       perfbench --pin [--smoke]\n");
  return 2;
}

void print_values(const std::map<std::string, double>& values) {
  bool first = true;
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  bool pin = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--smoke") {
      options.smoke = true;
    } else if (flag == "--pin") {
      pin = true;
    } else if (value == nullptr) {
      return usage();
    } else if (flag == "--workload") {
      workload = argv[++i];
    } else if (flag == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (flag == "--work-dir") {
      options.work_dir = argv[++i];
    } else if (flag == "--trace-out") {
      options.trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (pin) return print_goldens(options.smoke);
  if (!have_seed || !have_seconds || !have_trace || options.work_dir.empty()) {
    return usage();
  }

  const double steal0 = steal_seconds();
  const double cpu0 = total_cpu_seconds();
  const auto start = Clock::now();
  Result result;
  try {
    if (workload == "study") {
      result = run_study(options);
    } else if (workload == "tick") {
      result = run_tick(options);
    } else if (workload == "serve") {
      result = run_serve(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n",
                 workload.c_str(), e.what());
    return 1;
  }

  // Machine context, so an outlier run can be explained.
  result.context["nproc"] = static_cast<double>(std::thread::hardware_concurrency());
  result.context["wall_s"] = seconds_since(start);
  result.context["process_cpu_s"] = total_cpu_seconds() - cpu0;
  result.context["steal_s"] = steal_seconds() - steal0;
  std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %" PRIu64,
              workload.c_str(), options.seed);
  for (const auto& [name, value] : result.context) {
    std::printf(", \"%s\": %.6g", name.c_str(), value);
  }
  std::printf("}}\n");

  const bool correct = result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"values\": {",
              correct ? "true" : "false", result.attempted, result.failed);
  print_values(options.trace ? result.layers.means() : result.metrics);
  std::printf("}}\n");
  return correct ? 0 : 1;
}
