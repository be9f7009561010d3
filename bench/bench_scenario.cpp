// bench_scenario — end-to-end scenario wall-clock across a --jobs ladder,
// with a byte-identical-products check between every rung.
//
//   bench_scenario [--seed N] [--ases N] [--probes N] [--jobs LIST]
//                  [--runs N] [--out PATH] [--stages-out PATH]
//
// For each jobs value in LIST (comma-separated; 0 = all hardware threads;
// 1 is always measured first as the baseline) the scenario runs once as a
// warmup and then --runs times measured, and the run with the median total
// is reported — a single sample is noise-dominated, and a noisy speedup
// figure makes regressions unattributable. The median run's own stage map
// is reported whole, so its stages sum to its total and each stage's
// sub-stages to the stage, as they did in that run (per-stage medians
// taken across runs need not). Product fingerprints must match across
// every run at every jobs value (exit 1 otherwise — the determinism
// contract is the whole point). Output:
//   --out         BENCH_scenario.json: the run header (hardware_jobs among
//                 it), per-jobs median-run stage timings and speedups vs
//                 the serial baseline.
//   --stages-out  CSV with every individual sample (jobs,run,stage,millis)
//                 for CI artifact upload and offline analysis.
//
// Every stage of the scenario is pool-parallel now (the crawl runs as
// sharded vantage simulations, see crawler/sharded.h), so speedups are over
// the scenario total, not a stage subset. `hardware_jobs` records the
// machine's core budget: on a 1-core runner the expected speedup is ~1.0x
// (threads cannot beat physics), which is why CI gates the speedup only
// when the runner has the cores to back it.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/manifest.h"
#include "analysis/scenario.h"
#include "netbase/flags.h"
#include "netbase/json.h"
#include "netbase/stage_timer.h"
#include "netbase/thread_pool.h"

namespace {

using reuse::net::StageMillis;
using reuse::net::StageTiming;

/// One measured run. A rung reports its median run: the one whose total is
/// the median (the lower middle one for an even --runs).
struct JobsReport {
  int jobs = 1;
  std::uint64_t fingerprint = 0;
  double total_millis = 0.0;
  /// Wall-clock of the stages that recorded a wall scope.
  StageMillis stages;
  /// CPU attribution (cross-thread scope sums) for stages that record it —
  /// kept apart from wall-clock so sub-stage attribution can exceed its
  /// parent's wall without the report looking impossible.
  StageMillis stages_cpu;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace reuse;
  net::FlagParser flags;
  flags.define("seed", "master seed", "42");
  flags.define("ases", "autonomous systems in the synthetic Internet", "200");
  flags.define("probes", "Atlas-style probes", "2000");
  flags.define("jobs",
               "comma-separated jobs ladder to measure (0 = all hardware "
               "threads); 1 is always included as the baseline",
               "1,2,8");
  flags.define("runs", "timed runs per jobs value (after one warmup)", "3");
  flags.define("out", "output JSON path", "BENCH_scenario.json");
  flags.define("stages-out", "per-sample stage timing CSV path",
               "BENCH_scenario_stages.csv");
  flags.define_bool("help", "show this help");

  if (!flags.parse(argc, argv) || flags.get_bool("help")) {
    std::cerr << flags.usage("bench_scenario",
                            "scenario wall-clock across a --jobs ladder "
                            "with a determinism cross-check");
    if (!flags.error().empty()) {
      std::cerr << "\nerror: " << flags.error() << '\n';
    }
    return flags.get_bool("help") ? 0 : 2;
  }

  analysis::ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed").value_or(42));
  config.world = inet::test_world_config(config.seed);
  config.world.as_count =
      static_cast<std::size_t>(flags.get_int("ases").value_or(200));
  config.fleet.probe_count =
      static_cast<std::size_t>(flags.get_int("probes").value_or(2000));
  config.run_census = true;
  config.finalize();

  // Parse the ladder; jobs 1 (the baseline every speedup divides by) is
  // forced to the front, duplicates dropped, order otherwise preserved.
  std::vector<int> ladder{1};
  {
    std::stringstream list(flags.get("jobs"));
    std::string token;
    while (std::getline(list, token, ',')) {
      const std::optional<int> parsed = net::parse_jobs(token);
      if (!parsed) {
        std::cerr << "error: --jobs entries must be non-negative integers "
                     "(0 = all hardware threads), got \""
                  << token << "\"\n";
        return 2;
      }
      int jobs = *parsed;
      if (jobs == 0) jobs = static_cast<int>(net::ThreadPool::hardware_jobs());
      if (std::find(ladder.begin(), ladder.end(), jobs) == ladder.end()) {
        ladder.push_back(jobs);
      }
    }
  }
  const int runs =
      std::max(1, static_cast<int>(flags.get_int("runs").value_or(3)));

  std::ostringstream csv;
  csv.precision(3);
  csv << std::fixed << "jobs,run,stage,millis,cpu_millis\n";

  std::vector<JobsReport> reports;
  for (const int jobs : ladder) {
    auto run_once = [&config, jobs] {
      analysis::ScenarioConfig cfg = config;
      cfg.jobs = jobs;
      return analysis::run_scenario(std::move(cfg));
    };
    std::cerr << "[bench_scenario] --jobs " << jobs << ": warmup...\n";
    {
      const analysis::Scenario warmup = run_once();
      (void)warmup;
    }

    std::vector<JobsReport> measured;
    for (int run = 0; run < runs; ++run) {
      std::cerr << "[bench_scenario] --jobs " << jobs << ": run " << (run + 1)
                << "/" << runs << "...\n";
      const analysis::Scenario scenario = run_once();
      const std::uint64_t fingerprint = analysis::products_fingerprint(
          scenario.crawl, scenario.ecosystem, scenario.fleet,
          scenario.pipeline, scenario.census);
      if (!measured.empty() && fingerprint != measured.front().fingerprint) {
        std::cerr << "error: products differ between runs at --jobs " << jobs
                  << " (fingerprints " << std::hex
                  << measured.front().fingerprint << " vs " << fingerprint
                  << ")\n";
        return 1;
      }
      for (const StageTiming& timing : scenario.stage_times.timings()) {
        csv << jobs << ',' << run << ',' << timing.stage << ','
            << timing.millis << ',' << timing.cpu_millis << '\n';
      }
      measured.push_back(JobsReport{jobs, fingerprint,
                                    scenario.stage_times.total_millis(),
                                    scenario.stage_times.wall_map(),
                                    scenario.stage_times.cpu_map()});
    }
    const auto median = measured.begin() + (measured.size() - 1) / 2;
    std::nth_element(measured.begin(), median, measured.end(),
                     [](const JobsReport& a, const JobsReport& b) {
                       return a.total_millis < b.total_millis;
                     });
    reports.push_back(std::move(*median));
  }

  // The determinism contract: identical products at every rung.
  for (const JobsReport& report : reports) {
    if (report.fingerprint != reports.front().fingerprint) {
      std::cerr << "error: products differ between --jobs 1 and --jobs "
                << report.jobs << " (fingerprints " << std::hex
                << reports.front().fingerprint << " vs " << report.fingerprint
                << ")\n";
      return 1;
    }
  }

  const double serial_millis = reports.front().total_millis;
  net::JsonWriter json;
  json.begin_object();
  analysis::write_run_header(json, "bench_scenario", &config);
  json.field("crawl_shards", config.crawl_shards)
      .field("runs", runs)
      .field("warmup_runs", 1)
      .field("products_fingerprint", net::hex16(reports.front().fingerprint))
      .field("fingerprints_match", true)
      .key("timings").begin_object();
  for (const JobsReport& report : reports) {
    json.key(std::to_string(report.jobs)).begin_object()
        .field("total_millis", report.total_millis)
        .field("stages", report.stages);
    if (!report.stages_cpu.empty()) json.field("stages_cpu", report.stages_cpu);
    json.end();
  }
  json.end().key("speedups").begin_object();
  double jobs2_speedup = 0.0;
  for (const JobsReport& report : reports) {
    if (report.jobs == 1) continue;
    const double speedup =
        report.total_millis > 0.0 ? serial_millis / report.total_millis : 0.0;
    if (report.jobs == 2) jobs2_speedup = speedup;
    json.field(std::to_string(report.jobs), speedup);
  }
  // Kept for older tooling: "speedup" is the --jobs 2 rung (the CI-gated
  // one), or the first non-serial rung when 2 was not measured.
  double headline = jobs2_speedup;
  if (headline == 0.0 && reports.size() > 1) {
    headline = reports[1].total_millis > 0.0
                   ? serial_millis / reports[1].total_millis
                   : 0.0;
  }
  const std::string text = json.end().field("speedup", headline).end().str();

  const std::string out_path = flags.get("out");
  const std::string stages_path = flags.get("stages-out");
  auto error = analysis::write_report_file(out_path, text);
  if (!error) error = analysis::write_report_file(stages_path, csv.str());
  if (error) {
    std::cerr << "error: " << *error << '\n';
    return 1;
  }
  std::cout << text;
  std::cerr << "[bench_scenario] wrote " << out_path << " and " << stages_path
            << " (headline speedup " << headline << "x)\n";
  return 0;
}
