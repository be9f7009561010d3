// bench_worldscale — throughput and peak-RSS of the world-scale preset.
//
//   bench_worldscale [--seed N] [--ases N] [--probes N] [--out PATH]
//
// Runs the world_scale scenario (1M+ addresses, ~100k probes by default;
// --ases/--probes scale it down for CI) in three configurations and writes
// BENCH_worldscale.json:
//
//   base_jobs1   the preset as-is, serial
//   base_jobs8   same config, --jobs 8 — products must fingerprint-identical
//   days2x_jobs1 ecosystem periods stretched to twice the day count — the
//                streaming-evolution memory check: peak RSS may grow only
//                marginally when the simulated time doubles, because per-day
//                feed state folds into compressed runs instead of
//                accumulating
//
// Peak RSS is VmHWM from /proc/self/status, which is a *process-lifetime*
// high-water mark: it never decreases, so measuring three configurations in
// one process would report the max of all three everywhere. Each
// configuration therefore runs in a forked child that reports its numbers
// through a temp file and exits; the parent only composes the JSON.
//
// Exit status: 1 when the jobs-1/jobs-8 fingerprints diverge (determinism
// is a hard contract) or a child fails; 0 otherwise. Soft acceptance
// numbers (addresses/sec, RSS growth ratio) are reported in the JSON for CI
// to gate with jq.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/manifest.h"
#include "analysis/scenario.h"
#include "netbase/flags.h"
#include "netbase/json.h"
#include "netbase/mem.h"
#include "netbase/stage_timer.h"

namespace {

using reuse::analysis::Scenario;
using reuse::analysis::ScenarioConfig;
using reuse::net::StageMillis;

struct RunSpec {
  std::string name;
  int jobs = 1;
  int days_scale = 1;  ///< multiplier on the ecosystem period windows
};

/// Child-side: run one configuration and dump flat "key value" lines (plus
/// "stage <name> <wall millis>" and "stage_cpu <name> <cpu millis>" lines)
/// for the parent to pick up.
/// Text lines instead of JSON so the parent needs no parser beyond
/// operator>>.
void run_child(ScenarioConfig config, const RunSpec& spec,
               const std::string& report_path) {
  config.jobs = spec.jobs;
  if (spec.days_scale != 1) {
    // Stretch every collection period in place: begin/end scale together,
    // so both the covered days and the inter-period gap multiply. finalize()
    // has already filled the paper defaults, so this rewrites them.
    for (reuse::net::TimeWindow& period : config.ecosystem.periods) {
      period.begin = reuse::net::SimTime(period.begin.seconds() *
                                         spec.days_scale);
      period.end = reuse::net::SimTime(period.end.seconds() * spec.days_scale);
    }
  }
  const Scenario scenario = reuse::analysis::run_scenario(std::move(config));

  const std::uint64_t addresses =
      static_cast<std::uint64_t>(scenario.world.prefix_count()) * 256;
  const std::uint64_t fingerprint = reuse::analysis::products_fingerprint(
      scenario.crawl, scenario.ecosystem, scenario.fleet, scenario.pipeline,
      scenario.census);
  std::int64_t eco_days = 0;
  for (const reuse::net::TimeWindow& period :
       scenario.config.ecosystem.periods) {
    eco_days += (period.end.seconds() - period.begin.seconds()) / 86400;
  }

  std::ofstream report(report_path);
  report.precision(3);
  report << std::fixed;
  report << "addresses " << addresses << '\n'
         << "prefix_count " << scenario.world.prefix_count() << '\n'
         << "eco_days " << eco_days << '\n'
         << "peak_rss_bytes " << reuse::net::peak_rss_bytes() << '\n'
         << "total_millis " << scenario.stage_times.total_millis() << '\n'
         << "fingerprint " << reuse::net::hex16(fingerprint) << '\n'
         << "fleet_records " << scenario.fleet.record_count() << '\n'
         << "fleet_runs " << scenario.fleet.compressed_log().run_count()
         << '\n'
         << "fleet_log_bytes "
         << scenario.fleet.compressed_log().memory_bytes() << '\n'
         << "store_listings " << scenario.ecosystem.store.listing_count()
         << '\n'
         << "store_bytes " << scenario.ecosystem.store.memory_bytes() << '\n';
  for (const auto& [stage, millis] : scenario.stage_times.wall_map()) {
    report << "stage " << stage << ' ' << millis << '\n';
  }
  for (const auto& [stage, cpu_millis] : scenario.stage_times.cpu_map()) {
    report << "stage_cpu " << stage << ' ' << cpu_millis << '\n';
  }
  report.flush();
  // Skip static destructors: the world at this scale takes a while to tear
  // down and the process is done reporting.
  _exit(report.good() ? 0 : 1);
}

struct RunReport {
  std::map<std::string, std::string> values;
  StageMillis stages;
  /// CPU attribution (StageTimer::record_cpu) of the stages that record
  /// it, as in BENCH_scenario.json's stages_cpu.
  StageMillis stages_cpu;

  [[nodiscard]] double number(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? 0.0 : std::stod(it->second);
  }
  [[nodiscard]] std::string text(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? std::string{} : it->second;
  }
};

bool read_report(const std::string& path, RunReport* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "stage" || key == "stage_cpu") {
      std::string stage;
      double millis = 0.0;
      fields >> stage >> millis;
      (key == "stage" ? out->stages : out->stages_cpu)
          .emplace_back(stage, millis);
    } else {
      std::string value;
      fields >> value;
      out->values[key] = value;
    }
  }
  return !out->values.empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reuse;
  net::FlagParser flags;
  flags.define("seed", "master seed", "42");
  flags.define("ases",
               "autonomous systems (0 = world_scale preset default)", "0");
  flags.define("probes", "Atlas-style probes (0 = preset default)", "0");
  flags.define("out", "output JSON path", "BENCH_worldscale.json");
  flags.define_bool("help", "show this help");
  if (!flags.parse(argc, argv) || flags.get_bool("help")) {
    std::cerr << flags.usage("bench_worldscale",
                            "world-scale throughput and peak-RSS bench "
                            "(forks one child per configuration)");
    if (!flags.error().empty()) {
      std::cerr << "\nerror: " << flags.error() << '\n';
    }
    return flags.get_bool("help") ? 0 : 2;
  }

  analysis::ScenarioConfig config = analysis::world_scale_scenario_config(
      static_cast<std::uint64_t>(flags.get_int("seed").value_or(42)));
  if (const long long ases = flags.get_int("ases").value_or(0); ases > 0) {
    config.world.as_count = static_cast<std::size_t>(ases);
  }
  if (const long long probes = flags.get_int("probes").value_or(0);
      probes > 0) {
    config.fleet.probe_count = static_cast<std::size_t>(probes);
  }

  const std::vector<RunSpec> specs = {
      {"base_jobs1", 1, 1},
      {"base_jobs8", 8, 1},
      {"days2x_jobs1", 1, 2},
  };
  const std::string out_path = flags.get("out");

  std::map<std::string, RunReport> reports;
  for (const RunSpec& spec : specs) {
    const std::string report_path = out_path + "." + spec.name + ".tmp";
    std::cerr << "[bench_worldscale] " << spec.name << ": running...\n";
    const pid_t child = fork();
    if (child < 0) {
      std::cerr << "error: fork failed\n";
      return 1;
    }
    if (child == 0) {
      run_child(config, spec, report_path);  // _exits, never returns
    }
    int status = 0;
    if (waitpid(child, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::cerr << "error: child for " << spec.name << " failed\n";
      return 1;
    }
    RunReport report;
    if (!read_report(report_path, &report)) {
      std::cerr << "error: no report from " << spec.name << '\n';
      return 1;
    }
    std::remove(report_path.c_str());
    reports[spec.name] = std::move(report);
    std::cerr << "[bench_worldscale] " << spec.name << ": "
              << report_path << " collected\n";
  }

  const RunReport& base = reports.at("base_jobs1");
  const RunReport& jobs8 = reports.at("base_jobs8");
  const RunReport& days2x = reports.at("days2x_jobs1");

  const bool fingerprints_match =
      base.text("fingerprint") == jobs8.text("fingerprint");
  const double base_seconds = base.number("total_millis") / 1000.0;
  const double addresses = base.number("addresses");
  const double addresses_per_sec =
      base_seconds > 0.0 ? addresses / base_seconds : 0.0;
  const double rss_growth =
      base.number("peak_rss_bytes") > 0.0
          ? days2x.number("peak_rss_bytes") / base.number("peak_rss_bytes")
          : 0.0;
  // The headline peak is the worst run of the suite, not the serial
  // baseline's: a memory regression that only shows under --jobs 8 must
  // move the gated number. (This previously copied base_jobs1's peak,
  // hiding a ~280 MB jobs=8 excursion from the CI gate.)
  double peak_rss_bytes = 0.0;
  for (const RunSpec& spec : specs) {
    peak_rss_bytes =
        std::max(peak_rss_bytes, reports.at(spec.name).number("peak_rss_bytes"));
  }

  net::JsonWriter json;
  json.begin_object();
  analysis::write_run_header(json, "bench_worldscale", &config);
  json.field("addresses", static_cast<std::uint64_t>(addresses))
      .field("addresses_per_sec", addresses_per_sec)
      .field("peak_rss_bytes", static_cast<std::uint64_t>(peak_rss_bytes))
      .field("rss_growth_days2x", rss_growth)
      .field("fingerprint_match_jobs_1_8", fingerprints_match)
      .field("products_fingerprint", base.text("fingerprint"))
      .key("runs").begin_object();
  for (const RunSpec& spec : specs) {
    const RunReport& report = reports.at(spec.name);
    const auto count = [&report](const std::string& key) {
      return static_cast<std::uint64_t>(report.number(key));
    };
    // Per-stage throughput for the top-level stages ('.'-prefixed sub-stages
    // are already counted inside their parent).
    StageMillis per_sec;
    for (const auto& [stage, millis] : report.stages) {
      if (stage.find('.') != std::string::npos) continue;
      // Sub-millisecond stages (e.g. a skipped census) would divide into
      // absurd rates; report 0 instead of noise.
      per_sec.emplace_back(
          stage, millis >= 1.0 ? report.number("addresses") / (millis / 1000.0)
                               : 0.0);
    }
    json.key(spec.name).begin_object()
        .field("jobs", spec.jobs)
        .field("eco_days", count("eco_days"))
        .field("addresses", count("addresses"))
        .field("peak_rss_bytes", count("peak_rss_bytes"))
        .field("total_millis", report.number("total_millis"))
        .field("fleet_records", count("fleet_records"))
        .field("fleet_runs", count("fleet_runs"))
        .field("fleet_log_bytes", count("fleet_log_bytes"))
        .field("store_listings", count("store_listings"))
        .field("store_bytes", count("store_bytes"))
        .field("products_fingerprint", report.text("fingerprint"))
        .field("stages", report.stages)
        .field("stages_cpu", report.stages_cpu)
        .field("stage_addresses_per_sec", per_sec)
        .end();
  }
  const std::string text = json.end().end().str();
  if (const auto error = analysis::write_report_file(out_path, text)) {
    std::cerr << "error: " << *error << '\n';
    return 1;
  }
  std::cout << text;

  if (!fingerprints_match) {
    std::cerr << "error: products differ between --jobs 1 and --jobs 8 ("
              << base.text("fingerprint") << " vs " << jobs8.text("fingerprint")
              << ")\n";
    return 1;
  }
  std::cerr << "[bench_worldscale] wrote " << out_path << " ("
            << static_cast<std::uint64_t>(addresses) << " addresses, "
            << addresses_per_sec << " addresses/sec, RSS growth at 2x days "
            << rss_growth << "x)\n";
  return 0;
}
