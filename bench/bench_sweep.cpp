// bench_sweep — cold vs warm sweep wall-clock and cache attribution.
//
//   bench_sweep [--seed N] [--ases N] [--probes N] [--jobs N]
//               [--cache-dir DIR] [--out PATH]
//
// Runs the same small preset × days matrix twice against one cache
// directory: the cold leg starts from an empty dir (every chain head is a
// fresh simulation, later days cells resume it), the warm leg re-runs the
// identical matrix and must resolve cells from the caches the cold leg
// wrote. Gates encoded in the output for CI (jq):
//
//   cells_failed == 0           both legs fault-free
//   warm_cache_hit_ratio >= 0.5 the warm leg actually reused the cache
//   fingerprint_match == true   cold and warm reports agree byte-for-byte
//                               on every deterministic field
//
// Output: BENCH_sweep.json (the run header of the base config, cold/warm
// millis, cells/sec, hit ratio).
#include <filesystem>
#include <iostream>

#include "analysis/manifest.h"
#include "analysis/presets.h"
#include "netbase/flags.h"
#include "netbase/json.h"
#include "netbase/stage_timer.h"
#include "sweep/sweep.h"

int main(int argc, char** argv) {
  using namespace reuse;
  net::FlagParser flags;
  flags.define("seed", "master seed", "11");
  flags.define("ases", "autonomous systems in the synthetic Internet", "80");
  flags.define("probes", "Atlas-style probes", "600");
  flags.define("jobs", "concurrent chains (0 = all hardware threads)", "1");
  flags.define("cache-dir", "cache directory shared by both legs",
               "bench_sweep_cache");
  flags.define("out", "output JSON path", "BENCH_sweep.json");
  flags.define_bool("help", "show this help");

  if (!flags.parse(argc, argv) || flags.get_bool("help")) {
    std::cerr << flags.usage("bench_sweep",
                             "cold vs warm comparative-sweep wall-clock");
    if (!flags.error().empty()) {
      std::cerr << "\nerror: " << flags.error() << '\n';
    }
    return flags.get_bool("help") ? 0 : 2;
  }
  const std::optional<int> jobs = net::parse_jobs(flags.get("jobs"));
  if (!jobs) {
    std::cerr << "error: --jobs must be a non-negative integer, got \""
              << flags.get("jobs") << "\"\n";
    return 2;
  }

  sweep::SweepConfig config;
  config.base.seed =
      static_cast<std::uint64_t>(flags.get_int("seed").value_or(11));
  config.base.world = inet::test_world_config(config.base.seed);
  config.base.world.as_count =
      static_cast<std::size_t>(flags.get_int("ases").value_or(80));
  config.base.crawl_days = 1;
  config.base.fleet.probe_count =
      static_cast<std::size_t>(flags.get_int("probes").value_or(600));
  config.base.run_census = false;
  config.jobs = *jobs;
  config.cache_dir = flags.get("cache-dir");
  // 2 presets × 2 days values: each preset forms one chain whose 10-day
  // cell resumes the 6-day one, so the cold leg exercises both the fresh
  // and the resumed paths, and the warm leg must hit on all 4 cells.
  config.presets = {analysis::parse_preset("baseline"),
                    analysis::parse_preset("cgn_dominant")};
  std::string error;
  config.axes = {*sweep::parse_axis("days=6,10", &error)};

  std::error_code ec;
  std::filesystem::remove_all(config.cache_dir, ec);  // cold means cold

  std::cerr << "[bench_sweep] cold sweep...\n";
  net::StageTimer legs;
  const sweep::SweepReport cold =
      legs.time("cold", [&] { return sweep::run_sweep(config); });
  const double cold_millis = legs.millis("cold");

  std::cerr << "[bench_sweep] warm sweep...\n";
  const sweep::SweepReport warm =
      legs.time("warm", [&] { return sweep::run_sweep(config); });
  const double warm_millis = legs.millis("warm");

  const std::size_t cells = warm.cells.size();
  const std::size_t failed = cold.cells_failed + warm.cells_failed;
  const double warm_hit_ratio =
      cells == 0 ? 0.0
                 : static_cast<double>(warm.cache_hits) /
                       static_cast<double>(cells);
  const bool fingerprint_match =
      cold.report_fingerprint == warm.report_fingerprint;
  const double warm_speedup =
      warm_millis > 0.0 ? cold_millis / warm_millis : 0.0;
  const double cold_cells_per_sec =
      cold_millis > 0.0 ? 1000.0 * static_cast<double>(cells) / cold_millis
                        : 0.0;

  net::JsonWriter json;
  json.begin_object();
  analysis::write_run_header(json, "bench_sweep", &config.base);
  const std::string text =
      json.field("jobs", config.jobs)
          .field("cells", cells)
          .field("cells_failed", failed)
          .field("cold_millis", cold_millis)
          .field("warm_millis", warm_millis)
          .field("warm_speedup", warm_speedup)
          .field("cold_cells_per_sec", cold_cells_per_sec)
          .field("cold_fresh", cold.fresh)
          .field("cold_resumed", cold.resumed)
          .field("warm_cache_hits", warm.cache_hits)
          .field("warm_cache_hit_ratio", warm_hit_ratio)
          .field("cache_dir_bytes", warm.cache_dir_bytes)
          .field("fingerprint_match", fingerprint_match)
          .field("report_fingerprint", net::hex16(cold.report_fingerprint))
          .end()
          .str();

  const std::string out_path = flags.get("out");
  if (const auto error = analysis::write_report_file(out_path, text)) {
    std::cerr << "error: " << *error << '\n';
    return 1;
  }
  std::cout << text;
  std::cerr << "[bench_sweep] wrote " << out_path << " (warm " << warm_speedup
            << "x, hit ratio " << warm_hit_ratio << ")\n";
  if (failed != 0) {
    std::cerr << "error: " << failed << " cell(s) failed across the legs\n";
    return 1;
  }
  if (!fingerprint_match) {
    std::cerr << "error: cold and warm reports disagree — the sweep is not "
                 "deterministic across cache states\n";
    return 1;
  }
  return 0;
}
