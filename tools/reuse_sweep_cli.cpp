// reuse_sweep — comparative scenario sweep: presets × parameter axes, each
// cell run through the scenario cache, joined into one report.
//
//   reuse_sweep [--preset NAME]... [--axis name=v1,v2]... [--seed N]
//               [--ases N] [--probes N] [--crawl-days N] [--jobs N]
//               [--cache-dir DIR] [--cache-budget-mb N] [--out-dir DIR]
//               [--cell-manifests] [--inject-fail N] [--list-presets]
//
// The report pair (sweep_report.md deterministic, sweep_report.json with
// wall times and cache attribution) lands in --out-dir. Exit 0 when every
// cell succeeded, 1 when any cell failed (the report is still written) or a
// report cannot be written, 2 on bad flags.
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>

#include "analysis/manifest.h"
#include "analysis/presets.h"
#include "netbase/flags.h"
#include "sweep/sweep.h"

int main(int argc, char** argv) {
  using namespace reuse;
  net::FlagParser flags;
  flags.define_multi("preset",
                     "scenario preset to include (repeatable, in report "
                     "order; first is the baseline; default: all presets)");
  flags.define_multi("axis",
                     "parameter axis, e.g. --axis days=60,120 --axis "
                     "cgn_share=0.2,0.5 (repeatable; cells are the cross "
                     "product)");
  flags.define("seed", "master seed for the base scenario", "7");
  flags.define("ases", "autonomous systems in the synthetic Internet", "120");
  flags.define("probes", "Atlas-style probes", "800");
  flags.define("crawl-days", "simulated crawl length", "2");
  flags.define("jobs",
               "concurrent chains (0 = all hardware threads); the report is "
               "byte-identical for every value",
               "1");
  flags.define("cache-dir",
               "directory for the per-cell scenario caches (created if "
               "missing; a warm re-run resolves unchanged cells from here)",
               "sweep_cache");
  flags.define("cache-budget-mb",
               "evict oldest cache files beyond this many MiB after the "
               "sweep (0 = unlimited; the sweep's own cells are never "
               "evicted)",
               "0");
  flags.define("out-dir", "directory for sweep_report.{md,json}", ".");
  flags.define_bool("cell-manifests",
                    "write a per-cell run manifest (with preset and "
                    "sweep_cell_id) under <out-dir>/manifests/");
  flags.define("inject-fail",
               "fault-isolation test hook: the cell at this expansion index "
               "throws mid-run (-1 = off)",
               "-1");
  flags.define_bool("list-presets", "list the preset registry and exit");
  flags.define_bool("help", "show this help");

  if (!flags.parse(argc, argv) || flags.get_bool("help")) {
    std::cerr << flags.usage("reuse_sweep",
                             "comparative scenario sweep across ISP-mix "
                             "presets and parameter axes");
    if (!flags.error().empty()) std::cerr << "\nerror: " << flags.error() << '\n';
    return flags.get_bool("help") ? 0 : 2;
  }
  if (flags.get_bool("list-presets")) {
    for (const analysis::ScenarioPreset& preset :
         analysis::scenario_presets()) {
      std::cout << preset.name << " — " << preset.summary << '\n';
    }
    return 0;
  }

  sweep::SweepConfig sweep_config;
  sweep_config.base.seed =
      static_cast<std::uint64_t>(flags.get_int("seed").value_or(7));
  sweep_config.base.world = inet::test_world_config(sweep_config.base.seed);
  sweep_config.base.world.as_count =
      static_cast<std::size_t>(flags.get_int("ases").value_or(120));
  sweep_config.base.crawl_days =
      static_cast<int>(flags.get_int("crawl-days").value_or(2));
  sweep_config.base.fleet.probe_count =
      static_cast<std::size_t>(flags.get_int("probes").value_or(800));
  // The census is the one stage whose cost scales with the address space
  // rather than the interesting populations; sweeps compare many cells, so
  // it stays off (the headline metrics never read it).
  sweep_config.base.run_census = false;

  const std::vector<std::string> preset_flags = flags.get_multi("preset");
  if (preset_flags.empty()) {
    for (const analysis::ScenarioPreset& preset :
         analysis::scenario_presets()) {
      sweep_config.presets.push_back(&preset);
    }
  } else {
    for (const std::string& name : preset_flags) {
      const analysis::ScenarioPreset* preset = analysis::parse_preset(name);
      if (preset == nullptr) {
        std::cerr << "error: unknown preset \"" << name
                  << "\" (valid: " << analysis::preset_names() << ")\n";
        return 2;
      }
      sweep_config.presets.push_back(preset);
    }
  }

  for (const std::string& axis_text : flags.get_multi("axis")) {
    std::string error;
    const auto axis = sweep::parse_axis(axis_text, &error);
    if (!axis) {
      std::cerr << "error: " << error << '\n';
      return 2;
    }
    for (const sweep::SweepAxis& existing : sweep_config.axes) {
      if (existing.name == axis->name) {
        std::cerr << "error: axis \"" << axis->name << "\" given twice\n";
        return 2;
      }
    }
    sweep_config.axes.push_back(*axis);
  }

  const std::optional<int> jobs = net::parse_jobs(flags.get("jobs"));
  if (!jobs) {
    std::cerr << "error: --jobs must be a non-negative integer (0 = all "
                 "hardware threads), got \"" << flags.get("jobs") << "\"\n";
    return 2;
  }
  sweep_config.jobs = *jobs;
  const std::optional<std::int64_t> budget_mb =
      net::parse_bounded_int(flags.get("cache-budget-mb"), 0, 1 << 20);
  if (!budget_mb) {
    std::cerr << "error: --cache-budget-mb must be an integer in [0, 2^20], "
                 "got \"" << flags.get("cache-budget-mb") << "\"\n";
    return 2;
  }
  sweep_config.cache_budget_bytes = *budget_mb * 1024 * 1024;
  sweep_config.cache_dir = flags.get("cache-dir");
  sweep_config.inject_fail_cell =
      static_cast<int>(flags.get_int("inject-fail").value_or(-1));

  const std::filesystem::path out_dir(flags.get("out-dir"));
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (flags.get_bool("cell-manifests")) {
    sweep_config.manifest_dir = (out_dir / "manifests").string();
  }

  const std::size_t cell_count =
      sweep::expand_cells(sweep_config).size();
  std::cerr << "sweep: " << sweep_config.presets.size() << " presets x "
            << sweep_config.axes.size() << " axes = " << cell_count
            << " cells (jobs " << sweep_config.jobs << ")\n";

  const sweep::SweepReport report = sweep::run_sweep(sweep_config);

  const std::string markdown = sweep::render_report_markdown(report);
  for (const auto& [name, text] :
       {std::pair{"sweep_report.md", markdown},
        std::pair{"sweep_report.json", sweep::render_report_json(report)}}) {
    if (const auto error =
            analysis::write_report_file((out_dir / name).string(), text)) {
      std::cerr << "error: " << *error << '\n';
      return 1;
    }
  }
  std::cout << markdown;
  std::cerr << "cells: " << report.cells.size() << " (fresh " << report.fresh
            << ", cache hits " << report.cache_hits << ", resumed "
            << report.resumed << ", failed " << report.cells_failed << ")\n"
            << "cache dir: " << report.cache_dir_bytes << " bytes";
  if (report.cache_files_evicted > 0) {
    std::cerr << " after evicting " << report.cache_files_evicted
              << " file(s), " << report.cache_bytes_evicted << " bytes";
  }
  std::cerr << "\nreports written to " << out_dir.string() << "/\n";
  if (report.cells_failed > 0) {
    std::cerr << "error: " << report.cells_failed << " cell(s) failed\n";
    return 1;
  }
  return 0;
}
