// reuse_study — run the end-to-end study at a chosen scale and export its
// artifacts: the reused-address list, per-list reuse counts, the dynamic
// prefix list, and a machine-readable summary.
//
//   reuse_study [--seed N] [--ases N] [--crawl-days N] [--probes N]
//               [--preset NAME | --list-presets]
//               [--jobs N] [--out-dir DIR] [--census]
//               [--cache [--cache-file PATH]] [--resume-days K]
//               [--chaos [--chaos-seed N]] [--metrics-out FILE]
#include <filesystem>
#include <iostream>
#include <sstream>

#include "analysis/cache.h"
#include "analysis/greylist.h"
#include "analysis/manifest.h"
#include "analysis/impact.h"
#include "analysis/presets.h"
#include "analysis/scenario.h"
#include "blocklist/parse.h"
#include "netbase/flags.h"
#include "netbase/stats.h"
#include "netbase/table.h"

int main(int argc, char** argv) {
  using namespace reuse;
  net::FlagParser flags;
  flags.define("seed", "master seed", "7");
  flags.define("ases", "autonomous systems in the synthetic Internet", "300");
  flags.define("crawl-days", "simulated crawl length", "3");
  flags.define("probes", "Atlas-style probes", "2000");
  flags.define("jobs",
               "worker threads for the parallel stages (0 = all hardware "
               "threads); results are identical for every value",
               "1");
  flags.define("out-dir", "directory for exported artifacts", ".");
  flags.define("preset",
               "scenario preset applied on top of the flags (see "
               "--list-presets)");
  flags.define_bool("list-presets", "list the preset registry and exit");
  flags.define_bool("census", "also run the ICMP census baseline");
  flags.define_bool("cache",
                    "reuse the on-disk scenario cache (fingerprint-keyed "
                    "file, honours $REUSE_CACHE_DIR)");
  flags.define("cache-file", "explicit cache file path (implies --cache)");
  flags.define("resume-days",
               "evolve the cached base scenario this many extra days through "
               "the incremental pipeline instead of re-simulating the full "
               "span (implies --cache; products are byte-identical to a "
               "fresh extended run)",
               "0");
  flags.define_bool("chaos",
                    "inject the default fault plan (loss bursts, bootstrap "
                    "and feed outages, corrupted feeds, Atlas gaps) and "
                    "print the degradation report");
  flags.define("chaos-seed", "seed for the chaos fault plan", "1");
  flags.define("metrics-out",
               "write the run manifest (config fingerprint, fault plan, "
               "stage timings, full metrics snapshot) to this file");
  flags.define("metrics-format",
               "encoding for --metrics-out: json (run manifest) or "
               "prometheus (metrics text exposition)",
               "json");
  flags.define_bool("help", "show this help");

  if (!flags.parse(argc, argv) || flags.get_bool("help")) {
    std::cerr << flags.usage("reuse_study",
                             "full IMC'20 reused-address study on a synthetic "
                             "Internet, with exported artifacts");
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

  analysis::ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed").value_or(7));
  config.world = inet::test_world_config(config.seed);
  config.world.as_count =
      static_cast<std::size_t>(flags.get_int("ases").value_or(300));
  config.crawl_days = static_cast<int>(flags.get_int("crawl-days").value_or(3));
  config.fleet.probe_count =
      static_cast<std::size_t>(flags.get_int("probes").value_or(2000));
  config.run_census = flags.get_bool("census");
  const analysis::ScenarioPreset* preset = nullptr;
  if (flags.has("preset")) {
    preset = analysis::parse_preset(flags.get("preset"));
    if (preset == nullptr) {
      std::cerr << "error: unknown preset \"" << flags.get("preset")
                << "\" (valid: " << analysis::preset_names() << ")\n";
      return 2;
    }
    // Applied after the scale flags so the preset's mix knobs win over the
    // defaults but --ases/--probes keep controlling the scale.
    preset->apply(config);
  }
  const std::optional<int> jobs = net::parse_jobs(flags.get("jobs"));
  if (!jobs) {
    std::cerr << "error: --jobs must be a non-negative integer (0 = all "
                 "hardware threads), got \"" << flags.get("jobs") << "\"\n";
    return 2;
  }
  config.jobs = *jobs;
  const std::optional<net::MetricsFormat> metrics_format =
      net::parse_metrics_format(flags.get("metrics-format"));
  if (!metrics_format) {
    std::cerr << "error: --metrics-format must be \"json\" or "
                 "\"prometheus\", got \""
              << flags.get("metrics-format") << "\"\n";
    return 2;
  }
  const bool chaos = flags.get_bool("chaos");
  if (chaos) {
    const auto chaos_seed =
        static_cast<std::uint64_t>(flags.get_int("chaos-seed").value_or(1));
    config.faults = analysis::default_chaos_plan(config, chaos_seed);
    // Under injected Atlas gaps, cap inter-change inference across the holes
    // so step 4 of the pipeline keeps judging churn, not outages.
    config.pipeline.max_change_gap = net::Duration::days(7);
  }
  config.finalize();

  const int resume_days =
      static_cast<int>(flags.get_int("resume-days").value_or(0));
  if (resume_days < 0) {
    std::cerr << "error: --resume-days must be non-negative, got "
              << resume_days << '\n';
    return 2;
  }
  if (resume_days > 0) {
    // The resumed products are only byte-identical to a fresh extended run
    // when base and extended runs resolve to the SAME abuse horizon, so the
    // base config must declare it up front: end of the last collection
    // period plus the resume window.
    config.horizon_days = static_cast<int>(
        analysis::scenario_span(config).collection.end.day() + resume_days);
  }

  const bool use_cache = flags.get_bool("cache") || flags.has("cache-file") ||
                         resume_days > 0;
  const std::string cache_path = flags.has("cache-file")
                                     ? flags.get("cache-file")
                                     : analysis::default_cache_path(config);
  if (use_cache) {
    // Fail fast on an unusable cache path — silently simulating for minutes
    // and then failing (or quietly not caching) helps nobody.
    if (const auto error = analysis::preflight_cache_path(cache_path)) {
      std::cerr << "error: " << *error << '\n';
      return 1;
    }
  }

  std::cerr << "simulating (seed " << config.seed << ", "
            << config.world.as_count << " ASes)...\n";
  analysis::EvolvePath evolve_path = analysis::EvolvePath::kFreshRun;
  const analysis::Scenario s = [&] {
    if (resume_days > 0) {
      // Decode the base cache once and evolve from it. A missing base is
      // simulated and cached first, so the first --resume-days invocation
      // costs base + tail and every later one just the tail.
      analysis::StageTimer stage_times;
      std::optional<analysis::CachedCore> base = stage_times.time(
          "cache-load",
          [&] { return analysis::load_scenario_cache(cache_path, config); });
      analysis::EvolvedScenario evolved = [&] {
        if (base) {
          std::cerr << "loaded base scenario from cache\n";
          return analysis::evolve_scenario_cached(
              config, resume_days, std::move(base), std::move(stage_times));
        }
        (void)analysis::run_scenario_cached(config, cache_path, std::nullopt,
                                            std::move(stage_times));
        std::cerr << "simulated base scenario and wrote cache\n";
        return analysis::evolve_scenario_cached(config, resume_days,
                                                cache_path);
      }();
      evolve_path = evolved.path;
      return std::move(evolved.scenario);
    }
    return use_cache ? analysis::run_scenario_cached(config, cache_path)
                     : analysis::run_scenario(config);
  }();
  if (resume_days > 0) {
    std::cerr << (evolve_path == analysis::EvolvePath::kResumed
                      ? "resumed cached base scenario (+" +
                            std::to_string(resume_days) + " days)\n"
                      : "no usable base cache; simulated the extended span "
                        "fresh\n");
  } else if (use_cache) {
    std::cerr << (s.cache_hit ? "loaded crawl+ecosystem from cache\n"
                              : "simulated fresh and wrote cache\n");
  }

  const std::unique_ptr<net::ThreadPool> pool =
      analysis::make_scenario_pool(config.jobs);
  const analysis::ReuseImpact impact = analysis::compute_reuse_impact(
      s.ecosystem.store, s.catalogue, s.crawl.nated_set,
      s.pipeline.dynamic_prefixes, pool.get());

  const std::filesystem::path out_dir(flags.get("out-dir"));
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  // Every artifact goes through the one checked writer: a file that cannot
  // be written is an error, not a silent loss.
  const auto write_artifact = [&](const char* name, const std::string& text) {
    const auto error =
        analysis::write_report_file((out_dir / name).string(), text);
    if (error) std::cerr << "error: " << *error << '\n';
    return !error;
  };

  // 1. The published artifact: reused blocklisted addresses.
  const auto reused = analysis::build_reused_address_list(
      s.ecosystem.store, s.crawl.nated_set, s.pipeline.dynamic_prefixes);
  {
    std::ostringstream os;
    std::vector<net::Ipv4Address> addresses;
    addresses.reserve(reused.size());
    for (const auto& entry : reused) addresses.push_back(entry.address);
    blocklist::write_list(os, "reused blocklisted addresses", addresses);
    if (!write_artifact("reused_addresses.txt", os.str())) return 1;
  }

  // 2. Dynamic prefixes.
  {
    std::string text =
        "# dynamically allocated /24 prefixes (Atlas pipeline)\n";
    for (const auto& prefix : s.pipeline.dynamic_prefixes.to_vector()) {
      text += prefix.to_string() + '\n';
    }
    if (!write_artifact("dynamic_prefixes.txt", text)) return 1;
  }

  // 3. Per-list reuse counts, CSV.
  {
    net::AsciiTable table({"list", "category", "addresses", "nated", "dynamic"});
    for (const auto& counts : impact.per_list) {
      const auto& info = s.catalogue[counts.list - 1];
      table.add_row({info.name, std::string(to_string(info.category)),
                     std::to_string(counts.total_addresses),
                     std::to_string(counts.nated_addresses),
                     std::to_string(counts.dynamic_addresses)});
    }
    if (!write_artifact("per_list_reuse.csv", table.to_csv())) return 1;
  }

  // 4. Human summary.
  net::AsciiTable summary({"metric", "value"});
  summary.add_row({"blocklisted addresses",
                   net::with_thousands(static_cast<std::int64_t>(
                       s.ecosystem.store.address_count()))});
  summary.add_row({"NATed blocklisted", net::with_thousands(static_cast<std::int64_t>(
                                            impact.nated_blocklisted_addresses))});
  summary.add_row({"dynamic blocklisted",
                   net::with_thousands(static_cast<std::int64_t>(
                       impact.dynamic_blocklisted_addresses))});
  summary.add_row({"lists with NATed entries",
                   net::percent(impact.fraction_lists_with_nated())});
  summary.add_row({"lists with dynamic entries",
                   net::percent(impact.fraction_lists_with_dynamic())});
  summary.add_row({"reused-address list size",
                   net::with_thousands(static_cast<std::int64_t>(reused.size()))});
  std::cout << summary.to_string();

  if (chaos || s.degradation.degraded()) {
    std::cout << "\nDegradation report\n" << s.degradation.to_string();
    if (!s.degradation.reconciles()) {
      std::cerr << "error: fault ledger does not reconcile\n";
      return 1;
    }
  }
  std::cerr << "stage times: " << s.stage_times.to_json(config.jobs);
  if (flags.has("metrics-out")) {
    analysis::RunManifestInfo manifest;
    manifest.tool = "reuse_study";
    manifest.config = &s.config;
    manifest.stage_times = &s.stage_times;
    if (use_cache) manifest.cache_hit = s.cache_hit;
    if (preset != nullptr) manifest.preset = preset->name;
    if (const auto error = analysis::write_run_manifest(
            flags.get("metrics-out"), manifest, *metrics_format)) {
      std::cerr << "error: " << *error << '\n';
      return 1;
    }
    std::cerr << "run manifest written to " << flags.get("metrics-out")
              << '\n';
  }
  std::cerr << "artifacts written to " << out_dir.string() << "/\n";
  return 0;
}
