// bench_incremental — wall-clock of the incremental pipeline against the
// from-scratch baseline, with byte-identity checks on both legs.
//
//   bench_incremental [--seed N] [--ases N] [--probes N] [--base-days N]
//                     [--extra-days K] [--jobs N] [--cache-dir DIR]
//                     [--out PATH]
//
// The scenario is deliberately ecosystem-dominated (one long collection
// period, a 1-day crawl, no census): that is the regime the incremental
// pipeline exists for, where re-simulating N+K days from scratch costs
// ~(N+K)/K times the resumed tail. Three timed legs:
//
//   1. base        run_scenario_cached() of the N-day base (cold cache) —
//                  the producer every later evolve resumes from.
//   2. fresh       run_scenario() of the extended N+K config, no cache —
//                  the from-scratch cost a resume avoids.
//   3. resume      evolve_scenario_cached() +K days from the base cache.
//
// The resumed products MUST fingerprint-identical to the fresh run (exit 1
// otherwise — byte-identity is the incremental pipeline's contract, and a
// fast-but-divergent resume would be worse than useless). The serve-side
// leg compiles both runs' snapshots, diffs them, and times delta apply()
// against a full SnapshotBuilder rebuild, verifying the applied artifact
// hashes to the rebuilt one. Output: BENCH_incremental.json with
// resume_speedup (fresh/resume — CI gates >= 2x) and the delta figures.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "analysis/cache.h"
#include "analysis/manifest.h"
#include "analysis/scenario.h"
#include "netbase/flags.h"
#include "netbase/json.h"
#include "netbase/stage_timer.h"
#include "netbase/thread_pool.h"
#include "serve/snapshot.h"

int main(int argc, char** argv) {
  using namespace reuse;
  net::FlagParser flags;
  flags.define("seed", "master seed", "11");
  flags.define("ases", "autonomous systems in the synthetic Internet", "120");
  flags.define("probes", "Atlas-style probes", "800");
  flags.define("base-days", "length of the base collection period", "240");
  flags.define("extra-days", "days the resume leg extends the base by", "30");
  flags.define("jobs",
               "worker threads (0 = all hardware threads); identical "
               "products for every value",
               "1");
  flags.define("cache-dir", "directory for the bench's cache files", ".");
  flags.define("out", "output JSON path", "BENCH_incremental.json");
  flags.define_bool("help", "show this help");

  if (!flags.parse(argc, argv) || flags.get_bool("help")) {
    std::cerr << flags.usage("bench_incremental",
                             "incremental-pipeline resume and snapshot-delta "
                             "wall-clock vs the from-scratch baseline");
    if (!flags.error().empty()) {
      std::cerr << "\nerror: " << flags.error() << '\n';
    }
    return flags.get_bool("help") ? 0 : 2;
  }

  const int base_days =
      std::max(2, static_cast<int>(flags.get_int("base-days").value_or(240)));
  const int extra_days =
      std::max(1, static_cast<int>(flags.get_int("extra-days").value_or(30)));
  const std::optional<int> jobs = net::parse_jobs(flags.get("jobs"));
  if (!jobs) {
    std::cerr << "error: --jobs must be a non-negative integer, got \""
              << flags.get("jobs") << "\"\n";
    return 2;
  }

  analysis::ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed").value_or(11));
  config.world = inet::test_world_config(config.seed);
  config.world.as_count =
      static_cast<std::size_t>(flags.get_int("ases").value_or(120));
  config.crawl_days = 1;
  config.fleet.probe_count =
      static_cast<std::size_t>(flags.get_int("probes").value_or(800));
  config.run_census = false;
  config.jobs = *jobs;
  // One long collection period, horizon declared past it: the exact shape
  // --resume-days sets up, and the one where resume pays off most.
  config.ecosystem.periods = {net::TimeWindow{
      net::SimTime(0),
      net::SimTime(static_cast<std::int64_t>(base_days) * 86400)}};
  config.horizon_days = base_days + extra_days;
  config.finalize();

  const std::filesystem::path cache_dir(flags.get("cache-dir"));
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  const std::string base_path =
      (cache_dir / "bench_incremental_base.cache").string();
  const std::string ext_path =
      (cache_dir / "bench_incremental_extended.cache").string();
  std::remove(base_path.c_str());  // cold start: leg 1 must simulate
  std::remove(ext_path.c_str());

  std::cerr << "[bench_incremental] base run (" << base_days << " days)...\n";
  net::StageTimer legs;
  const analysis::CachedScenario base = legs.time(
      "base", [&] { return analysis::run_scenario_cached(config, base_path); });
  if (base.cache_hit) {
    std::cerr << "error: base leg hit a cache that was just removed\n";
    return 1;
  }

  const analysis::ScenarioConfig extended =
      analysis::extend_scenario_days(config, extra_days);
  std::cerr << "[bench_incremental] fresh extended run (" << base_days << "+"
            << extra_days << " days)...\n";
  const analysis::Scenario fresh =
      legs.time("fresh", [&] { return analysis::run_scenario(extended); });
  const double fresh_millis = legs.millis("fresh");
  const std::uint64_t fresh_fingerprint = analysis::products_fingerprint(
      fresh.crawl, fresh.ecosystem, fresh.fleet, fresh.pipeline, fresh.census);

  std::cerr << "[bench_incremental] resume (+" << extra_days << " days)...\n";
  analysis::EvolvedScenario evolved = legs.time("resume", [&] {
    return analysis::evolve_scenario_cached(config, extra_days, base_path,
                                            ext_path);
  });
  const double resume_millis = legs.millis("resume");
  if (evolved.path != analysis::EvolvePath::kResumed) {
    std::cerr << "error: evolve fell back to a fresh run (base cache "
                 "unusable) — the bench measured nothing\n";
    return 1;
  }
  const analysis::CachedScenario& resumed = evolved.scenario;
  const std::uint64_t resumed_fingerprint = analysis::products_fingerprint(
      resumed.crawl, resumed.ecosystem, resumed.fleet, resumed.pipeline,
      resumed.census);
  if (resumed_fingerprint != fresh_fingerprint) {
    std::cerr << "error: resumed products diverge from the fresh run "
                 "(fingerprints "
              << std::hex << resumed_fingerprint << " vs " << fresh_fingerprint
              << ")\n";
    return 1;
  }

  // Serve-side leg: ship the +K change to lookupd as a delta and compare
  // against recompiling the whole snapshot.
  const std::unique_ptr<net::ThreadPool> pool =
      analysis::make_scenario_pool(config.jobs);
  const serve::CompiledSnapshot snap_base =
      serve::SnapshotBuilder()
          .with_store(base.ecosystem.store)
          .with_nated(base.crawl.nated_set)
          .with_dynamic(base.pipeline.dynamic_prefixes)
          .with_catalogue(base.catalogue)
          .build(pool.get());
  const serve::CompiledSnapshot snap_next = legs.time("rebuild", [&] {
    return serve::SnapshotBuilder()
        .with_store(resumed.ecosystem.store)
        .with_nated(resumed.crawl.nated_set)
        .with_dynamic(resumed.pipeline.dynamic_prefixes)
        .with_catalogue(resumed.catalogue)
        .build(pool.get());
  });
  const double rebuild_millis = legs.millis("rebuild");
  const serve::SnapshotDelta delta =
      serve::SnapshotBuilder::diff(snap_base, snap_next);
  std::string error;
  const std::optional<serve::CompiledSnapshot> applied =
      legs.time("apply", [&] { return delta.apply(snap_base, &error); });
  const double apply_millis = legs.millis("apply");
  if (!applied) {
    std::cerr << "error: delta apply failed: " << error << '\n';
    return 1;
  }
  if (applied->fingerprint() != snap_next.fingerprint()) {
    std::cerr << "error: delta-applied snapshot diverges from the rebuilt "
                 "one\n";
    return 1;
  }

  const double resume_speedup =
      resume_millis > 0.0 ? fresh_millis / resume_millis : 0.0;
  const double apply_speedup =
      apply_millis > 0.0 ? rebuild_millis / apply_millis : 0.0;
  net::JsonWriter json;
  json.begin_object();
  analysis::write_run_header(json, "bench_incremental", &config);
  const std::string text =
      json.field("base_days", base_days)
          .field("extra_days", extra_days)
          .field("jobs", config.jobs)
          .field("base_millis", legs.millis("base"))
          .field("fresh_millis", fresh_millis)
          .field("resume_millis", resume_millis)
          .field("resume_speedup", resume_speedup)
          .field("fingerprints_match", true)
          .field("products_fingerprint", net::hex16(fresh_fingerprint))
          .key("delta").begin_object()
          .field("removed", delta.removed_count())
          .field("upserts", delta.upsert_count())
          .field("dynamic24_removed", delta.dynamic24_removed_count())
          .field("dynamic24_added", delta.dynamic24_added_count())
          .field("apply_millis", apply_millis)
          .field("rebuild_millis", rebuild_millis)
          .field("apply_speedup", apply_speedup)
          .field("fingerprint_match", true)
          .end()
          .end()
          .str();

  const std::string out_path = flags.get("out");
  if (const auto error = analysis::write_report_file(out_path, text)) {
    std::cerr << "error: " << *error << '\n';
    return 1;
  }
  std::cout << text;
  std::cerr << "[bench_incremental] wrote " << out_path << " (resume "
            << resume_speedup << "x, delta apply " << apply_speedup << "x)\n";
  return 0;
}
