// `tick` workload: the operator's daily update.
//
// Set-up simulates each pinned base scenario (one long collection period,
// horizon declared one day past it, 1-day crawl, no census, probe-heavy
// fleet) and caches it in the run's work dir. Each op publishes its base's
// day-N snapshot to a live LookupEngine (untimed), evolves the cached base
// by one day (evolve_scenario_cached), compiles the new snapshot, diffs it
// against the served one, applies the delta and publishes the result. Ops
// run in forked children, so every op is the same day-N -> N+1 tick of its
// base; whole rotations cover every base. The traced op drives evolve's
// steps through their public calls (cache load, ecosystem resume, fold,
// crawl-reuse check, fleet restore, pipeline, cache save) with a span
// around each.
#include <cstdio>
#include <filesystem>
#include <span>
#include <stdexcept>

#include "analysis/cache.h"
#include "blocklist/catalogue.h"
#include "internet/abuse.h"
#include "serve/lookup.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace reuse;


/// evolve_scenario_cached(base, 1 day), step by step, with spans. Adds
/// internet.abuse_events and analysis.crawl_reused to `counters`.
analysis::CachedScenario traced_evolve(analysis::ScenarioConfig base_config,
                                       const std::string& base_path,
                                       const std::string& ext_path, Tracer& t,
                                       std::map<std::string, double>& counters) {
  base_config.finalize();
  analysis::ScenarioConfig extended =
      analysis::extend_scenario_days(base_config, 1);
  return t.span("analysis.evolve", [&] {
    auto base = t.span("analysis.cache_load", [&] {
      return analysis::load_scenario_cache(base_path, base_config);
    });
    if (!base || !base->has_carry) {
      throw std::runtime_error("tick: base cache unusable");
    }
    sim::FaultInjector injector(extended.faults);
    inet::World world = t.span("internet.world",
                               [&] { return inet::World(extended.world); });
    auto catalogue = t.span("blocklist.catalogue", [&] {
      return blocklist::build_catalogue(extended.seed ^ 0xca7aULL);
    });
    std::uint64_t abuse_events = 0;
    blocklist::EcosystemCarry new_carry;
    blocklist::EcosystemResult tail = t.span("blocklist.ecosystem", [&] {
      sim::StageGuard guard(&injector, sim::FaultStage::kEcosystem);
      blocklist::EcosystemSimulator simulator(catalogue, extended.ecosystem,
                                              &injector, nullptr);
      if (!simulator.resume_from(base->carry, base->ecosystem.stats,
                                 base->ecosystem.stats.snapshots_taken)) {
        throw std::runtime_error("tick: ecosystem carry rejected");
      }
      const inet::AbuseGenConfig abuse =
          analysis::scenario_abuse_config(world, extended);
      t.span("internet.abuse", [&] {
        inet::stream_abuse_range(
            world, abuse, /*chunk_days=*/32, span_end_seconds(base_config),
            span_end_seconds(extended),
            [&](std::span<const inet::AbuseEvent> chunk) {
              abuse_events += chunk.size();
              t.span("blocklist.ingest", [&] { simulator.ingest(chunk); });
            });
      });
      return t.span("blocklist.finish",
                    [&] { return simulator.finish(&new_carry); });
    });

    net::PrefixSet base_slash24s;
    blocklist::EcosystemResult ecosystem;
    t.span("blocklist.fold", [&] {
      base_slash24s = base->ecosystem.store.blocklisted_slash24s();
      ecosystem.store = std::move(base->ecosystem.store);
      ecosystem.stats = tail.stats;
      ecosystem.stats.events_seen += base->ecosystem.stats.events_seen;
      tail.store.for_each_listing([&](blocklist::ListId list,
                                      net::Ipv4Address address,
                                      const net::IntervalSet& days) {
        for (const auto& interval : days.intervals()) {
          ecosystem.store.record_span(list, address, interval.begin,
                                      interval.end);
        }
      });
      tail.store.for_each_observed(
          [&](blocklist::ListId list, const net::IntervalSet& days) {
            for (const auto& interval : days.intervals()) {
              ecosystem.store.mark_observed_span(list, interval.begin,
                                                 interval.end);
            }
          });
    });

    std::vector<net::Ipv4Prefix> before = base_slash24s.to_vector();
    std::vector<net::Ipv4Prefix> after =
        ecosystem.store.blocklisted_slash24s().to_vector();
    std::sort(before.begin(), before.end());
    std::sort(after.begin(), after.end());
    const bool crawl_reused =
        !extended.restrict_crawler_to_blocklisted || before == after;
    // The crawl stage reuses the base's crawl unless the /24 set moved; its
    // span is recorded either way, so every traced tick has the same spans.
    analysis::CrawlOutput crawl = t.span("crawler.crawl", [&] {
      if (crawl_reused) {
        analysis::publish_crawl_metrics(base->crawl);
        return std::move(base->crawl);
      }
      sim::StageGuard guard(&injector, sim::FaultStage::kCrawl);
      return analysis::run_scenario_crawl(world, ecosystem.store, extended,
                                          &injector, nullptr, nullptr);
    });
    const bool fleet_restored =
        base->has_fleet && base->fleet.fingerprint ==
                               analysis::fleet_config_fingerprint(extended.fleet);
    atlas::AtlasFleet fleet = t.span("atlas.fleet", [&] {
      if (fleet_restored) {
        return atlas::AtlasFleet::restore(
            std::move(base->fleet.log), std::move(base->fleet.truths),
            base->fleet.records_suppressed, base->fleet.allocations,
            base->fleet.gap_bridged_days);
      }
      sim::StageGuard guard(&injector, sim::FaultStage::kFleet);
      return atlas::AtlasFleet(world, extended.fleet, &injector, nullptr);
    });
    dynadetect::PipelineResult pipeline = t.span("dynadetect.pipeline", [&] {
      return dynadetect::run_pipeline(fleet.compressed_log(),
                                      extended.pipeline, nullptr);
    });
    // The tick's base runs no census; a fault-free run injects nothing, so
    // this run's (empty) ledger is the composed one.
    const sim::FaultStats injected = injector.stats();
    analysis::DegradationReport degradation = analysis::build_degradation_report(
        injected, crawl.stats, crawl.transport_fault_request_drops,
        crawl.transport_fault_response_drops, ecosystem.stats,
        fleet.records_suppressed(), pipeline);
    t.span("analysis.cache_save", [&] {
      analysis::save_scenario_cache(ext_path, extended, crawl, ecosystem,
                                    injected, &new_carry, &fleet);
    });

    counters["internet.abuse_events"] = static_cast<double>(abuse_events);
    counters["analysis.crawl_reused"] = crawl_reused ? 1.0 : 0.0;
    return analysis::CachedScenario{std::move(extended),
                                    std::move(world),
                                    std::move(catalogue),
                                    std::move(ecosystem),
                                    std::move(crawl),
                                    std::move(fleet),
                                    std::move(pipeline),
                                    census::CensusResult{},
                                    std::move(degradation),
                                    /*cache_hit=*/true,
                                    analysis::StageTimer{}};
  });
}

}  // namespace

analysis::ScenarioConfig tick_base_config(std::uint64_t scenario_seed,
                                          bool smoke) {
  // The full shape is bench_incremental's: 120 ASes, 800 probes, a
  // 240-day base.
  return smoke ? shaped_config(scenario_seed, 12, 200, false, 8)
               : shaped_config(scenario_seed, 120, 800, false, 240);
}

Result run_tick(const RunOptions& options) {
  Result result;
  const std::vector<Golden>& goldens = tick_goldens(options.smoke);
  const std::size_t first = options.seed % goldens.size();

  // Set-up: simulate and cache every pinned base, each timed on its own, in
  // the same order whatever the seed (the forked ops inherit this heap).
  struct Base {
    Golden golden;
    analysis::ScenarioConfig config;
    std::string base_path;
    std::string next_path;
    std::shared_ptr<const serve::CompiledSnapshot> snapshot;
  };
  std::vector<Base> bases;
  std::vector<double> setup_samples;
  for (const Golden& golden : goldens) {
    const std::string stem =
        options.work_dir + "/tick_" + std::to_string(golden.scenario_seed);
    Base base{golden, tick_base_config(golden.scenario_seed, options.smoke),
              stem + "_base.cache", stem + "_next.cache", nullptr};
    const auto start = Clock::now();
    std::remove(base.base_path.c_str());
    const analysis::CachedScenario built =
        analysis::run_scenario_cached(base.config, base.base_path);
    base.snapshot =
        std::make_shared<const serve::CompiledSnapshot>(build_snapshot(built));
    setup_samples.push_back(seconds_since(start));
    result.gate(!built.cache_hit, "tick set-up found a stale base cache");
    bases.push_back(std::move(base));
  }
  result.metrics["setup_s"] = median(setup_samples);

  serve::LookupEngine engine;
  Tracer tracer;
  // One day-N -> N+1 tick of `base`; `traced` swaps evolve_scenario_cached
  // for traced_evolve and compares against the untraced twin's wall time
  // `untraced_s`. The engine serves the base's day-N snapshot first.
  auto tick = [&](const Base& base, bool traced, double untraced_s) {
    engine.publish(base.snapshot);
    std::map<std::string, double> counters;
    const std::size_t mark = tracer.mark();
    reset_peak_rss();
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    std::optional<analysis::CachedScenario> next;
    bool resumed = true;
    const int root = traced ? tracer.begin("tick") : -1;
    if (traced) {
      next.emplace(traced_evolve(base.config, base.base_path, base.next_path,
                                 tracer, counters));
    } else {
      analysis::EvolvedScenario evolved = analysis::evolve_scenario_cached(
          base.config, 1, base.base_path, base.next_path);
      resumed = evolved.path == analysis::EvolvePath::kResumed;
      next.emplace(std::move(evolved.scenario));
    }
    auto span = [&](const char* name, auto&& fn) -> decltype(auto) {
      return traced ? tracer.span(name, fn) : fn();
    };
    const serve::CompiledSnapshot rebuilt =
        span("serve.build", [&] { return build_snapshot(*next); });
    const std::shared_ptr<const serve::CompiledSnapshot> served =
        engine.snapshot();
    const serve::SnapshotDelta delta = span(
        "serve.diff", [&] { return serve::SnapshotBuilder::diff(*served, rebuilt); });
    std::string error;
    std::optional<serve::CompiledSnapshot> applied =
        span("serve.apply", [&] { return delta.apply(*served, &error); });
    const bool apply_ok = applied.has_value();
    const std::uint64_t applied_fp = apply_ok ? applied->fingerprint() : 0;
    if (apply_ok) {
      span("serve.publish", [&] {
        engine.publish(std::make_shared<const serve::CompiledSnapshot>(
            std::move(*applied)));
      });
    }
    if (traced) tracer.end(root);
    const double wall_s = seconds_since(start);
    const double cpu_s = process_cpu_seconds() - cpu0;
    const double peak_mb = peak_rss_mb();

    result.gate(resumed, "tick fell back to a fresh run");
    result.gate(products_of(*next) == base.golden.products,
                "resumed products != pinned fresh-extended fingerprint");
    result.gate(rebuilt.fingerprint() == base.golden.snapshot,
                "tick snapshot != pinned fingerprint");
    result.gate(apply_ok && applied_fp == rebuilt.fingerprint(),
                "delta-applied snapshot != rebuilt snapshot: " + error);

    if (traced) {
      // analysis.evolve_ms is evolve's inclusive time; its own steps (the
      // /24 comparison, the degradation report, assembling the scenario)
      // are analysis.evolve_self_ms.
      std::map<std::string, double> spans =
          span_samples(tracer, mark, "tick", untraced_s);
      spans["analysis.evolve_self_ms"] = spans.at("analysis.evolve_ms");
      spans["analysis.evolve_ms"] = tracer.total_ms(mark).at("analysis.evolve");
      result.layers.add_all(spans);
      result.layers.add_all(counters);
      const bool crawled = counters.at("analysis.crawl_reused") == 0.0;
      result.layers.add_all(product_counters(next->ecosystem,
                                             crawled ? &next->crawl : nullptr,
                                             next->fleet, next->pipeline,
                                             nullptr));
      result.layers.add("serve.delta_upserts",
                        static_cast<double>(delta.upsert_count()));
      result.layers.add("serve.entries",
                        static_cast<double>(rebuilt.entry_count()));
      std::error_code ec;
      result.layers.add(
          "analysis.cache_mb",
          static_cast<double>(std::filesystem::file_size(base.next_path, ec)) /
              (1 << 20));
      probe_lookup_layer(rebuilt, options.seed, result.layers);
    }
    return OpCost{wall_s, cpu_s, peak_mb};
  };

  Samples samples;
  const std::size_t ops = time_rotations(bases.size(), options.seconds, [&](std::size_t k) {
    const Base& base = bases[(first + k) % bases.size()];
    const OpCost cost =
        run_forked(result, tracer, [&] { return tick(base, false, 0.0); });
    if (options.trace) {
      run_forked(result, tracer, [&] { return tick(base, true, cost.wall_s); });
    }
    return cost;
  }, samples);

  for (const char* name : {"op_s", "op_cpu_s", "peak_rss_mb"}) {
    result.metrics[name] = samples.median_of(name);
  }
  result.context["ops"] = static_cast<double>(ops);
  if (options.trace && !options.trace_out.empty()) {
    tracer.write_chrome(options.trace_out);
  }
  return result;
}

}  // namespace perfbench
