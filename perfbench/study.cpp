// `study` workload: one fresh end-to-end study per op.
//
// An op runs world -> abuse -> ecosystem -> crawl -> fleet -> pipeline ->
// census -> compute_reuse_impact -> SnapshotBuilder::build at jobs=1. A
// study's cost depends strongly on the world its seed draws, so every run
// times the same pinned worlds (study_goldens) in whole rotations, starting
// at the slot --seed picks. The untraced op is analysis::run_scenario; the traced op
// drives the same stages through their public calls, in Scenario's order,
// with a span around each, and must reproduce the same fingerprints.
#include <span>

#include "analysis/impact.h"
#include "blocklist/catalogue.h"
#include "internet/abuse.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace reuse;


/// What one traced study produced. It is fingerprinted after the study's
/// root span has closed, as the untraced op fingerprints after its clock
/// stops.
struct TracedStudy {
  blocklist::EcosystemResult ecosystem;
  analysis::CrawlOutput crawl;
  atlas::AtlasFleet fleet;
  dynadetect::PipelineResult pipeline;
  census::CensusResult census;
  serve::CompiledSnapshot snapshot;
  std::uint64_t abuse_events = 0;
};

TracedStudy traced_study(analysis::ScenarioConfig config, Tracer& t) {
  config.finalize();
  sim::FaultInjector injector(config.faults);
  return t.span("study", [&] {
    const inet::World world = t.span(
        "internet.world", [&] { return inet::World(config.world); });
    const auto catalogue = t.span("blocklist.catalogue", [&] {
      return blocklist::build_catalogue(config.seed ^ 0xca7aULL);
    });
    std::uint64_t abuse_events = 0;
    blocklist::EcosystemCarry carry;
    blocklist::EcosystemResult ecosystem = t.span("blocklist.ecosystem", [&] {
      sim::StageGuard guard(&injector, sim::FaultStage::kEcosystem);
      blocklist::EcosystemSimulator simulator(catalogue, config.ecosystem,
                                              &injector, nullptr);
      const inet::AbuseGenConfig abuse =
          analysis::scenario_abuse_config(world, config);
      t.span("internet.abuse", [&] {
        inet::stream_abuse_range(
            world, abuse, /*chunk_days=*/32, abuse.window.begin.seconds(),
            span_end_seconds(config),
            [&](std::span<const inet::AbuseEvent> chunk) {
              abuse_events += chunk.size();
              t.span("blocklist.ingest", [&] { simulator.ingest(chunk); });
            });
      });
      return t.span("blocklist.finish",
                    [&] { return simulator.finish(&carry); });
    });
    analysis::CrawlOutput crawl = t.span("crawler.crawl", [&] {
      sim::StageGuard guard(&injector, sim::FaultStage::kCrawl);
      return analysis::run_scenario_crawl(world, ecosystem.store, config,
                                          &injector, nullptr, nullptr);
    });
    atlas::AtlasFleet fleet = t.span("atlas.fleet", [&] {
      sim::StageGuard guard(&injector, sim::FaultStage::kFleet);
      return atlas::AtlasFleet(world, config.fleet, &injector, nullptr);
    });
    dynadetect::PipelineResult pipeline = t.span("dynadetect.pipeline", [&] {
      return dynadetect::run_pipeline(fleet.compressed_log(), config.pipeline,
                                      nullptr);
    });
    census::CensusResult census = t.span("census.census", [&] {
      return config.run_census
                 ? census::run_census(world, config.census, {}, nullptr)
                 : census::CensusResult{};
    });
    t.span("analysis.impact", [&] {
      return analysis::compute_reuse_impact(ecosystem.store, catalogue,
                                            crawl.nated_set,
                                            pipeline.dynamic_prefixes);
    });
    serve::CompiledSnapshot snapshot = t.span("serve.build", [&] {
      return serve::SnapshotBuilder()
          .with_store(ecosystem.store)
          .with_nated(crawl.nated_set)
          .with_dynamic(pipeline.dynamic_prefixes)
          .with_catalogue(catalogue)
          .build();
    });
    return TracedStudy{std::move(ecosystem), std::move(crawl),
                       std::move(fleet),     std::move(pipeline),
                       std::move(census),    std::move(snapshot),
                       abuse_events};
  });
}

struct StudyOp : OpCost {
  std::uint64_t products = 0;
  std::uint64_t snapshot = 0;
};

/// One untraced study; the fingerprints are taken after the clock stops.
StudyOp untraced_study(const analysis::ScenarioConfig& config) {
  StudyOp op;
  reset_peak_rss();
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  analysis::Scenario scenario = analysis::run_scenario(config);
  (void)analysis::compute_reuse_impact(
      scenario.ecosystem.store, scenario.catalogue, scenario.crawl.nated_set,
      scenario.pipeline.dynamic_prefixes);
  const serve::CompiledSnapshot snapshot = build_snapshot(scenario);
  op.wall_s = seconds_since(start);
  op.cpu_s = process_cpu_seconds() - cpu0;
  op.peak_mb = peak_rss_mb();
  op.products = products_of(scenario);
  op.snapshot = snapshot.fingerprint();
  return op;
}

}  // namespace

analysis::ScenarioConfig study_config(std::uint64_t scenario_seed, bool smoke) {
  if (!smoke) return shaped_config(scenario_seed, 40, 400, true, 0);
  // Smoke runs use one short collection period and census window (the
  // ecosystem's cost is per feed per day, whatever the world's size).
  analysis::ScenarioConfig config = shaped_config(scenario_seed, 24, 120, true, 6);
  config.census.window = net::TimeWindow{net::SimTime(0), net::SimTime(2 * 86400)};
  return config;
}

Result run_study(const RunOptions& options) {
  Result result;
  const std::vector<Golden>& goldens = study_goldens(options.smoke);
  const std::size_t slots = goldens.size();
  const std::size_t first = options.seed % slots;
  auto check = [&](const Golden& golden, std::uint64_t products,
                   std::uint64_t snapshot, const char* what) {
    result.gate(products == golden.products,
                std::string(what) + " products fingerprint != golden");
    result.gate(snapshot == golden.snapshot,
                std::string(what) + " snapshot fingerprint != golden");
  };

  // Set-up: a smoke-scale study pages in every stage's code (each timed op
  // then runs in a forked child of this warm process).
  const analysis::ScenarioConfig warm =
      study_config(study_goldens(true).front().scenario_seed, true);
  const double setup_s = median_setup_seconds(3, [&] {
    analysis::Scenario scenario = analysis::run_scenario(warm);
    (void)build_snapshot(scenario);
  });
  result.metrics["setup_s"] = setup_s;

  Samples samples;
  Tracer tracer;
  const std::size_t ops = time_rotations(slots, options.seconds, [&](std::size_t k) {
    const Golden& golden = goldens[(first + k) % slots];
    const analysis::ScenarioConfig config =
        study_config(golden.scenario_seed, options.smoke);
    const OpCost cost = run_forked(result, tracer, [&] {
      const StudyOp op = untraced_study(config);
      check(golden, op.products, op.snapshot, "study");
      return OpCost(op);
    });
    if (options.trace) {
      // Traced twin of the same world, right after the untraced op.
      run_forked(result, tracer, [&] {
        const std::size_t mark = tracer.mark();
        const TracedStudy traced = traced_study(config, tracer);
        check(golden, products_of(traced), traced.snapshot.fingerprint(),
              "traced study");
        result.layers.add_all(span_samples(tracer, mark, "study", cost.wall_s));
        result.layers.add_all(product_counters(traced.ecosystem, &traced.crawl,
                                               traced.fleet, traced.pipeline,
                                               &traced.census));
        result.layers.add("internet.abuse_events",
                          static_cast<double>(traced.abuse_events));
        result.layers.add("serve.entries",
                          static_cast<double>(traced.snapshot.entry_count()));
        probe_lookup_layer(traced.snapshot, options.seed, result.layers);
        return OpCost{};
      });
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
