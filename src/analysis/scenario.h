// End-to-end scenario runner.
//
// Every bench binary reproduces one table or figure from the same measured
// world: synthetic Internet -> abuse stream -> blocklist ecosystem; DHT ->
// crawler; Atlas fleet -> dynamic pipeline; ICMP census. Scenario bundles
// those runs behind one seed + scale knob so each bench stays a thin
// formatter, and the results are plain value types (no live references to
// the simulation machinery).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/degradation.h"
#include "atlas/fleet.h"
#include "blocklist/ecosystem.h"
#include "census/census.h"
#include "crawler/crawler.h"
#include "crawler/sharded.h"
#include "dht/network.h"
#include "dynadetect/pipeline.h"
#include "internet/abuse.h"
#include "internet/world.h"
#include "netbase/stage_timer.h"
#include "netbase/thread_pool.h"
#include "simnet/faults.h"

namespace reuse::analysis {

/// The stage timer lives in netbase; these names are kept for callers that
/// spell it through analysis.
using StageTimer = net::StageTimer;
using StageTiming = net::StageTiming;

/// Bumped whenever generator/ecosystem calibration constants change, so
/// stale scenario caches are rejected (the cache header records it).
/// 14: per-feed / per-probe RNG substreams (deterministic parallelism)
/// changed the ecosystem and fleet products.
/// 15: the crawl runs as `crawl_shards` partitioned vantage simulations
/// (crawler/sharded.h), changing every crawl product.
/// 16: the fleet log is stored run-compressed (atlas/compressed_log.h); the
/// products fingerprint hashes the probe-major runs instead of the expanded
/// per-record log.
inline constexpr std::uint32_t kCalibrationVersion = 16;

struct ScenarioConfig {
  std::uint64_t seed = 42;
  inet::WorldConfig world = inet::bench_world_config();
  /// Crawl length in simulated days (the real crawl ran for the whole
  /// 39/44-day collection; shorter crawls underestimate further).
  int crawl_days = 5;
  dht::DhtNetworkConfig dht;
  crawler::CrawlerConfig crawl;
  /// Independent crawl shard simulations (crawler/sharded.h): each crawls
  /// one hash-partition of the space from its own overlay replica, and the
  /// harvests merge in index order. Part of the config fingerprint — unlike
  /// `jobs`, which only decides how many shards run concurrently, the shard
  /// count changes the products.
  std::size_t crawl_shards = 8;
  /// Restrict the crawler to blocklisted /24s, as the paper did.
  bool restrict_crawler_to_blocklisted = true;
  atlas::FleetConfig fleet;
  dynadetect::PipelineConfig pipeline;
  blocklist::EcosystemConfig ecosystem;
  census::CensusConfig census;
  bool run_census = true;
  /// Fault schedule injected across the whole run (transport, feeds, Atlas).
  /// Empty (the default) keeps every subsystem byte-identical to a run with
  /// no injector at all.
  sim::FaultPlan faults;
  /// Abuse-generation horizon, as an absolute simulated day number. 0 (the
  /// default) resolves to the end of the last collection period. Actor
  /// episode placement depends on the generation window's END, so a run
  /// that will later be evolved past its last period must declare the
  /// final horizon up front — then extending the periods toward that
  /// horizon only *appends* events, and a resumed run is byte-identical to
  /// a fresh one (see DESIGN § incremental pipeline). Ingestion is always
  /// clipped to the periods' span, so for any horizon >= the span end the
  /// products of the *base* run are unchanged.
  int horizon_days = 0;
  /// Worker threads for the parallel stages (ecosystem, fleet, pipeline,
  /// census): 1 = serial, 0 = one per hardware thread. Deliberately NOT part
  /// of `config_fingerprint` (like `run_census`): products are byte-identical
  /// for every value, so every jobs setting shares one cache file.
  int jobs = 1;

  /// Wires sub-seeds and paper-default windows from the master seed.
  void finalize();
};

/// The thread pool a scenario with `jobs` uses: nullptr for serial (jobs
/// <= 1 after resolving 0 to the hardware thread count). Exposed so CLI
/// joins can share the scenario's threading policy.
[[nodiscard]] std::unique_ptr<net::ThreadPool> make_scenario_pool(int jobs);

/// Small preset for tests; big preset for bench binaries.
[[nodiscard]] ScenarioConfig test_scenario_config(std::uint64_t seed = 7);
[[nodiscard]] ScenarioConfig bench_scenario_config(std::uint64_t seed = 42);

/// Memory-stress preset: a world past one million addresses with a ~100k
/// probe fleet, a single crawl day, and no census — the configuration
/// bench_worldscale uses to measure addresses/sec and peak RSS of the hot
/// per-address data plane. Products stay byte-identical across `jobs`, like
/// every other preset.
[[nodiscard]] ScenarioConfig world_scale_scenario_config(
    std::uint64_t seed = 42);

/// A representative chaos schedule for `config`: one episode of every
/// FaultKind, placed deterministically from `chaos_seed` — a bootstrap
/// outage at crawl start, a loss burst mid-crawl, a multi-day feed outage
/// and a corruption spell inside the first collection period, and an Atlas
/// controller gap inside the fleet window.
[[nodiscard]] sim::FaultPlan default_chaos_plan(const ScenarioConfig& config,
                                                std::uint64_t chaos_seed);

/// FNV-1a fingerprint of every configuration field that feeds the cached
/// scenario products (crawl + blocklist ecosystem): seed, the full world
/// generator config, crawl length, DHT, crawler, the crawler-restriction
/// flag, and the ecosystem knobs — serialized field-by-field through
/// `netbase/serialize.h` and hashed. `pipeline`, `census` and `run_census`
/// (re-run on every load) and `fleet` (its cache section carries its own
/// fleet_config_fingerprint) are deliberately excluded so e.g. census and
/// census-less benches keep sharing one cache file. The config is
/// finalized internally, so callers may pass it before or after
/// `finalize()`.
[[nodiscard]] std::uint64_t config_fingerprint(const ScenarioConfig& config);

/// The collection span of a finalized `config` (earliest period begin to
/// latest period end) and the abuse-generation horizon it resolves to:
/// `horizon_days`, or the span end when that is later (0 = auto).
struct ScenarioSpan {
  net::TimeWindow collection;
  net::SimTime horizon;
};
[[nodiscard]] ScenarioSpan scenario_span(const ScenarioConfig& config);

/// The abuse-generation config a scenario derives from `config`: the
/// 15-day warm-up lead, the per-actor rates from the world config, the
/// abuse sub-seed, and the generation window resolved against
/// `horizon_days`. A resumed run re-streams the tail of exactly this
/// stream.
[[nodiscard]] inet::AbuseGenConfig scenario_abuse_config(
    const inet::World& world, const ScenarioConfig& config);

/// The crawl's product type (crawler/sharded.h).
using CrawlOutput = crawler::CrawlOutput;

/// Publishes the crawler_ metric family from a finished crawl. Called by
/// the scenario runner after the crawl stage, and by the cache loader when
/// a hit restores the crawl instead of re-running it — either way the run
/// manifest carries the same numbers the crawl actually produced.
void publish_crawl_metrics(const CrawlOutput& crawl);

/// Runs the scenario's sharded crawl stage against `store` (the blocklist
/// presence the crawler restriction reads) and publishes its metrics.
/// `faults` and `stage_times` are run_sharded_crawl's: both optional, the
/// shard fault ledgers land in the one and the crawl.* sub-stages in the
/// other, together with crawl.restrict, the wall time of building the
/// restriction's blocklisted /24 set.
[[nodiscard]] CrawlOutput run_scenario_crawl(
    const inet::World& world, const blocklist::SnapshotStore& store,
    const ScenarioConfig& config, sim::FaultInjector* faults,
    net::ThreadPool* pool, StageTimer* stage_times);

/// A scenario's products as plain values (no live references to the
/// simulation machinery). One aggregate whether the stages ran fresh, came
/// from a cache hit or resumed a cached run.
struct Scenario {
  ScenarioConfig config;
  inet::World world;
  std::vector<blocklist::BlocklistInfo> catalogue;
  blocklist::EcosystemResult ecosystem;
  CrawlOutput crawl;
  atlas::AtlasFleet fleet;
  dynadetect::PipelineResult pipeline;
  census::CensusResult census;
  /// Consumer ledgers beside the run's composed injector ledger
  /// (`degradation.injected`).
  DegradationReport degradation;
  /// True when stages were taken from a cache file (hit or resume).
  bool cache_hit = false;
  /// Wall-clock per stage that ran, plus "cache-load" when a cache file
  /// was consulted.
  StageTimer stage_times;
};

/// Builds and runs everything, fresh and without touching the disk.
[[nodiscard]] Scenario run_scenario(ScenarioConfig config);

/// FNV-1a fingerprint of every scenario *product* (ecosystem store and
/// stats, crawl outputs, fleet log and truths, pipeline funnel and prefix
/// sets, census metrics) in a canonical order. Two runs produced identical
/// results iff their fingerprints match — the equivalence tests and
/// bench_scenario use this to prove --jobs N is byte-identical to --jobs 1.
[[nodiscard]] std::uint64_t products_fingerprint(
    const CrawlOutput& crawl, const blocklist::EcosystemResult& ecosystem,
    const atlas::AtlasFleet& fleet, const dynadetect::PipelineResult& pipeline,
    const census::CensusResult& census);

}  // namespace reuse::analysis
