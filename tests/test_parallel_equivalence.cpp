// Determinism proof for the parallel scenario stages: every product a bench
// binary can read must be byte-identical for every --jobs value, with and
// without a chaos plan, and through the cache round-trip. The comparison is
// `products_fingerprint`, which hashes the ecosystem store, crawl outputs,
// fleet log/truths, pipeline funnel + prefix sets, and census metrics in a
// canonical order — so one EXPECT_EQ covers every artifact at once.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cache.h"
#include "analysis/manifest.h"
#include "analysis/scenario.h"
#include "netbase/metrics.h"

namespace reuse::analysis {
namespace {

ScenarioConfig tiny_config(std::uint64_t seed = 5) {
  ScenarioConfig config;
  config.seed = seed;
  config.world = inet::test_world_config(seed);
  config.world.as_count = 30;
  config.crawl_days = 1;
  config.fleet.probe_count = 100;
  // Keep the census on (unlike most tiny fixtures): the census stage is one
  // of the parallel loops under test. A short window keeps it cheap.
  config.run_census = true;
  config.census.window = {net::SimTime(0), net::SimTime(2 * 86400)};
  config.finalize();
  return config;
}

std::uint64_t fingerprint_of(const Scenario& s) {
  return products_fingerprint(s.crawl, s.ecosystem, s.fleet, s.pipeline,
                              s.census);
}

std::uint64_t run_at(ScenarioConfig config, int jobs) {
  config.jobs = jobs;
  return fingerprint_of(run_scenario(config));
}

using MetricValues = std::vector<std::pair<std::string, std::int64_t>>;

// Runs the scenario from a clean global registry and returns the
// deterministic metric snapshot (everything except the scheduling-dependent
// pool_ family) alongside the products fingerprint.
MetricValues metrics_at(ScenarioConfig config, int jobs,
                        std::uint64_t* fingerprint) {
  net::metrics::Registry::global().reset();
  config.jobs = jobs;
  const Scenario s = run_scenario(config);
  *fingerprint = fingerprint_of(s);
  return net::metrics::Registry::global().flat_values("pool_");
}

MetricValues with_prefix(const MetricValues& values, std::string_view prefix) {
  MetricValues out;
  for (const auto& pair : values) {
    if (pair.first.rfind(prefix, 0) == 0) out.push_back(pair);
  }
  return out;
}

TEST(ParallelEquivalence, ProductsIdenticalAcrossJobCounts) {
  const ScenarioConfig config = tiny_config();
  const std::uint64_t serial = run_at(config, 1);
  EXPECT_EQ(run_at(config, 2), serial);
  EXPECT_EQ(run_at(config, 8), serial);
}

TEST(ParallelEquivalence, JobsZeroResolvesToHardwareAndMatchesSerial) {
  const ScenarioConfig config = tiny_config(11);
  EXPECT_EQ(run_at(config, 0), run_at(config, 1));
}

TEST(ParallelEquivalence, ChaosPlanDegradesIdenticallyAtAnyJobCount) {
  // Under fault injection the ledger is atomic and the per-unit draws come
  // from substreams, so even a degraded run must be byte-identical and
  // reconcile exactly regardless of the pool size.
  ScenarioConfig config = tiny_config(7);
  config.faults = default_chaos_plan(config, /*chaos_seed=*/1);
  config.pipeline.max_change_gap = net::Duration::days(7);
  config.finalize();

  config.jobs = 1;
  const Scenario serial = run_scenario(config);
  config.jobs = 8;
  const Scenario parallel = run_scenario(config);

  EXPECT_TRUE(serial.degradation.degraded());
  EXPECT_EQ(fingerprint_of(parallel), fingerprint_of(serial));
  EXPECT_EQ(parallel.degradation, serial.degradation);
  EXPECT_EQ(parallel.degradation.injected, serial.degradation.injected);
  EXPECT_TRUE(parallel.degradation.reconciliation_failures().empty());
}

TEST(ParallelEquivalence, FingerprintIsSensitiveToTheSeed) {
  // Guard against a degenerate fingerprint (hashing nothing would make every
  // equivalence test above pass vacuously).
  EXPECT_NE(run_at(tiny_config(5), 1), run_at(tiny_config(6), 1));
}

TEST(ParallelEquivalence, JobsDoNotFeedTheConfigFingerprint) {
  ScenarioConfig serial = tiny_config();
  ScenarioConfig wide = tiny_config();
  wide.jobs = 8;
  // Same fingerprint => every jobs value shares one cache file.
  EXPECT_EQ(config_fingerprint(serial), config_fingerprint(wide));
}

TEST(ParallelEquivalence, CacheRoundTripUnderParallelJobs) {
  const std::string path = "test_parallel_equivalence_roundtrip.cache";
  std::remove(path.c_str());

  // Write the cache from a serial run, replay it with --jobs 8: the replayed
  // stages (fleet, pipeline, census) must land on the same products.
  ScenarioConfig config = tiny_config();
  config.jobs = 1;
  const CachedScenario miss = run_scenario_cached(config, path);
  ASSERT_FALSE(miss.cache_hit);

  config.jobs = 8;
  const CachedScenario hit = run_scenario_cached(config, path);
  ASSERT_TRUE(hit.cache_hit);
  EXPECT_EQ(fingerprint_of(hit), fingerprint_of(miss));

  std::remove(path.c_str());
}

TEST(ParallelEquivalence, MetricsAndProductsIdenticalAcrossJobCounts) {
  // The metrics layer must be observability-only: with instrumentation
  // recording, products stay byte-identical across pool sizes, and every
  // deterministic metric (all families except pool_) lands on the same
  // value too.
  const ScenarioConfig config = tiny_config(3);
  std::uint64_t serial_fp = 0;
  std::uint64_t two_fp = 0;
  std::uint64_t wide_fp = 0;
  const MetricValues serial = metrics_at(config, 1, &serial_fp);
  const MetricValues two = metrics_at(config, 2, &two_fp);
  const MetricValues wide = metrics_at(config, 8, &wide_fp);
  EXPECT_EQ(two_fp, serial_fp);
  EXPECT_EQ(wide_fp, serial_fp);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(two, serial);
  EXPECT_EQ(wide, serial);
}

TEST(ParallelEquivalence, MetricsIdenticalUnderChaosAcrossJobCounts) {
  ScenarioConfig config = tiny_config(7);
  config.faults = default_chaos_plan(config, /*chaos_seed=*/1);
  config.finalize();
  std::uint64_t serial_fp = 0;
  std::uint64_t wide_fp = 0;
  const MetricValues serial = metrics_at(config, 1, &serial_fp);
  const MetricValues wide = metrics_at(config, 8, &wide_fp);
  EXPECT_EQ(wide_fp, serial_fp);
  EXPECT_EQ(wide, serial);
  // The chaos plan actually fired: at least one faults_ counter is nonzero.
  std::int64_t injected = 0;
  for (const auto& [name, value] : with_prefix(serial, "faults_")) {
    injected += value;
  }
  EXPECT_GT(injected, 0);
}

TEST(ParallelEquivalence, ManifestCoversAllSevenSubsystems) {
  net::metrics::Registry::global().reset();
  ScenarioConfig config = tiny_config();
  config.jobs = 2;
  const Scenario s = run_scenario(config);
  RunManifestInfo info;
  info.tool = "test_parallel_equivalence";
  info.config = &config;
  info.stage_times = &s.stage_times;
  const std::string json = run_manifest_json(info);
  for (const char* prefix :
       {"crawler_", "feeds_", "atlas_", "pipeline_", "cache_", "faults_",
        "pool_"}) {
    EXPECT_NE(json.find(prefix), std::string::npos)
        << "manifest missing subsystem family " << prefix;
  }
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"test_parallel_equivalence\""),
            std::string::npos);
  EXPECT_NE(json.find("\"config_fingerprint\": \""), std::string::npos);
}

TEST(ParallelEquivalence, CacheHitRepublishesCrawlAndFeedMetrics) {
  const std::string path = "test_parallel_equivalence_metrics.cache";
  std::remove(path.c_str());

  ScenarioConfig config = tiny_config(9);
  config.jobs = 1;
  net::metrics::Registry::global().reset();
  const CachedScenario miss = run_scenario_cached(config, path);
  ASSERT_FALSE(miss.cache_hit);
  const MetricValues fresh = net::metrics::Registry::global().flat_values();

  net::metrics::Registry::global().reset();
  const CachedScenario hit = run_scenario_cached(config, path);
  ASSERT_TRUE(hit.cache_hit);
  const MetricValues replayed = net::metrics::Registry::global().flat_values();

  // A hit restores crawl + ecosystem from disk instead of re-running them;
  // the loader must still publish those families from the cached products.
  EXPECT_EQ(with_prefix(replayed, "crawler_"), with_prefix(fresh, "crawler_"));
  EXPECT_EQ(with_prefix(replayed, "feeds_"), with_prefix(fresh, "feeds_"));
  ASSERT_FALSE(with_prefix(fresh, "crawler_").empty());
  ASSERT_FALSE(with_prefix(fresh, "feeds_").empty());
  // And the cache_ family reflects what actually happened on each side.
  // flat_values is name-sorted: bytes_read, bytes_written, hits, misses,
  // rejects, saves.
  const MetricValues miss_cache = with_prefix(fresh, "cache_");
  ASSERT_EQ(miss_cache.size(), 6u);
  EXPECT_EQ(miss_cache[0].second, 0);                // bytes_read
  EXPECT_GT(miss_cache[1].second, 0);                // bytes_written
  EXPECT_EQ(miss_cache[2].second, 0);                // hits
  EXPECT_EQ(miss_cache[3].second, 1);                // misses
  EXPECT_EQ(miss_cache[4].second, 0);                // rejects
  EXPECT_EQ(miss_cache[5].second, 1);                // saves
  const MetricValues hit_cache = with_prefix(replayed, "cache_");
  ASSERT_EQ(hit_cache.size(), 6u);
  EXPECT_GT(hit_cache[0].second, 0);                 // bytes_read
  EXPECT_EQ(hit_cache[1].second, 0);                 // bytes_written
  EXPECT_EQ(hit_cache[2].second, 1);                 // hits
  EXPECT_EQ(hit_cache[3].second, 0);                 // misses
  EXPECT_EQ(hit_cache[4].second, 0);                 // rejects
  EXPECT_EQ(hit_cache[5].second, 0);                 // saves

  std::remove(path.c_str());
}

}  // namespace
}  // namespace reuse::analysis
