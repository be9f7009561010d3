// Cache-hit runs must be indistinguishable from fresh simulation: the
// figures every bench binary prints are derived from the cached crawl and
// presence store, so any drift in the cache round-trip silently skews the
// reproduction targets. These tests compare the Figure 4 (detection funnel)
// and Figure 7 (listing durations) inputs between a fresh Scenario, the
// cache-miss run that wrote the file, and the cache-hit run that read it —
// and prove that distinct configs neither share nor evict a cache file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "analysis/cache.h"
#include "analysis/impact.h"

namespace reuse {
namespace {

analysis::ScenarioConfig tiny_config(std::uint64_t seed = 5) {
  analysis::ScenarioConfig config;
  config.seed = seed;
  config.world = inet::test_world_config(seed);
  config.world.as_count = 30;
  config.crawl_days = 1;
  config.fleet.probe_count = 100;
  config.run_census = false;
  config.finalize();
  return config;
}

/// The Figure 4 numbers: funnel stage joins against the blocklisted set.
struct Fig4 {
  std::size_t bt_ips = 0;
  std::size_t nated_ips = 0;
  std::size_t nated_blocklisted = 0;
  std::size_t stages[4] = {0, 0, 0, 0};

  friend bool operator==(const Fig4&, const Fig4&) = default;
};

Fig4 fig4_of(const analysis::Scenario& s) {
  Fig4 out;
  out.bt_ips = s.crawl.evidence.size();
  out.nated_ips = s.crawl.nated.size();
  const blocklist::SnapshotStore& store = s.ecosystem.store;
  for (const auto& [address, users] : s.crawl.nated) {
    out.nated_blocklisted += store.contains_address(address);
  }
  const net::PrefixSet* footprints[4] = {
      &s.pipeline.all_probe_prefixes, &s.pipeline.single_as_change_prefixes,
      &s.pipeline.above_knee_prefixes, &s.pipeline.dynamic_prefixes};
  for (int stage = 0; stage < 4; ++stage) {
    for (const net::Ipv4Address address : store.sorted_addresses()) {
      out.stages[stage] += footprints[stage]->contains_address(address);
    }
  }
  return out;
}

/// The Figure 7 inputs, sorted for order-insensitive exact comparison.
analysis::ListingDurations fig7_of(const analysis::Scenario& s) {
  analysis::ListingDurations durations = analysis::compute_listing_durations(
      s.ecosystem.store, s.crawl.nated_set, s.pipeline.dynamic_prefixes);
  std::sort(durations.all_days.begin(), durations.all_days.end());
  std::sort(durations.nated_days.begin(), durations.nated_days.end());
  std::sort(durations.dynamic_days.begin(), durations.dynamic_days.end());
  return durations;
}

TEST(CacheEquivalence, CacheHitReproducesFreshScenarioFigures) {
  const auto config = tiny_config();
  const std::string path = "test_cache_equivalence_roundtrip.cache";
  std::remove(path.c_str());

  const analysis::Scenario fresh = analysis::run_scenario(config);
  const analysis::CachedScenario miss =
      analysis::run_scenario_cached(config, path);
  ASSERT_FALSE(miss.cache_hit);
  const analysis::CachedScenario hit =
      analysis::run_scenario_cached(config, path);
  ASSERT_TRUE(hit.cache_hit);

  const Fig4 fresh_fig4 = fig4_of(fresh);
  EXPECT_EQ(fig4_of(miss), fresh_fig4);
  EXPECT_EQ(fig4_of(hit), fresh_fig4);
  EXPECT_GT(fresh_fig4.bt_ips, 0u);

  const analysis::ListingDurations fresh_fig7 = fig7_of(fresh);
  const analysis::ListingDurations hit_fig7 = fig7_of(hit);
  EXPECT_EQ(hit_fig7.all_days, fresh_fig7.all_days);
  EXPECT_EQ(hit_fig7.nated_days, fresh_fig7.nated_days);
  EXPECT_EQ(hit_fig7.dynamic_days, fresh_fig7.dynamic_days);
  EXPECT_FALSE(fresh_fig7.all_days.empty());

  // The exact nated replay the benches iterate in order.
  EXPECT_EQ(hit.crawl.nated, fresh.crawl.nated);

  std::remove(path.c_str());
}

TEST(CacheEquivalence, HitWithForeignFleetSectionReRunsTheFleet) {
  for (const bool chaos : {false, true}) {
    SCOPED_TRACE(chaos ? "chaos" : "fault-free");
    auto config = tiny_config();
    if (chaos) {
      config.faults = analysis::default_chaos_plan(config, /*chaos_seed=*/1);
      config.pipeline.max_change_gap = net::Duration::days(7);
      config.finalize();
    }
    const std::string path = "test_cache_equivalence_fleet.cache";
    std::remove(path.c_str());
    ASSERT_FALSE(analysis::run_scenario_cached(config, path).cache_hit);

    // Fleet knobs sit outside the config fingerprint: the file still loads,
    // but its fleet section no longer matches, so the hit re-runs the fleet.
    config.fleet.probe_count += 40;
    const analysis::Scenario hit = analysis::run_scenario_cached(config, path);
    ASSERT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.fleet.truths().size(), config.fleet.probe_count);

    const analysis::Scenario fresh = analysis::run_scenario(config);
    EXPECT_EQ(analysis::products_fingerprint(hit.crawl, hit.ecosystem,
                                             hit.fleet, hit.pipeline,
                                             hit.census),
              analysis::products_fingerprint(fresh.crawl, fresh.ecosystem,
                                             fresh.fleet, fresh.pipeline,
                                             fresh.census));
    EXPECT_EQ(hit.degradation, fresh.degradation);
    EXPECT_EQ(hit.degradation.degraded(), chaos);
    std::remove(path.c_str());
  }
}

TEST(CacheEquivalence, DistinctConfigsNeverShareOrEvict) {
  // Route default cache paths into a private directory for this test.
  const std::filesystem::path dir = "test_cache_equivalence_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(::setenv("REUSE_CACHE_DIR", dir.string().c_str(), 1), 0);

  const auto config_a = tiny_config();
  auto config_b = tiny_config();
  config_b.ecosystem.reobservation_extend_rate += 0.05;
  config_b.finalize();
  ASSERT_NE(analysis::default_cache_path(config_a),
            analysis::default_cache_path(config_b));

  // Miss, miss: each config writes its own file.
  EXPECT_FALSE(analysis::run_scenario_cached(config_a).cache_hit);
  EXPECT_FALSE(analysis::run_scenario_cached(config_b).cache_hit);
  // Hit, hit: neither run evicted the other (the old seed-keyed path made
  // these two thrash-overwrite each other forever).
  EXPECT_TRUE(analysis::run_scenario_cached(config_a).cache_hit);
  EXPECT_TRUE(analysis::run_scenario_cached(config_b).cache_hit);
  // And neither file loads under the other's config (no false sharing).
  EXPECT_FALSE(analysis::load_scenario_cache(
                   analysis::default_cache_path(config_a), config_b)
                   .has_value());
  EXPECT_FALSE(analysis::load_scenario_cache(
                   analysis::default_cache_path(config_b), config_a)
                   .has_value());

  ASSERT_EQ(::unsetenv("REUSE_CACHE_DIR"), 0);
  std::filesystem::remove_all(dir);
}

// Preflight: an unusable cache path must be diagnosed before any simulation
// work is spent. (No chmod-based cases here — the test user may be root, for
// whom permission bits are advisory.)
TEST(CachePreflight, DirectoryAsCacheFileIsRejected) {
  const std::filesystem::path dir = "test_cache_preflight_dir";
  std::filesystem::create_directories(dir);
  const auto error = analysis::preflight_cache_path(dir.string());
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("directory"), std::string::npos) << *error;
  std::filesystem::remove_all(dir);
}

TEST(CachePreflight, MissingParentDirectoryIsRejected) {
  const auto error = analysis::preflight_cache_path(
      "test_cache_preflight_no_such_dir/sub/file.cache");
  ASSERT_TRUE(error.has_value());
}

TEST(CachePreflight, FileAsParentDirectoryIsRejected) {
  const std::string parent = "test_cache_preflight_file_parent";
  {
    std::ofstream os(parent);
    os << "not a directory";
  }
  const auto error =
      analysis::preflight_cache_path(parent + "/file.cache");
  ASSERT_TRUE(error.has_value());
  std::remove(parent.c_str());
}

TEST(CachePreflight, NewFileInWritableDirectoryIsAccepted) {
  const std::filesystem::path dir = "test_cache_preflight_ok_dir";
  std::filesystem::create_directories(dir);
  EXPECT_FALSE(
      analysis::preflight_cache_path((dir / "new.cache").string()).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CachePreflight, ExistingReadableFileIsAccepted) {
  const std::string path = "test_cache_preflight_existing.cache";
  {
    std::ofstream os(path, std::ios::binary);
    os << "stale bytes are fine; preflight only checks access";
  }
  EXPECT_FALSE(analysis::preflight_cache_path(path).has_value());
  std::remove(path.c_str());
}

TEST(CachePreflight, RelativePathInCwdIsAccepted) {
  // The CLI default (no $REUSE_CACHE_DIR) lands in the working directory.
  EXPECT_FALSE(
      analysis::preflight_cache_path("test_cache_preflight_plain.cache")
          .has_value());
}

}  // namespace
}  // namespace reuse
