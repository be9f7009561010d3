// Chaos suite: scenario runs under seeded fault plans. Three properties
// anchor the whole fault-injection design:
//   1. an empty plan is invisible — byte-identical artifacts to a fault-free
//      run (the injector draws nothing);
//   2. the same (seed, plan) degrades identically on every run;
//   3. the injector's ledger reconciles exactly against the consumers'
//      degradation counters across a sweep of seeds and plans.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cache.h"
#include "analysis/scenario.h"

namespace reuse::analysis {
namespace {

ScenarioConfig small_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.world = inet::test_world_config(seed);
  config.world.as_count = 60;
  config.crawl_days = 1;
  config.fleet.probe_count = 400;
  config.run_census = false;
  return config;
}

ScenarioConfig chaos_config(std::uint64_t seed, std::uint64_t chaos_seed) {
  ScenarioConfig config = small_config(seed);
  config.finalize();
  config.faults = default_chaos_plan(config, chaos_seed);
  // Cap inter-change inference across injected Atlas gaps, as the CLI does.
  config.pipeline.max_change_gap = net::Duration::days(7);
  config.finalize();
  return config;
}

std::string cache_bytes(const Scenario& s) {
  const std::string path =
      std::string("test_chaos_bytes_") + std::to_string(s.config.seed) + "_" +
      std::to_string(s.degradation.injected.total()) + ".cache";
  EXPECT_TRUE(save_scenario_cache(path, s.config, s.crawl, s.ecosystem,
                                  s.degradation.injected));
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

TEST(ChaosBaseline, EmptyPlanIsByteIdenticalToFaultFreeRun) {
  ScenarioConfig with_empty_plan = small_config(7);
  with_empty_plan.faults.seed = 123;  // a seed alone must change nothing
  with_empty_plan.finalize();
  ScenarioConfig fault_free = small_config(7);
  fault_free.finalize();

  const Scenario a = run_scenario(with_empty_plan);
  const Scenario b = run_scenario(fault_free);

  // No degradation whatsoever...
  EXPECT_FALSE(a.degradation.degraded());
  EXPECT_EQ(a.degradation.injected.total(), 0u);
  // ...and the heavy artifacts serialize to the very same bytes (the cache
  // writer is canonical: same products, same file).
  EXPECT_EQ(cache_bytes(a), cache_bytes(b));
  EXPECT_EQ(a.pipeline.dynamic_prefixes.to_vector(),
            b.pipeline.dynamic_prefixes.to_vector());
  EXPECT_EQ(a.crawl.nated, b.crawl.nated);
}

TEST(ChaosDeterminism, SameSeedSamePlanSameDegradation) {
  const ScenarioConfig config = chaos_config(7, 1);
  const Scenario first = run_scenario(config);
  const Scenario second = run_scenario(config);
  EXPECT_TRUE(first.degradation.degraded());
  EXPECT_EQ(first.degradation, second.degradation);
  EXPECT_EQ(first.degradation.injected, second.degradation.injected);
  EXPECT_EQ(cache_bytes(first), cache_bytes(second));
}

TEST(ChaosSweep, LedgerReconcilesAcrossSeedsAndPlans) {
  const std::pair<std::uint64_t, std::uint64_t> sweep[] = {
      {7, 1}, {19, 2}, {7, 5}};
  for (const auto& [seed, chaos_seed] : sweep) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " chaos " +
                 std::to_string(chaos_seed));
    const Scenario s = run_scenario(chaos_config(seed, chaos_seed));
    EXPECT_TRUE(s.degradation.degraded());
    const auto failures = s.degradation.reconciliation_failures();
    EXPECT_TRUE(failures.empty())
        << "unreconciled: " << (failures.empty() ? "" : failures.front());
    EXPECT_GT(s.degradation.injected.total(), 0u);

    // Per-feed day accounting stays exact under faults.
    for (const blocklist::FeedHealth& health : s.ecosystem.stats.per_list) {
      EXPECT_EQ(health.days_recorded + health.days_missed +
                    health.days_quarantined + health.days_salvaged,
                static_cast<std::int64_t>(s.ecosystem.stats.snapshots_taken));
    }
    // The run still produces the study's artifacts — degraded, not dead.
    EXPECT_GT(s.crawl.evidence.size(), 0u);
    EXPECT_GT(s.ecosystem.store.listing_count(), 0u);
    EXPECT_GT(s.pipeline.probes_total, 0u);
  }
}

class ChaosCache : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string("test_chaos_cache_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".cache";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(ChaosCache, HitAndMissAgreeOnDegradation) {
  const ScenarioConfig config = chaos_config(7, 1);
  const CachedScenario miss = run_scenario_cached(config, path_);
  ASSERT_FALSE(miss.cache_hit);
  const CachedScenario hit = run_scenario_cached(config, path_);
  ASSERT_TRUE(hit.cache_hit);
  EXPECT_TRUE(miss.degradation.degraded());
  EXPECT_EQ(miss.degradation, hit.degradation);
  EXPECT_TRUE(hit.degradation.reconciles());
}

TEST_F(ChaosCache, FaultPlanIsPartOfTheFingerprint) {
  // A cache produced under one plan must never serve a different plan (or a
  // fault-free run): the plan feeds the config fingerprint.
  const ScenarioConfig chaotic = chaos_config(7, 1);
  const CachedScenario miss = run_scenario_cached(chaotic, path_);
  ASSERT_FALSE(miss.cache_hit);

  ScenarioConfig clean = small_config(7);
  clean.finalize();
  EXPECT_NE(config_fingerprint(chaotic), config_fingerprint(clean));
  const CachedScenario clean_run = run_scenario_cached(clean, path_);
  EXPECT_FALSE(clean_run.cache_hit);
  EXPECT_FALSE(clean_run.degradation.degraded());
}

}  // namespace
}  // namespace reuse::analysis
