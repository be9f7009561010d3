// End-to-end integration: a small scenario run through every subsystem,
// asserting the cross-module invariants the study rests on.
#include "analysis/scenario.h"

#include <gtest/gtest.h>

#include "analysis/impact.h"

namespace reuse::analysis {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  static ScenarioConfig config() {
    // Smaller than test_scenario_config: integration must stay fast.
    ScenarioConfig config;
    config.seed = 7;
    config.world = inet::test_world_config(7);
    config.world.as_count = 60;
    config.crawl_days = 1;
    config.fleet.probe_count = 400;
    config.census.block_sample_fraction = 0.2;
    config.census.window = {net::SimTime(0), net::SimTime(5 * 86400)};
    config.finalize();
    return config;
  }

  static const Scenario& scenario() {
    static const Scenario kScenario = run_scenario(config());
    return kScenario;
  }
};

TEST_F(ScenarioTest, AllSubsystemsProduceOutput) {
  EXPECT_GT(scenario().ecosystem.store.listing_count(), 0u);
  EXPECT_GT(scenario().crawl.evidence.size(), 0u);
  EXPECT_GT(scenario().crawl.nated.size(), 0u);
  EXPECT_GT(scenario().pipeline.probes_total, 0u);
  EXPECT_GT(scenario().census.blocks_surveyed, 0u);
  EXPECT_EQ(scenario().catalogue.size(), 149u);
}

TEST_F(ScenarioTest, NatDetectionHasPerfectPrecisionOnGroundTruth) {
  const DetectorValidation validation =
      validate_nat_detection(scenario().world, scenario().crawl.nated_set);
  // The >= 2 concurrent-responder rule admits no false positives by
  // construction — this is the paper's core accuracy claim.
  EXPECT_EQ(validation.true_positives, validation.detected);
}

TEST_F(ScenarioTest, DynamicDetectionHasPerfectPrecisionOnGroundTruth) {
  const DetectorValidation validation = validate_dynamic_detection(
      scenario().world, scenario().pipeline.dynamic_prefixes);
  EXPECT_EQ(validation.true_positives, validation.detected);
}

TEST_F(ScenarioTest, CrawlerRespectedBlocklistRestriction) {
  const net::PrefixSet blocklisted =
      scenario().ecosystem.store.blocklisted_slash24s();
  for (const auto& [address, evidence] : scenario().crawl.evidence) {
    EXPECT_TRUE(blocklisted.contains_address(address))
        << address.to_string() << " crawled outside blocklisted space";
  }
}

TEST_F(ScenarioTest, NatedUserCountsAreLowerBounds) {
  for (const auto& [address, users] : scenario().crawl.nated) {
    EXPECT_GE(users, 2u);
    EXPECT_LE(users, scenario().world.users_behind(address))
        << address.to_string();
  }
}

TEST_F(ScenarioTest, PipelineFunnelIsMonotone) {
  const auto& pipeline = scenario().pipeline;
  EXPECT_EQ(pipeline.probes_total,
            pipeline.probes_single_as + pipeline.probes_multi_as);
  EXPECT_LE(pipeline.probes_above_knee, pipeline.probes_single_as);
  EXPECT_LE(pipeline.probes_daily, pipeline.probes_above_knee);
  EXPECT_EQ(pipeline.qualifying_probes.size(), pipeline.probes_daily);
  EXPECT_GE(pipeline.knee_allocations, 2);
}

TEST_F(ScenarioTest, ImpactJoinsAreInternallyConsistent) {
  const ReuseImpact impact = compute_reuse_impact(
      scenario().ecosystem.store, scenario().catalogue,
      scenario().crawl.nated_set, scenario().pipeline.dynamic_prefixes);
  EXPECT_LE(impact.nated_listings, impact.total_listings);
  EXPECT_LE(impact.dynamic_listings, impact.total_listings);
  EXPECT_LE(impact.lists_with_nated, impact.lists_total);
  EXPECT_LE(impact.nated_blocklisted_addresses,
            scenario().crawl.nated.size());
  std::size_t per_list_total = 0;
  for (const auto& counts : impact.per_list) {
    per_list_total += counts.total_addresses;
  }
  EXPECT_EQ(per_list_total, impact.total_listings);
}

TEST_F(ScenarioTest, DurationsAreBoundedByPeriodLengths) {
  const ListingDurations durations = compute_listing_durations(
      scenario().ecosystem.store, scenario().crawl.nated_set,
      scenario().pipeline.dynamic_prefixes);
  ASSERT_FALSE(durations.all_days.empty());
  for (const double days : durations.all_days) {
    EXPECT_GE(days, 1.0);
    EXPECT_LE(days, 44.0);  // the longer period
  }
}

TEST_F(ScenarioTest, CoverageCurvesPlateauBelowBlocklistedCurve) {
  const AsCoverage coverage = compute_as_coverage(
      scenario().world, scenario().ecosystem.store, scenario().crawl.evidence,
      scenario().pipeline.all_probe_prefixes);
  EXPECT_GT(coverage.ases_with_blocklisted, 0u);
  EXPECT_LE(coverage.ases_with_bittorrent, coverage.ases_with_blocklisted);
  EXPECT_LE(coverage.ases_with_ripe, coverage.ases_with_blocklisted);
  EXPECT_GT(coverage.ases_with_bittorrent, 0u);
}

}  // namespace
}  // namespace reuse::analysis
