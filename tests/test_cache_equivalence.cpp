// Distinct configs neither share nor evict a cache file, and an unusable
// cache path is diagnosed before any simulation work is spent. That a cache
// hit reproduces a fresh run's products, including its nated order and a
// re-run of a foreign fleet section, is checked by the equivalence lattice
// (test_equivalence.cpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "analysis/cache.h"

namespace reuse {
namespace {

analysis::ScenarioConfig tiny_config() {
  analysis::ScenarioConfig config;
  config.seed = 5;
  config.world = inet::test_world_config(5);
  config.world.as_count = 30;
  config.crawl_days = 1;
  config.fleet.probe_count = 100;
  config.run_census = false;
  config.finalize();
  return config;
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
