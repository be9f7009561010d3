#include "sweep/cache_budget.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>

namespace reuse::sweep {
namespace {

namespace fs = std::filesystem;

class CacheBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per case: ctest runs the cases as parallel processes.
    dir_ = fs::path(::testing::TempDir()) /
           ("cache_budget_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  /// Writes `bytes` of payload and pins the mtime `age_rank` "days" in the
  /// past — larger rank = older file = earlier eviction candidate.
  std::string write_cache(const std::string& name, std::size_t bytes,
                          int age_rank) {
    const fs::path path = dir_ / name;
    std::ofstream(path) << std::string(bytes, 'x');
    fs::last_write_time(path, fs::file_time_type::clock::now() -
                                  std::chrono::hours(24 * age_rank));
    return path.string();
  }

  fs::path dir_;
};

TEST_F(CacheBudgetTest, AccountsWithoutEvictingWhenNoBudget) {
  write_cache("a.cache", 100, 3);
  write_cache("b.cache", 50, 1);
  const CacheBudgetReport report = enforce_cache_budget(dir_.string(), 0, {});
  EXPECT_FALSE(report.enforced);
  EXPECT_EQ(report.files_scanned, 2u);
  EXPECT_EQ(report.dir_bytes_before, 150);
  EXPECT_EQ(report.dir_bytes_after, 150);
  EXPECT_EQ(report.files_evicted, 0u);
  EXPECT_TRUE(fs::exists(dir_ / "a.cache"));
  EXPECT_TRUE(fs::exists(dir_ / "b.cache"));
}

TEST_F(CacheBudgetTest, EvictsOldestFirstUntilWithinBudget) {
  write_cache("old.cache", 100, 5);
  write_cache("mid.cache", 100, 3);
  write_cache("new.cache", 100, 1);
  const CacheBudgetReport report =
      enforce_cache_budget(dir_.string(), 150, {});
  EXPECT_TRUE(report.enforced);
  EXPECT_EQ(report.files_evicted, 2u);
  EXPECT_EQ(report.bytes_evicted, 200);
  EXPECT_EQ(report.dir_bytes_after, 100);
  EXPECT_FALSE(fs::exists(dir_ / "old.cache"));
  EXPECT_FALSE(fs::exists(dir_ / "mid.cache"));
  EXPECT_TRUE(fs::exists(dir_ / "new.cache")) << "newest survives";
}

TEST_F(CacheBudgetTest, UnderBudgetIsANoOp) {
  write_cache("a.cache", 100, 2);
  const CacheBudgetReport report =
      enforce_cache_budget(dir_.string(), 1000, {});
  EXPECT_TRUE(report.enforced);
  EXPECT_EQ(report.files_evicted, 0u);
  EXPECT_TRUE(fs::exists(dir_ / "a.cache"));
}

TEST_F(CacheBudgetTest, NeverEvictsTheActiveSet) {
  const std::string active_old = write_cache("active_old.cache", 100, 9);
  write_cache("idle.cache", 100, 2);
  // Budget below even the active file's size: the idle file goes, the
  // active one stays — a sweep must never evict its own cells, even when
  // the active set alone busts the budget.
  const CacheBudgetReport report =
      enforce_cache_budget(dir_.string(), 50, {active_old});
  EXPECT_EQ(report.files_protected, 1u);
  EXPECT_EQ(report.files_evicted, 1u);
  EXPECT_TRUE(fs::exists(dir_ / "active_old.cache"));
  EXPECT_FALSE(fs::exists(dir_ / "idle.cache"));
  EXPECT_EQ(report.dir_bytes_after, 100);
}

TEST_F(CacheBudgetTest, IgnoresNonCacheFilesAndMissingDir) {
  write_cache("a.cache", 100, 1);
  std::ofstream(dir_ / "notes.txt") << std::string(500, 'y');
  const CacheBudgetReport report = enforce_cache_budget(dir_.string(), 50, {});
  EXPECT_EQ(report.files_scanned, 1u);
  EXPECT_EQ(report.dir_bytes_before, 100);
  EXPECT_TRUE(fs::exists(dir_ / "notes.txt"))
      << "only *.cache files are eviction candidates";

  const CacheBudgetReport missing =
      enforce_cache_budget((dir_ / "nope").string(), 50, {});
  EXPECT_EQ(missing.files_scanned, 0u);
  EXPECT_EQ(missing.dir_bytes_before, 0);
}

TEST_F(CacheBudgetTest, EqualMtimesBreakTiesByPath) {
  const fs::path a = dir_ / "aa.cache";
  const fs::path b = dir_ / "bb.cache";
  std::ofstream(a) << std::string(100, 'x');
  std::ofstream(b) << std::string(100, 'x');
  const auto when =
      fs::file_time_type::clock::now() - std::chrono::hours(24);
  fs::last_write_time(a, when);
  fs::last_write_time(b, when);
  const CacheBudgetReport report =
      enforce_cache_budget(dir_.string(), 150, {});
  EXPECT_EQ(report.files_evicted, 1u);
  EXPECT_FALSE(fs::exists(a)) << "lexicographically-first path evicts first";
  EXPECT_TRUE(fs::exists(b));
}

}  // namespace
}  // namespace reuse::sweep
