// The equivalence lattice. Every reproduced number comes from one simulated
// study that the figure binaries share through the scenario cache and that
// `reuse_study --resume-days`, the sweep and the tick extend day by day. So
// each number rests on one claim: a cache hit, a resume and a chain of
// resumes each equal a fresh run, at any --jobs, with or without a fault
// plan. This file checks that claim in one place.
//
// A row is one path x jobs x fault plan. It runs its path and compares the
// result against the reference, a jobs-1 cache miss of the same final config:
//   1. the cache file the row wrote is byte-identical to the reference's;
//   2. products_fingerprint and the degradation report are equal, the report
//      reconciles, and the run is degraded exactly when it has a plan;
//   3. every list's recorded + missed + quarantined + salvaged days equal
//      snapshots_taken;
//   4. the path ran as named: a hit, a resume, a crawl re-run exactly when
//      the crawler is restricted, a fleet re-run for a foreign fleet section;
//   5. metrics from a reset registry: every deterministic family on fresh
//      rows; the crawler_ and feeds_ families and the cache_ counters on hits;
//   6. crawl.nated comes back in the reference's order (the figure binaries
//      iterate it).
// Rows come in two sizes. `Small/` rows are sized for the sanitizer builds,
// and both sanitizer CI steps select them. `Full/` rows run the paper's two
// collection periods in the plain build jobs. A new stage-runner path is one
// more entry in rows().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/cache.h"
#include "analysis/manifest.h"
#include "analysis/presets.h"
#include "analysis/scenario.h"
#include "netbase/metrics.h"

namespace reuse::analysis {
namespace {

using MetricValues = std::vector<std::pair<std::string, std::int64_t>>;
using net::metrics::Registry;

constexpr std::int64_t kDay = 86400;

/// One world and collection shape. Periods are [0, first_end] and
/// [second_begin, second_end] in days. A resume starts `resume_days` before
/// second_end, and a chain gets there in two steps of half that.
struct Shape {
  std::size_t as_count;
  double bt_adoption_max;  ///< 0 keeps test_world_config's value
  std::size_t probe_count;
  int census_days;
  int first_end;
  int second_begin;
  int second_end;
  int resume_days;
};

// Small: a row finishes well inside the per-test timeout under a Debug TSan
// build. Full: the paper's 39 + 44-day periods.
constexpr Shape kSmall{5, 0.05, 40, 1, 3, 4, 8, 2};
constexpr Shape kFull{30, 0.0, 100, 2, 39, 60, 104, 6};

enum class Path {
  kFresh,             ///< a cache miss at the row's jobs
  kHit,               ///< the reference's file, loaded and run around
  kHitForeignFleet,   ///< as kHit, under 40 more probes: the fleet re-runs
  kResumeRecrawl,     ///< one resume, crawler restricted: the crawl re-runs
  kResumeReuseCrawl,  ///< one resume, crawler unrestricted: the crawl is reused
  kChained,           ///< two resumes of half the days each
};
constexpr const char* kPathNames[] = {"fresh", "hit", "hit_foreign_fleet",
                                      "resume_recrawl", "resume_reuse_crawl",
                                      "chained"};

struct Row {
  const Shape* shape;
  Path path;
  int jobs;
  bool plan;
  const char* preset = "baseline";
  std::uint64_t seed = 7;
  std::uint64_t chaos_seed = 1;

  [[nodiscard]] std::string name() const {
    std::string out = std::string(kPathNames[static_cast<int>(path)]) +
                      "_j" + std::to_string(jobs);
    if (plan) out += "_plan";
    if (std::string_view(preset) != "baseline") {
      out += std::string("_") + preset;
    }
    return out;
  }
  [[nodiscard]] bool hits() const {
    return path == Path::kHit || path == Path::kHitForeignFleet;
  }
};

// A readable ctest name instead of the row's raw bytes.
void PrintTo(const Row& row, std::ostream* os) { *os << row.name(); }

std::vector<Row> rows(const Shape& shape) {
  std::vector<Row> out;
  const auto add = [&](Path path, std::initializer_list<int> jobs) {
    for (const bool plan : {false, true}) {
      for (const int j : jobs) out.push_back(Row{&shape, path, j, plan});
    }
  };
  add(Path::kFresh, {2, 8, 0});
  add(Path::kHit, {1, 8});
  add(Path::kHitForeignFleet, {1, 8});
  add(Path::kResumeRecrawl, {1, 8});
  add(Path::kResumeReuseCrawl, {1, 8});
  add(Path::kChained, {1, 8});
  if (&shape == &kFull) {
    // Every other preset once, under a plan at 8 jobs, on the seed and
    // chaos-seed pairs of a seeds x plans sweep.
    for (const auto& [preset, seed, chaos_seed] :
         {std::tuple{"cgn_dominant", 7, 1}, std::tuple{"dhcp_churn", 19, 2},
          std::tuple{"static_enterprise", 7, 5},
          std::tuple{"adversarial_evasion", 19, 3}}) {
      out.push_back(Row{&shape, Path::kFresh, 8, true, preset,
                        static_cast<std::uint64_t>(seed),
                        static_cast<std::uint64_t>(chaos_seed)});
    }
  }
  return out;
}

/// The config a row's resume starts from: the shape's periods with the
/// second one `resume_days` short and the abuse horizon at its final end.
/// The plan is drawn from this config; extend_scenario_days carries it over.
ScenarioConfig base_config(const Row& row) {
  const Shape& shape = *row.shape;
  ScenarioConfig config;
  config.seed = row.seed;
  config.world = inet::test_world_config(row.seed);
  config.world.as_count = shape.as_count;
  if (shape.bt_adoption_max > 0) {
    config.world.bt_adoption_max = shape.bt_adoption_max;
  }
  config.crawl_days = 1;
  config.fleet.probe_count = shape.probe_count;
  config.run_census = true;
  config.census.window = {net::SimTime(0),
                          net::SimTime(shape.census_days * kDay)};
  config.ecosystem.periods = {
      {net::SimTime(0), net::SimTime(shape.first_end * kDay)},
      {net::SimTime(shape.second_begin * kDay),
       net::SimTime((shape.second_end - shape.resume_days) * kDay)}};
  config.horizon_days = shape.second_end;
  config.restrict_crawler_to_blocklisted =
      row.path != Path::kResumeReuseCrawl;
  parse_preset(row.preset)->apply(config);
  if (row.plan) {
    config.faults = default_chaos_plan(config, row.chaos_seed);
    // Cap inter-change inference across injected Atlas gaps, as the CLI does.
    config.pipeline.max_change_gap = net::Duration::days(7);
  }
  config.finalize();
  return config;
}

/// The config every path of `row` ends at.
ScenarioConfig final_config(const Row& row) {
  return extend_scenario_days(base_config(row), row.shape->resume_days);
}

std::uint64_t fingerprint_of(const Scenario& s) {
  return products_fingerprint(s.crawl, s.ecosystem, s.fleet, s.pipeline,
                              s.census);
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

MetricValues family(const MetricValues& values, std::string_view prefix) {
  MetricValues out;
  for (const auto& pair : values) {
    if (pair.first.rfind(prefix, 0) == 0) out.push_back(pair);
  }
  return out;
}

/// The six cache_ counters of one miss (hit = false) or one hit, in
/// flat_values' name order.
void expect_cache_counters(const MetricValues& values, bool hit) {
  const MetricValues cache = family(values, "cache_");
  ASSERT_EQ(cache.size(), 6u);
  EXPECT_EQ(cache[0].second > 0, hit);       // bytes_read
  EXPECT_EQ(cache[1].second > 0, !hit);      // bytes_written
  EXPECT_EQ(cache[2].second, hit ? 1 : 0);   // hits
  EXPECT_EQ(cache[3].second, hit ? 0 : 1);   // misses
  EXPECT_EQ(cache[4].second, 0);             // rejects
  EXPECT_EQ(cache[5].second, hit ? 0 : 1);   // saves
}

bool ran_stage(const StageTimer& timer, std::string_view stage) {
  const std::vector<StageTiming> timings = timer.timings();
  return std::any_of(timings.begin(), timings.end(),
                     [&](const StageTiming& t) { return t.stage == stage; });
}

/// Cache files named after the running case, removed before use and after
/// it: ctest runs every case in its own process, in parallel.
class ScratchFiles : public ::testing::Test {
 protected:
  std::string scratch(std::string_view tag) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string path = std::string("test_equivalence_") +
                       info->test_suite_name() + "_" + info->name() + "_" +
                       std::string(tag) + ".cache";
    std::replace(path.begin(), path.end(), '/', '_');
    std::remove(path.c_str());
    paths_.push_back(path);
    return path;
  }
  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

 private:
  std::vector<std::string> paths_;
};

class EquivalenceRow : public ScratchFiles,
                       public ::testing::WithParamInterface<Row> {
 protected:
  /// Runs the row's path at its jobs and returns where it ends, a scenario
  /// of `config`. Leaves the cache file the path wrote, if it wrote one, in
  /// `written_` and a fresh or hit path's metrics in `metrics_`.
  Scenario run_path(const Row& row, ScenarioConfig config,
                    const std::string& reference_path) {
    config.jobs = row.jobs;
    if (row.path == Path::kFresh) {
      written_ = scratch("fresh");
      Registry::global().reset();
      Scenario fresh = run_scenario_cached(config, written_);
      metrics_ = Registry::global().flat_values("pool_");
      return fresh;
    }
    if (row.hits()) {
      std::string source = reference_path;
      if (row.path == Path::kHitForeignFleet) {
        // Written under the row's own fleet, loaded under `config`'s.
        source = scratch("source");
        EXPECT_FALSE(run_scenario_cached(final_config(row), source).cache_hit);
      }
      // The call a warm sweep cell and `--resume-days` make.
      Registry::global().reset();
      StageTimer timer;
      std::optional<CachedCore> core = timer.time(
          "cache-load", [&] { return load_scenario_cache(source, config); });
      EXPECT_TRUE(core.has_value());
      Scenario hit = run_scenario_cached(config, source, std::move(core),
                                         std::move(timer));
      metrics_ = Registry::global().flat_values("pool_");
      EXPECT_EQ(hit.fleet.truths().size(), config.fleet.probe_count);
      return hit;
    }
    ScenarioConfig from = base_config(row);
    std::string from_path = scratch("base");
    EXPECT_FALSE(run_scenario_cached(from, from_path).cache_hit);
    const int days = row.shape->resume_days;
    const std::vector<int> steps = row.path == Path::kChained
                                       ? std::vector<int>{days / 2, days / 2}
                                       : std::vector<int>{days};
    from.jobs = row.jobs;
    std::optional<Scenario> last;
    for (const int step : steps) {
      written_ = scratch(
          "day" + std::to_string(scenario_span(from).collection.end.day() +
                                 step));
      EvolvedScenario evolved =
          evolve_scenario_cached(from, step, from_path, written_);
      EXPECT_EQ(evolved.path, EvolvePath::kResumed);
      EXPECT_EQ(ran_stage(evolved.scenario.stage_times, "crawl"),
                from.restrict_crawler_to_blocklisted);
      from = extend_scenario_days(from, step);
      from_path = written_;
      // A resumed file then loads as a plain hit.
      EXPECT_TRUE(load_scenario_cache(from_path, from).has_value());
      last = std::move(evolved.scenario);
    }
    return std::move(*last);
  }

  std::string written_;
  MetricValues metrics_;
};

TEST_P(EquivalenceRow, MatchesAFreshSerialRun) {
  const Row& row = GetParam();
  ScenarioConfig config = final_config(row);
  if (row.path == Path::kHitForeignFleet) config.fleet.probe_count += 40;

  const std::string reference_path = scratch("reference");
  Registry::global().reset();
  const Scenario reference = run_scenario_cached(config, reference_path);
  const MetricValues reference_metrics =
      Registry::global().flat_values("pool_");
  ASSERT_FALSE(reference.cache_hit);
  // Degraded, not dead: every product the comparisons below cover exists.
  ASSERT_GT(reference.crawl.evidence.size(), 0u);
  ASSERT_GT(reference.ecosystem.store.listing_count(), 0u);
  ASSERT_GT(reference.pipeline.probes_total, 0u);

  const Scenario result = run_path(row, config, reference_path);

  // 1. Cache bytes.
  if (!written_.empty()) {
    const std::string bytes = file_bytes(reference_path);
    EXPECT_FALSE(bytes.empty());
    EXPECT_TRUE(file_bytes(written_) == bytes)
        << written_ << " differs from " << reference_path;
  }

  // 2. Products and degradation.
  EXPECT_EQ(fingerprint_of(result), fingerprint_of(reference));
  EXPECT_EQ(result.degradation, reference.degradation);
  EXPECT_TRUE(result.degradation.reconciles());
  EXPECT_EQ(result.degradation.degraded(), row.plan);
  EXPECT_EQ(result.degradation.injected.total() > 0, row.plan);

  // 3. Day accounting.
  for (const blocklist::FeedHealth& health :
       result.ecosystem.stats.per_list) {
    EXPECT_EQ(health.days_recorded + health.days_missed +
                  health.days_quarantined + health.days_salvaged,
              static_cast<std::int64_t>(result.ecosystem.stats.snapshots_taken))
        << "list " << health.list;
  }

  // 4. The path ran as named (the rest is checked along the path).
  EXPECT_EQ(result.cache_hit, row.path != Path::kFresh);

  // 5. Metrics.
  if (row.path == Path::kFresh) {
    ASSERT_FALSE(reference_metrics.empty());
    EXPECT_EQ(metrics_, reference_metrics);
    std::int64_t injected = 0;
    for (const auto& [name, value] : family(metrics_, "faults_")) {
      injected += value;
    }
    EXPECT_EQ(injected > 0, row.plan);
  }
  if (row.hits()) {
    // A hit restores the crawl and the ecosystem instead of running them;
    // the loader still publishes their families from the cached products.
    for (const std::string_view prefix : {"crawler_", "feeds_"}) {
      ASSERT_FALSE(family(reference_metrics, prefix).empty()) << prefix;
      EXPECT_EQ(family(metrics_, prefix), family(reference_metrics, prefix));
    }
    expect_cache_counters(reference_metrics, /*hit=*/false);
    expect_cache_counters(metrics_, /*hit=*/true);
  }

  // 6. nated order.
  EXPECT_EQ(result.crawl.nated, reference.crawl.nated);
}

const auto kRowName = [](const ::testing::TestParamInfo<Row>& info) {
  return info.param.name();
};
INSTANTIATE_TEST_SUITE_P(Small, EquivalenceRow,
                         ::testing::ValuesIn(rows(kSmall)), kRowName);
INSTANTIATE_TEST_SUITE_P(Full, EquivalenceRow,
                         ::testing::ValuesIn(rows(kFull)), kRowName);

// ---------------------------------------------------------------------------
// Cases that run once, on the Small world.

ScenarioConfig small_config(std::uint64_t seed = 7, bool plan = false) {
  return final_config(Row{&kSmall, Path::kFresh, 1, plan, "baseline", seed});
}

class Equivalence : public ScratchFiles {};

TEST_F(Equivalence, FingerprintMovesWithTheSeed) {
  // A fingerprint that hashed nothing would pass every row vacuously.
  EXPECT_NE(fingerprint_of(run_scenario(small_config(5))),
            fingerprint_of(run_scenario(small_config(6))));
}

TEST_F(Equivalence, JobsStayOutsideTheConfigFingerprint) {
  ScenarioConfig wide = small_config();
  wide.jobs = 8;
  // One fingerprint: every jobs value shares one cache file.
  EXPECT_EQ(config_fingerprint(wide), config_fingerprint(small_config()));
}

TEST_F(Equivalence, EmptyPlanWithASeedIsInvisible) {
  const ScenarioConfig fault_free = small_config();
  ScenarioConfig empty_plan = fault_free;
  empty_plan.faults.seed = 123;  // a seed alone must change nothing
  EXPECT_EQ(config_fingerprint(empty_plan), config_fingerprint(fault_free));

  const std::string empty_path = scratch("empty_plan");
  const std::string free_path = scratch("fault_free");
  const Scenario a = run_scenario_cached(empty_plan, empty_path);
  const Scenario b = run_scenario_cached(fault_free, free_path);
  EXPECT_FALSE(a.degradation.degraded());
  EXPECT_EQ(a.degradation.injected.total(), 0u);
  EXPECT_EQ(fingerprint_of(a), fingerprint_of(b));
  // The cache writer is canonical: same products, same file.
  const std::string bytes = file_bytes(free_path);
  EXPECT_FALSE(bytes.empty());
  EXPECT_TRUE(file_bytes(empty_path) == bytes);
}

TEST_F(Equivalence, PlanCacheNeverServesTheFaultFreeConfig) {
  // The plan feeds the config fingerprint, so a cache written under one
  // plan never serves a different plan or a fault-free run.
  const ScenarioConfig chaotic = small_config(7, /*plan=*/true);
  const ScenarioConfig clean = small_config();
  EXPECT_NE(config_fingerprint(chaotic), config_fingerprint(clean));
  const std::string path = scratch("chaotic");
  ASSERT_FALSE(run_scenario_cached(chaotic, path).cache_hit);
  const Scenario clean_run = run_scenario_cached(clean, path);
  EXPECT_FALSE(clean_run.cache_hit);
  EXPECT_FALSE(clean_run.degradation.degraded());
}

TEST_F(Equivalence, ManifestAtTwoJobsNamesAllSevenFamilies) {
  Registry::global().reset();
  ScenarioConfig config = small_config();
  config.jobs = 2;
  const Scenario s = run_scenario(config);
  RunManifestInfo info;
  info.tool = "test_equivalence";
  info.config = &config;
  info.stage_times = &s.stage_times;
  const std::string json = run_manifest_json(info);
  for (const char* prefix : {"crawler_", "feeds_", "atlas_", "pipeline_",
                             "cache_", "faults_", "pool_"}) {
    EXPECT_NE(json.find(prefix), std::string::npos)
        << "manifest missing subsystem family " << prefix;
  }
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"test_equivalence\""), std::string::npos);
  EXPECT_NE(json.find("\"config_fingerprint\": \""), std::string::npos);
}

}  // namespace
}  // namespace reuse::analysis
