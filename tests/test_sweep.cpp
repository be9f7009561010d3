#include "sweep/sweep.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "analysis/cache.h"
#include "analysis/presets.h"
#include "analysis/scenario.h"

namespace reuse::sweep {
namespace {

namespace fs = std::filesystem;

// ctest runs each case in its own process, several at once, and most cases
// build the cold sweep: a per-process root keeps one process's sweep from
// reading another's cache files. It is removed when the process exits.
const fs::path& scratch_root() {
  static const struct Root {
    fs::path path = fs::path(::testing::TempDir()) /
                    ("reuse_sweep_test_" + std::to_string(::getpid()));
    ~Root() {
      std::error_code ignored;
      fs::remove_all(path, ignored);
    }
  } kRoot;
  return kRoot.path;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = scratch_root() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

SweepAxis must_parse(const std::string& text) {
  std::string error;
  const auto axis = parse_axis(text, &error);
  EXPECT_TRUE(axis.has_value()) << error;
  return *axis;
}

TEST(ParseAxis, AcceptsTheTableAndSpellsValuesBack) {
  const SweepAxis days = must_parse("days=4,6");
  EXPECT_EQ(days.name, "days");
  EXPECT_EQ(days.raw_values, (std::vector<std::string>{"4", "6"}));
  EXPECT_EQ(days.numbers, (std::vector<double>{4.0, 6.0}));
  const SweepAxis share = must_parse("cgn_share=0.2,0.5,0.8");
  EXPECT_EQ(share.numbers.size(), 3u);
}

TEST(ParseAxis, RejectsUnknownNamesValuesAndDomains) {
  std::string error;
  EXPECT_FALSE(parse_axis("nosuch=1", &error).has_value());
  EXPECT_NE(error.find("unknown axis"), std::string::npos);
  EXPECT_NE(error.find(axis_names()), std::string::npos)
      << "the error must list the valid axes";
  EXPECT_FALSE(parse_axis("days", &error).has_value());
  EXPECT_FALSE(parse_axis("=4", &error).has_value());
  EXPECT_FALSE(parse_axis("days=", &error).has_value());
  EXPECT_FALSE(parse_axis("days=x", &error).has_value());
  EXPECT_FALSE(parse_axis("days=4.5", &error).has_value())
      << "days is integral";
  EXPECT_FALSE(parse_axis("days=0", &error).has_value());
  EXPECT_FALSE(parse_axis("days=4,4", &error).has_value())
      << "duplicate values would make ambiguous cells";
  EXPECT_FALSE(parse_axis("cgn_share=1.5", &error).has_value());
  EXPECT_FALSE(parse_axis("evasion=0.5", &error).has_value());
}

SweepConfig tiny_sweep(const std::string& cache_dir) {
  SweepConfig config;
  config.base.seed = 7;
  config.base.world = inet::test_world_config(7);
  config.base.world.as_count = 40;
  config.base.crawl_days = 1;
  config.base.fleet.probe_count = 300;
  config.base.run_census = false;
  config.presets = {analysis::parse_preset("baseline"),
                    analysis::parse_preset("adversarial_evasion")};
  config.axes = {must_parse("days=4,6")};
  config.cache_dir = cache_dir;
  return config;
}

TEST(ExpandCells, DeterministicOrderChainsAndHorizon) {
  SweepConfig config = tiny_sweep("unused");
  config.axes.push_back(must_parse("cgn_share=0.2,0.5"));
  const std::vector<SweepCell> cells = expand_cells(config);
  ASSERT_EQ(cells.size(), 8u);  // 2 presets x 2 days x 2 shares
  // Preset-major, axes row-major with the last axis fastest.
  EXPECT_EQ(cells[0].id, "baseline/days=4,cgn_share=0.2");
  EXPECT_EQ(cells[1].id, "baseline/days=4,cgn_share=0.5");
  EXPECT_EQ(cells[2].id, "baseline/days=6,cgn_share=0.2");
  EXPECT_EQ(cells[3].id, "baseline/days=6,cgn_share=0.5");
  EXPECT_EQ(cells[4].id, "adversarial_evasion/days=4,cgn_share=0.2");
  // Cells differing only in days share a chain; the chain's horizon (its
  // max days) is declared on EVERY member so resumes are byte-identical.
  EXPECT_EQ(cells[0].chain_key, cells[2].chain_key);
  EXPECT_NE(cells[0].chain_key, cells[1].chain_key);
  EXPECT_NE(cells[0].chain_key, cells[4].chain_key);
  for (const SweepCell& cell : cells) {
    EXPECT_EQ(cell.config.horizon_days, 6) << cell.id;
    EXPECT_EQ(cell.config.jobs, 1) << cell.id;
  }
  EXPECT_EQ(cells[0].days, 4);
  EXPECT_EQ(cells[2].days, 6);
  EXPECT_EQ(cells[2].config.ecosystem.periods.size(), 1u);
  EXPECT_EQ(cells[2].config.ecosystem.periods[0].end.seconds(), 6 * 86400);
  // The preset and the share axis both land on the config: distinct cells
  // have distinct fingerprints.
  EXPECT_NE(analysis::config_fingerprint(cells[0].config),
            analysis::config_fingerprint(cells[1].config));
  EXPECT_NE(analysis::config_fingerprint(cells[0].config),
            analysis::config_fingerprint(cells[4].config));
}

TEST(ExpandCells, NoAxesYieldsOneCellPerPreset) {
  SweepConfig config = tiny_sweep("unused");
  config.axes.clear();
  const std::vector<SweepCell> cells = expand_cells(config);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].id, "baseline");
  EXPECT_EQ(cells[1].id, "adversarial_evasion");
  EXPECT_EQ(cells[0].days, 0);
  EXPECT_EQ(cells[0].config.horizon_days, 0)
      << "without a days axis the base horizon is untouched";
}

// One integration fixture runs the expensive sweeps once and every
// assertion reads the shared reports.
class SweepIntegration : public ::testing::Test {
 protected:
  static const SweepReport& cold() {
    static const SweepReport kReport = [] {
      return run_sweep(tiny_sweep(fresh_dir("sweep_cold")));
    }();
    return kReport;
  }
};

TEST_F(SweepIntegration, ColdSweepRunsEveryCellAndResumesChains) {
  ASSERT_EQ(cold().cells.size(), 4u);
  EXPECT_EQ(cold().cells_failed, 0u);
  // Per chain (preset): days=4 fresh, days=6 resumed from it.
  EXPECT_EQ(cold().fresh, 2u);
  EXPECT_EQ(cold().resumed, 2u);
  EXPECT_EQ(cold().cache_hits, 0u);
  for (const CellResult& cell : cold().cells) {
    EXPECT_FALSE(cell.failed) << cell.id << ": " << cell.error;
    EXPECT_GT(cell.blocklisted_addresses, 0u) << cell.id;
    EXPECT_NE(cell.config_fingerprint, 0u) << cell.id;
  }
  EXPECT_GT(cold().cache_dir_bytes, 0);
}

TEST_F(SweepIntegration, JobsTwoIsByteIdentical) {
  SweepConfig parallel_config = tiny_sweep(fresh_dir("sweep_jobs2"));
  parallel_config.jobs = 2;
  const SweepReport parallel_report = run_sweep(parallel_config);
  EXPECT_EQ(parallel_report.report_fingerprint, cold().report_fingerprint);
  EXPECT_EQ(render_report_markdown(parallel_report),
            render_report_markdown(cold()));
}

TEST_F(SweepIntegration, WarmRerunHitsEveryCellWithSameReport) {
  const std::string dir = fresh_dir("sweep_warm");
  SweepConfig config = tiny_sweep(dir);
  analysis::CacheMetrics& cache = analysis::cache_metrics();
  net::metrics::Registry::global().reset();
  const SweepReport first = run_sweep(config);
  ASSERT_EQ(first.cells_failed, 0u);
  const std::uint64_t cold_bytes_written = cache.bytes_written.value();
  net::metrics::Registry::global().reset();
  const SweepReport second = run_sweep(config);
  EXPECT_EQ(second.cache_hits, second.cells.size());
  EXPECT_EQ(second.fresh, 0u);
  EXPECT_EQ(second.resumed, 0u);
  EXPECT_EQ(second.report_fingerprint, first.report_fingerprint);
  // A warm cell decodes its own cache file exactly once.
  EXPECT_EQ(cache.hits.value(), second.cells.size());
  EXPECT_EQ(cache.bytes_read.value(), cold_bytes_written);
}

TEST_F(SweepIntegration, InjectedFailureIsIsolated) {
  SweepConfig config = tiny_sweep(fresh_dir("sweep_fail"));
  config.inject_fail_cell = 0;  // the baseline chain's head
  const SweepReport report = run_sweep(config);
  ASSERT_EQ(report.cells.size(), 4u);
  EXPECT_EQ(report.cells_failed, 1u);
  EXPECT_TRUE(report.cells[0].failed);
  EXPECT_NE(report.cells[0].error.find("injected"), std::string::npos);
  // The rest of the sweep — including the failed chain's LATER cell, which
  // falls back to a fresh run — still completes with real products.
  for (std::size_t i = 1; i < report.cells.size(); ++i) {
    EXPECT_FALSE(report.cells[i].failed)
        << report.cells[i].id << ": " << report.cells[i].error;
    EXPECT_GT(report.cells[i].blocklisted_addresses, 0u);
  }
  // Surviving cells' metrics match the healthy sweep's (same configs).
  for (std::size_t i = 1; i < report.cells.size(); ++i) {
    EXPECT_EQ(report.cells[i].reused_addresses,
              cold().cells[i].reused_addresses)
        << report.cells[i].id;
  }
}

TEST_F(SweepIntegration, MarkdownAndJsonCarryTheCells) {
  const std::string markdown = render_report_markdown(cold());
  EXPECT_NE(markdown.find("baseline/days=4"), std::string::npos);
  EXPECT_NE(markdown.find("adversarial_evasion/days=6"), std::string::npos);
  EXPECT_NE(markdown.find("| cell |"), std::string::npos);
  const std::string json = render_report_json(cold());
  EXPECT_NE(json.find("\"report_fingerprint\""), std::string::npos);
  EXPECT_NE(json.find("\"cells_failed\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"path\": \"resumed\""), std::string::npos);
}

TEST_F(SweepIntegration, AdversarialEvasionChangesTheHeadlines) {
  // The whole point of the preset axis: the adversarial cells must not
  // silently produce the baseline's numbers.
  const CellResult& base_cell = cold().cells[1];     // baseline/days=6
  const CellResult& evading_cell = cold().cells[3];  // adversarial/days=6
  EXPECT_EQ(base_cell.preset, "baseline");
  EXPECT_EQ(evading_cell.preset, "adversarial_evasion");
  EXPECT_NE(base_cell.blocklisted_addresses,
            evading_cell.blocklisted_addresses);
}

}  // namespace
}  // namespace reuse::sweep
