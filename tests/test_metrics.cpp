// Unit tests for the metrics registry (netbase/metrics), the JSON writer
// and its escape and fingerprint helpers, the stage timer
// (netbase/stage_timer) and the crawl's use of it, the run header and the
// run manifest.
//
// The registry under test here is mostly a process-local instance so the
// cases stay independent of what other code registered in the global
// registry; the manifest tests use the global one (that is what the
// manifest snapshots) and only assert properties that are stable however
// many metrics exist.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/manifest.h"
#include "analysis/scenario.h"
#include "blocklist/store.h"
#include "internet/world.h"
#include "netbase/json.h"
#include "netbase/metrics.h"
#include "netbase/stage_timer.h"
#include "netbase/thread_pool.h"

namespace reuse {
namespace {

using net::metrics::Registry;

TEST(JsonEscape, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(net::json_escape("plain"), "plain");
  EXPECT_EQ(net::json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(net::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(net::json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(net::json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(net::json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(net::json_escape("\x01"), "\\u0001");
  // Bytes >= 0x20 pass through untouched, so UTF-8 survives.
  EXPECT_EQ(net::json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonHex16, ZeroPadsToSixteenLowerCaseDigits) {
  EXPECT_EQ(net::hex16(0), "0000000000000000");
  EXPECT_EQ(net::hex16(0xabcULL), "0000000000000abc");
  EXPECT_EQ(net::hex16(0x2e94cdb49f4b7137ULL), "2e94cdb49f4b7137");
  EXPECT_EQ(net::hex16(~0ULL), "ffffffffffffffff");
}

TEST(JsonWriter, ScalarOnlyContainerPrintsOnOneLine) {
  net::JsonWriter out;
  out.begin_object()
      .key("cache").begin_object()
      .field("consulted", true)
      .field("hit", false)
      .end()
      .field("by_kind", std::map<std::string, int>{{"b", 2}, {"a", 1}})
      .end();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"cache\": {\"consulted\": true, \"hit\": false},\n"
            "  \"by_kind\": {\"a\": 1, \"b\": 2}\n"
            "}\n");
}

TEST(JsonWriter, ContainerHoldingAContainerBreaksWithTwoSpaceIndent) {
  net::JsonWriter out;
  out.begin_object()
      .key("outer").begin_object()
      .field("n", 1)
      .key("inner").begin_object()
      .field("x", 2)
      .end()
      .end()
      .end();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"outer\": {\n"
            "    \"n\": 1,\n"
            "    \"inner\": {\"x\": 2}\n"
            "  }\n"
            "}\n");
}

TEST(JsonWriter, ArrayOfObjectsPutsOneObjectPerLine) {
  net::JsonWriter out;
  out.begin_object().key("rows").begin_array();
  for (int i = 0; i < 2; ++i) out.begin_object().field("i", i).end();
  out.end().key("flat").begin_array().value(1).value("two").end().end();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"rows\": [\n"
            "    {\"i\": 0},\n"
            "    {\"i\": 1}\n"
            "  ],\n"
            "  \"flat\": [1, \"two\"]\n"
            "}\n");
}

TEST(JsonWriter, EmptyContainersPrintBare) {
  net::JsonWriter out;
  out.begin_object().key("none").begin_object().end();
  out.key("nothing").begin_array().end();
  EXPECT_EQ(out.end().str(), "{\n  \"none\": {},\n  \"nothing\": []\n}\n");
  net::JsonWriter empty_root;
  EXPECT_EQ(empty_root.begin_object().end().str(), "{}\n");
}

TEST(JsonWriter, ScalarOnlyRootStillBreaks) {
  net::JsonWriter object;
  object.begin_object().field("a", 1).field("b", "x").end();
  EXPECT_EQ(object.str(), "{\n  \"a\": 1,\n  \"b\": \"x\"\n}\n");
  net::JsonWriter array;
  array.begin_array().value(1).value(2).end();
  EXPECT_EQ(array.str(), "[\n  1,\n  2\n]\n");
}

TEST(JsonWriter, EscapesKeysAndValues) {
  net::JsonWriter out;
  out.begin_object().field("say \"hi\"\n", "tab\there \\ \x01").end();
  EXPECT_EQ(out.str(),
            "{\n  \"say \\\"hi\\\"\\n\": \"tab\\there \\\\ \\u0001\"\n}\n");
}

TEST(JsonWriter, DoublesPrintWithThreeDecimals) {
  net::JsonWriter out;
  out.begin_array().value(1.5).value(2.0 / 3.0).value(1e6).value(-0.25);
  EXPECT_EQ(out.end().str(),
            "[\n  1.500,\n  0.667,\n  1000000.000,\n  -0.250\n]\n");
}

TEST(JsonWriter, IntegersPrintExactly) {
  net::JsonWriter out;
  out.begin_array()
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::numeric_limits<std::int64_t>::min())
      .end();
  EXPECT_EQ(out.str(),
            "[\n  18446744073709551615,\n  -9223372036854775808\n]\n");
}

TEST(JsonWriter, NullptrAndEmptyOptionalPrintNull) {
  net::JsonWriter out;
  out.begin_object()
      .field("a", nullptr)
      .field("b", std::optional<std::string>{})
      .field("c", std::optional<int>{3})
      .end();
  EXPECT_EQ(out.str(),
            "{\n  \"a\": null,\n  \"b\": null,\n  \"c\": 3\n}\n");
}

TEST(Metrics, CounterAccumulates) {
  Registry registry;
  auto& hits = registry.counter("hits_total", "test counter");
  EXPECT_EQ(hits.value(), 0u);
  hits.increment();
  hits.add(41);
  EXPECT_EQ(hits.value(), 42u);
  // Same name resolves to the same handle.
  EXPECT_EQ(&registry.counter("hits_total", "test counter"), &hits);
}

TEST(Metrics, GaugeSetAddAndRecordMax) {
  Registry registry;
  auto& depth = registry.gauge("depth", "test gauge");
  depth.set(7);
  EXPECT_EQ(depth.value(), 7);
  depth.add(-3);
  EXPECT_EQ(depth.value(), 4);
  depth.record_max(10);
  EXPECT_EQ(depth.value(), 10);
  depth.record_max(2);  // never lowers
  EXPECT_EQ(depth.value(), 10);
}

TEST(Metrics, HistogramBucketsAreInclusiveUpperBounds) {
  Registry registry;
  auto& h = registry.histogram("latency", "test histogram", {1, 4, 16});
  h.observe(0);
  h.observe(1);   // boundary: lands in the le=1 bucket
  h.observe(2);
  h.observe(16);  // boundary: lands in the le=16 bucket
  h.observe(99);  // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 0 + 1 + 2 + 16 + 99);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  Registry registry;
  EXPECT_THROW(registry.histogram("empty", "h", {}), std::logic_error);
  EXPECT_THROW(registry.histogram("nonmono", "h", {1, 1}), std::logic_error);
  EXPECT_THROW(registry.histogram("decreasing", "h", {4, 2}),
               std::logic_error);
}

TEST(Metrics, KindClashAndBadNamesThrow) {
  Registry registry;
  registry.counter("taken", "a counter");
  EXPECT_THROW(registry.gauge("taken", "now a gauge?"), std::logic_error);
  EXPECT_THROW(registry.histogram("taken", "now a histogram?", {1}),
               std::logic_error);
  EXPECT_THROW(registry.counter("", "empty name"), std::logic_error);
  EXPECT_THROW(registry.counter("1starts_with_digit", "bad"),
               std::logic_error);
  EXPECT_THROW(registry.counter("has-dash", "bad"), std::logic_error);
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations) {
  Registry registry;
  auto& c = registry.counter("events_total", "c");
  auto& g = registry.gauge("level", "g");
  auto& h = registry.histogram("sizes", "h", {10});
  c.add(5);
  g.set(-2);
  h.observe(3);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.bucket_count(0), 0u);
  // Handles stay valid and re-resolvable after reset.
  EXPECT_EQ(&registry.counter("events_total", "c"), &c);
}

TEST(Metrics, JsonSnapshotIsSortedAndComplete) {
  Registry registry;
  registry.counter("zeta_total", "last alphabetically").add(2);
  registry.counter("alpha_total", "first alphabetically").add(1);
  registry.gauge("beta", "a gauge").set(-7);
  registry.histogram("gamma", "a histogram", {1, 2}).observe(3);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha_total\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"zeta_total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"beta\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"overflow\": 1"), std::string::npos);
  EXPECT_NE(json.find("{\"le\": 1, \"count\": 0}"), std::string::npos);
  // Sorted export: alpha before zeta regardless of registration order.
  EXPECT_LT(json.find("alpha_total"), json.find("zeta_total"));
  // Snapshotting is pure: repeated calls are byte-identical.
  EXPECT_EQ(registry.to_json(), json);
}

TEST(Metrics, PrometheusExpositionFormat) {
  Registry registry;
  registry.counter("reqs_total", "requests").add(3);
  registry.gauge("temp", "temperature").set(21);
  auto& h = registry.histogram("lat", "latency", {1, 4});
  h.observe(0);
  h.observe(2);
  h.observe(9);
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# HELP reqs_total requests\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE reqs_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("reqs_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE temp gauge\n"), std::string::npos);
  EXPECT_NE(text.find("temp 21\n"), std::string::npos);
  // Histogram buckets are cumulative and end in +Inf == _count.
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"4\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 11\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 3\n"), std::string::npos);
}

TEST(Metrics, FlatValuesExpandsHistogramsAndFiltersPrefix) {
  Registry registry;
  registry.counter("keep_total", "kept").add(4);
  registry.counter("pool_steals_total", "excluded").add(9);
  registry.histogram("keep_hist", "kept histogram", {2}).observe(5);
  const auto values = registry.flat_values("pool_");
  auto find = [&values](const std::string& name) -> const std::int64_t* {
    for (const auto& [n, v] : values) {
      if (n == name) return &v;
    }
    return nullptr;
  };
  ASSERT_NE(find("keep_total"), nullptr);
  EXPECT_EQ(*find("keep_total"), 4);
  EXPECT_EQ(find("pool_steals_total"), nullptr);
  ASSERT_NE(find("keep_hist_bucket_2"), nullptr);
  EXPECT_EQ(*find("keep_hist_bucket_2"), 0);
  ASSERT_NE(find("keep_hist_bucket_inf"), nullptr);
  EXPECT_EQ(*find("keep_hist_bucket_inf"), 1);
  ASSERT_NE(find("keep_hist_sum"), nullptr);
  EXPECT_EQ(*find("keep_hist_sum"), 5);
  ASSERT_NE(find("keep_hist_count"), nullptr);
  // Sorted by name.
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_LT(values[i - 1].first, values[i].first);
  }
}

TEST(Metrics, ConcurrentIncrementsLoseNothing) {
  Registry registry;
  auto& c = registry.counter("contended_total", "hammered from 8 threads");
  auto& h = registry.histogram("contended_hist", "hammered too", {100});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.increment();
        h.observe(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.bucket_count(0), static_cast<std::uint64_t>(kThreads) *
                                   kPerThread);
}

TEST(StageTimer, JsonEscapesStageNames) {
  net::StageTimer timer;
  timer.record("quoted \"stage\"\n", 1.5);
  const std::string json = timer.to_json(2);
  EXPECT_NE(json.find("\"quoted \\\"stage\\\"\\n\": 1.500"),
            std::string::npos);
  // The raw (unescaped) name must not appear — it would break the JSON.
  EXPECT_EQ(json.find("\"quoted \"stage\""), std::string::npos);
}

TEST(StageTimer, TimeRecordsEvenWhenTheCallableThrows) {
  net::StageTimer timer;
  EXPECT_THROW(timer.time("doomed", [] {
    throw std::runtime_error("stage failed");
    return 1;
  }),
               std::runtime_error);
  ASSERT_EQ(timer.timings().size(), 1u);
  EXPECT_EQ(timer.timings()[0].stage, "doomed");
  EXPECT_GE(timer.timings()[0].millis, 0.0);
  // A successful stage still records and forwards its return value.
  EXPECT_EQ(timer.time("fine", [] { return 7; }), 7);
  EXPECT_EQ(timer.timings().size(), 2u);
}

TEST(StageTimer, SameNameScopesAggregateInsteadOfOverwriting) {
  // Re-running a stage (cache replay), nesting a sub-scope, or closing
  // overlapping per-shard scopes must fold into one entry — the old
  // behaviour of overwriting silently dropped all but the last recording.
  net::StageTimer timer;
  timer.record("crawl", 100.0);
  timer.record("crawl", 25.0);
  timer.record("crawl", 0.5);
  const auto timings = timer.timings();
  ASSERT_EQ(timings.size(), 1u);
  EXPECT_DOUBLE_EQ(timings[0].millis, 125.5);
  EXPECT_EQ(timings[0].scopes, 3u);
  EXPECT_DOUBLE_EQ(timer.millis("crawl"), 125.5);
}

TEST(StageTimer, NestedTimeScopesAggregateUnderOneName) {
  net::StageTimer timer;
  timer.time("outer", [&] {
    timer.time("outer", [] {});
    timer.time("outer", [] {});
  });
  const auto timings = timer.timings();
  ASSERT_EQ(timings.size(), 1u);
  EXPECT_EQ(timings[0].scopes, 3u);
}

TEST(StageTimer, SubStagesAreExcludedFromTotalMillis) {
  // Dotted names are attribution detail recorded *inside* their parent
  // scope; adding them to the total would double-count that time.
  net::StageTimer timer;
  timer.record("crawl", 100.0);
  timer.record("crawl.build", 30.0);
  timer.record("crawl.events", 60.0);
  timer.record("ecosystem", 50.0);
  // A stage with CPU attribution only has no wall time: the wall map
  // leaves it out, stages_cpu carries it.
  timer.record_cpu("crawl.cpu", 40.0);
  EXPECT_DOUBLE_EQ(timer.total_millis(), 150.0);
  // But they are still visible individually and in the JSON.
  EXPECT_DOUBLE_EQ(timer.millis("crawl.build"), 30.0);
  const std::string json = timer.to_json(1);
  EXPECT_NE(json.find("\"crawl.events\": 60.000"), std::string::npos);
  const std::size_t cpu_map = json.find("\"stages_cpu\": {");
  ASSERT_NE(cpu_map, std::string::npos);
  EXPECT_EQ(json.find("\"crawl.cpu\""), json.find("\"crawl.cpu\": 40.000",
                                                  cpu_map));
}

TEST(StageTimer, ThreadCpuScopeCountsWorkNotWaiting) {
  using namespace std::chrono_literals;
  net::StageTimer timer;
  timer.time("sleep", [&] {
    timer.time_cpu("sleep.cpu", [] { std::this_thread::sleep_for(50ms); });
  });
  EXPECT_LT(timer.cpu_millis("sleep.cpu"), timer.millis("sleep") / 10);
  // A spin is all CPU, and a thread's CPU clock never runs ahead of the
  // wall clock.
  timer.time("spin", [&] {
    timer.time_cpu("spin.cpu", [] {
      const auto until = std::chrono::steady_clock::now() + 20ms;
      while (std::chrono::steady_clock::now() < until) {
      }
    });
  });
  EXPECT_GT(timer.cpu_millis("spin.cpu"), 0.0);
  EXPECT_LE(timer.cpu_millis("spin.cpu"), timer.millis("spin") + 1.0);
}

TEST(StageTimer, CrawlCpuNeverExceedsWallTimesThreads) {
  // crawl.build and crawl.events sum each shard thread's CPU clock, so
  // they fit inside the shards' wall region times the threads that ran
  // them: the calling thread alone, or it and the pool's workers.
  analysis::ScenarioConfig config = analysis::test_scenario_config(7);
  config.world.as_count = 20;
  config.crawl_days = 1;
  config.restrict_crawler_to_blocklisted = false;
  const inet::World world(config.world);
  const blocklist::SnapshotStore store;
  const auto crawl_cpu = [](const net::StageTimer& timer) {
    return timer.cpu_millis("crawl.build") + timer.cpu_millis("crawl.events");
  };

  net::StageTimer serial;
  const analysis::CrawlOutput output = analysis::run_scenario_crawl(
      world, store, config, nullptr, nullptr, &serial);
  ASSERT_GT(output.stats.pings_sent, 0u);
  EXPECT_GT(crawl_cpu(serial), 0.0);
  EXPECT_LE(crawl_cpu(serial), serial.millis("crawl.shards") + 1.0);

  net::ThreadPool pool(4);
  net::StageTimer pooled;
  (void)analysis::run_scenario_crawl(world, store, config, nullptr, &pool,
                                     &pooled);
  EXPECT_GT(crawl_cpu(pooled), 0.0);
  EXPECT_LE(crawl_cpu(pooled), pooled.millis("crawl.shards") * 5);
}

TEST(StageTimer, CrawlWallSubStagesPartitionTheCrawl) {
  // The restrict-set build is a sub-stage too, so the wall sub-stages
  // account for the whole crawl scope up to the scope bookkeeping.
  analysis::ScenarioConfig config = analysis::test_scenario_config(7);
  config.world.as_count = 20;
  config.crawl_days = 1;
  config.restrict_crawler_to_blocklisted = true;
  const inet::World world(config.world);
  const blocklist::SnapshotStore store;
  net::StageTimer timer;
  (void)timer.time("crawl", [&] {
    return analysis::run_scenario_crawl(world, store, config, nullptr,
                                        nullptr, &timer);
  });
  std::vector<std::string> wall_substages;
  double substage_sum = 0.0;
  for (const net::StageTiming& timing : timer.timings()) {
    if (timing.stage.rfind("crawl.", 0) != 0 || timing.scopes == 0) continue;
    wall_substages.push_back(timing.stage);
    substage_sum += timing.millis;
  }
  EXPECT_EQ(wall_substages,
            (std::vector<std::string>{"crawl.restrict", "crawl.overlay",
                                      "crawl.shards", "crawl.merge"}));
  EXPECT_LE(substage_sum, timer.millis("crawl"));
  EXPECT_LE(timer.millis("crawl") - substage_sum,
            1.0 + 0.05 * timer.millis("crawl"));
}

TEST(StageTimer, ConcurrentRecordsFromShardWorkersAllLand) {
  // The sharded crawl records sub-stage scopes from pool workers while the
  // scenario thread owns the enclosing scope; nothing may be lost or torn.
  net::StageTimer timer;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&timer] {
      for (int i = 0; i < kPerThread; ++i) timer.record("crawl.events", 1.0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto timings = timer.timings();
  ASSERT_EQ(timings.size(), 1u);
  EXPECT_DOUBLE_EQ(timings[0].millis, kThreads * kPerThread * 1.0);
  EXPECT_EQ(timings[0].scopes,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(StageTimer, MoveTransfersTimingsAndLeavesSourceEmpty) {
  // A Scenario moves its StageTimer; the mutex stays with each object, the
  // entries move.
  net::StageTimer source;
  source.record("world", 5.0);
  net::StageTimer moved(std::move(source));
  EXPECT_DOUBLE_EQ(moved.millis("world"), 5.0);
  EXPECT_TRUE(source.timings().empty());  // NOLINT(bugprone-use-after-move)
  source.record("fresh", 1.0);
  net::StageTimer assigned;
  assigned.record("stale", 9.0);
  assigned = std::move(source);
  ASSERT_EQ(assigned.timings().size(), 1u);
  EXPECT_EQ(assigned.timings()[0].stage, "fresh");
}

TEST(RunManifest, NullConfigRendersNullFieldsAndCrossCuttingFamilies) {
  analysis::RunManifestInfo info;
  info.tool = "unit \"test\"";
  const std::string json = analysis::run_manifest_json(info);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"unit \\\"test\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"config_fingerprint\": null"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": null"), std::string::npos);
  EXPECT_NE(json.find("\"jobs\": null"), std::string::npos);
  EXPECT_NE(json.find("\"fault_plan\": null"), std::string::npos);
  EXPECT_NE(json.find("\"cache\": null"), std::string::npos);
  EXPECT_NE(json.find("\"stages\": null"), std::string::npos);
  EXPECT_NE(json.find("\"calibration_version\": "), std::string::npos);
  // The cross-cutting families are registered by the manifest itself even
  // when the run never exercised them.
  EXPECT_NE(json.find("cache_hits_total"), std::string::npos);
  EXPECT_NE(json.find("faults_bootstrap_blackholes_total"),
            std::string::npos);
  EXPECT_NE(json.find("pool_tasks_run_total"), std::string::npos);
  // The manifest reads VmRSS before VmHWM, which never falls.
  EXPECT_GE(net::metrics::gauge("mem_peak_rss_bytes", "").value(),
            net::metrics::gauge("mem_current_rss_bytes", "").value());
}

/// A document's run identity: everything up to and including the
/// hardware_jobs member, the last one the run header writes.
std::string run_identity(const std::string& json) {
  const std::size_t last = json.find("\"hardware_jobs\"");
  if (last == std::string::npos) return "";
  return json.substr(0, json.find('\n', last));
}

TEST(RunHeader, ManifestAndBenchFileShareOneIdentity) {
  const analysis::ScenarioConfig config = analysis::test_scenario_config(7);
  net::JsonWriter bench;
  bench.begin_object();
  analysis::write_run_header(bench, "unit_test", &config);
  const std::string header = run_identity(bench.field("runs", 3).end().str());
  EXPECT_EQ(header.rfind("{\n  \"schema_version\": 1,\n"
                         "  \"tool\": \"unit_test\",\n"
                         "  \"calibration_version\": " +
                             std::to_string(analysis::kCalibrationVersion) +
                             ",\n",
                         0),
            0u);
  EXPECT_NE(header.find("\"config_fingerprint\": \"" +
                        net::hex16(analysis::config_fingerprint(config)) +
                        "\""),
            std::string::npos);
  EXPECT_NE(header.find("\"seed\": 7,\n  \"as_count\": 120,\n"
                        "  \"probe_count\": 800,\n  \"hardware_jobs\": " +
                        std::to_string(net::ThreadPool::hardware_jobs())),
            std::string::npos);
  analysis::RunManifestInfo info;
  info.tool = "unit_test";
  info.config = &config;
  EXPECT_EQ(run_identity(analysis::run_manifest_json(info)), header);

  // Without a scenario the scenario fields are null.
  net::JsonWriter bare;
  bare.begin_object();
  analysis::write_run_header(bare, "unit_test", nullptr);
  const std::string null_header =
      run_identity(bare.field("runs", 3).end().str());
  EXPECT_NE(null_header.find("\"config_fingerprint\": null,\n"
                             "  \"seed\": null,\n"
                             "  \"as_count\": null,\n"
                             "  \"probe_count\": null,\n"),
            std::string::npos);
  info.config = nullptr;
  EXPECT_EQ(run_identity(analysis::run_manifest_json(info)), null_header);
}

TEST(ReportFile, WritesTheWholeTextOrReturnsOneDiagnostic) {
  const std::string path = ::testing::TempDir() + "report_file_test.json";
  ASSERT_EQ(analysis::write_report_file(path, "{}\n"), std::nullopt);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "{}\n");
  std::remove(path.c_str());

  const std::string missing = ::testing::TempDir() + "no_such_dir/r.json";
  EXPECT_EQ(analysis::write_report_file(missing, "{}\n"),
            "cannot write " + missing);
  // /dev/full opens fine and fails only when the buffered text is flushed:
  // a check of the open alone would report success.
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_EQ(analysis::write_report_file("/dev/full", "{}\n"),
              "cannot write /dev/full");
  }
}

TEST(RunManifest, StageTimesAndCacheVerdictRender) {
  net::StageTimer timer;
  timer.record("world", 3.25);
  analysis::RunManifestInfo info;
  info.tool = "unit_test";
  info.stage_times = &timer;
  info.cache_hit = true;
  const std::string json = analysis::run_manifest_json(info);
  EXPECT_NE(json.find("\"cache\": {\"consulted\": true, \"hit\": true}"),
            std::string::npos);
  EXPECT_NE(json.find("\"world\": 3.250"), std::string::npos);
}

}  // namespace
}  // namespace reuse
