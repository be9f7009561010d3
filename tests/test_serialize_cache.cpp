#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "analysis/cache.h"
#include "netbase/mem.h"
#include "netbase/serialize.h"

namespace reuse {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

void write_all(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(BinarySerialize, IntegerRoundTripAllWidths) {
  std::string bytes;
  net::BinaryWriter writer(bytes);
  writer.write(std::uint8_t{0xAB});
  writer.write(std::uint16_t{0xBEEF});
  writer.write(std::uint32_t{0xDEADBEEF});
  writer.write(std::uint64_t{0x0123456789ABCDEFULL});
  writer.write(std::int64_t{-42});
  writer.write(3.14159);
  writer.write("hello");
  EXPECT_EQ(bytes.size(), 1u + 2 + 4 + 8 + 8 + 8 + 8 + 5);
  EXPECT_EQ(bytes.substr(1, 2), "\xEF\xBE");  // little-endian

  net::BinaryReader reader(bytes);
  EXPECT_EQ(reader.read<std::uint8_t>(), 0xAB);
  EXPECT_EQ(reader.read<std::uint16_t>(), 0xBEEF);
  EXPECT_EQ(reader.read<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(reader.read<std::uint64_t>(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.read<std::int64_t>(), -42);
  EXPECT_EQ(reader.read<std::uint64_t>(),
            std::bit_cast<std::uint64_t>(3.14159));
  EXPECT_EQ(reader.read_size(1 << 10), 5u);
  EXPECT_EQ(reader.read_bytes(5), "hello");
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.at_end());
}

TEST(BinarySerialize, WriteSequenceRoundTrips) {
  std::string bytes;
  net::BinaryWriter writer(bytes);
  const std::vector<std::uint32_t> values{3, 1, 4, 1, 5, 9, 2, 6};
  writer.write_sequence(values, [](net::BinaryWriter& w, std::uint32_t v) {
    w.write(v);
  });
  net::BinaryReader reader(bytes);
  const auto count = reader.read_size(1 << 10);
  ASSERT_EQ(count, values.size());
  for (const std::uint32_t expected : values) {
    EXPECT_FALSE(reader.at_end());
    EXPECT_EQ(reader.read<std::uint32_t>(), expected);
  }
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.at_end());
}

TEST(BinarySerialize, OversizedStringIsRejected) {
  // A length prefix longer than the bytes left is refused before it can
  // size a buffer, however generous the caller's sanity limit.
  std::string bytes;
  net::BinaryWriter writer(bytes);
  writer.write(std::uint64_t{1ULL << 40});  // bogus string length
  writer.write_bytes("hello");
  net::BinaryReader reader(bytes);
  EXPECT_EQ(reader.read_size(std::uint64_t{1} << 62), 0u);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.read_bytes(5), "");
  EXPECT_FALSE(reader.at_end());
}

TEST(BinarySerialize, CorruptLengthPoisonsStream) {
  std::string bytes;
  net::BinaryWriter writer(bytes);
  writer.write(std::uint64_t{1ULL << 60});  // absurd length prefix
  net::BinaryReader reader(bytes);
  EXPECT_EQ(reader.read_size(1 << 20), 0u);
  EXPECT_FALSE(reader.ok());
}

TEST(BinarySerialize, TruncatedStreamFailsCleanly) {
  std::string bytes;
  net::BinaryWriter writer(bytes);
  writer.write(std::uint32_t{7});
  net::BinaryReader reader(bytes);
  (void)reader.read<std::uint32_t>();
  EXPECT_TRUE(reader.at_end());
  EXPECT_EQ(reader.read<std::uint64_t>(), 0u);  // past the end
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.at_end());
  // Poisoned for good: later reads see nothing, even ones that would fit.
  EXPECT_EQ(reader.read<std::uint8_t>(), 0u);
  EXPECT_FALSE(reader.ok());
}

class CacheRoundTrip : public ::testing::Test {
 protected:
  static analysis::ScenarioConfig tiny_config() {
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
  void SetUp() override {
    // Unique file per test: ctest runs cases in parallel processes.
    path_ = std::string("test_cache_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".cache";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CacheRoundTrip, SaveThenLoadPreservesEverything) {
  const auto config = tiny_config();
  const analysis::Scenario original = analysis::run_scenario(config);
  ASSERT_TRUE(analysis::save_scenario_cache(path_, config, original.crawl,
                                            original.ecosystem));
  const auto loaded = analysis::load_scenario_cache(path_, config);
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->crawl.evidence.size(), original.crawl.evidence.size());
  EXPECT_EQ(loaded->crawl.nated, original.crawl.nated);
  EXPECT_EQ(loaded->crawl.stats.pings_sent, original.crawl.stats.pings_sent);
  EXPECT_EQ(loaded->crawl.distinct_node_ids, original.crawl.distinct_node_ids);
  for (const auto& [address, evidence] : original.crawl.evidence) {
    const auto it = loaded->crawl.evidence.find(address);
    ASSERT_NE(it, loaded->crawl.evidence.end());
    EXPECT_EQ(it->second.ports, evidence.ports);
    EXPECT_EQ(it->second.max_concurrent_users, evidence.max_concurrent_users);
  }

  EXPECT_EQ(loaded->ecosystem.store.listing_count(),
            original.ecosystem.store.listing_count());
  EXPECT_EQ(loaded->ecosystem.store.address_count(),
            original.ecosystem.store.address_count());
  original.ecosystem.store.for_each_listing(
      [&](blocklist::ListId list, net::Ipv4Address address,
          const net::IntervalSet& intervals) {
        const net::IntervalSet other =
            loaded->ecosystem.store.presence(list, address);
        ASSERT_FALSE(other.empty());
        EXPECT_EQ(other.intervals(), intervals.intervals());
      });
}

TEST_F(CacheRoundTrip, MismatchedConfigIsRejected) {
  const auto config = tiny_config();
  const analysis::Scenario original = analysis::run_scenario(config);
  ASSERT_TRUE(analysis::save_scenario_cache(path_, config, original.crawl,
                                            original.ecosystem));
  auto other_seed = config;
  other_seed.seed = 6;
  EXPECT_FALSE(analysis::load_scenario_cache(path_, other_seed).has_value());
  auto other_scale = config;
  other_scale.world.as_count = 31;
  EXPECT_FALSE(analysis::load_scenario_cache(path_, other_scale).has_value());
  EXPECT_FALSE(
      analysis::load_scenario_cache("nonexistent.cache", config).has_value());
}

TEST_F(CacheRoundTrip, FeedHealthPerListSurvivesTheRoundTrip) {
  // Under a chaos plan the per-list health vector carries the interesting
  // fields: quarantined/salvaged days and per-list skipped-line counts.
  // All of it must survive the cache, and the per-list skip counts must
  // keep summing to the aggregate on both sides of the round trip.
  auto config = tiny_config();
  config.faults = analysis::default_chaos_plan(config, /*chaos_seed=*/1);
  config.finalize();
  const analysis::Scenario original = analysis::run_scenario(config);
  const blocklist::EcosystemStats& stats = original.ecosystem.stats;
  EXPECT_GT(stats.feeds_quarantined + stats.feeds_salvaged, 0u);
  std::uint64_t per_list_skipped = 0;
  for (const blocklist::FeedHealth& health : stats.per_list) {
    per_list_skipped += health.lines_skipped;
  }
  EXPECT_EQ(per_list_skipped, stats.feed_lines_skipped);
  EXPECT_GT(stats.feed_lines_skipped, 0u);

  ASSERT_TRUE(analysis::save_scenario_cache(path_, config, original.crawl,
                                            original.ecosystem));
  const auto loaded = analysis::load_scenario_cache(path_, config);
  ASSERT_TRUE(loaded.has_value());
  const blocklist::EcosystemStats& reloaded = loaded->ecosystem.stats;
  EXPECT_EQ(reloaded.per_list, stats.per_list);
  EXPECT_EQ(reloaded.feed_lines_skipped, stats.feed_lines_skipped);
  EXPECT_EQ(reloaded.feeds_quarantined, stats.feeds_quarantined);
  EXPECT_EQ(reloaded.feeds_salvaged, stats.feeds_salvaged);
  std::uint64_t reloaded_skipped = 0;
  for (const blocklist::FeedHealth& health : reloaded.per_list) {
    reloaded_skipped += health.lines_skipped;
  }
  EXPECT_EQ(reloaded_skipped, reloaded.feed_lines_skipped);
}

TEST_F(CacheRoundTrip, GarbageFileIsRejected) {
  {
    std::ofstream os(path_, std::ios::binary);
    os << "this is not a cache file at all, just text";
  }
  EXPECT_FALSE(
      analysis::load_scenario_cache(path_, tiny_config()).has_value());
}

TEST_F(CacheRoundTrip, NatedOrderingMatchesLiveScenario) {
  const auto config = tiny_config();
  const analysis::Scenario original = analysis::run_scenario(config);
  ASSERT_TRUE(analysis::save_scenario_cache(path_, config, original.crawl,
                                            original.ecosystem));
  const auto loaded = analysis::load_scenario_cache(path_, config);
  ASSERT_TRUE(loaded.has_value());
  // Exact sequence equality, not just set equality: benches iterate
  // `nated` in order, so cache-hit runs must replay the live ordering.
  ASSERT_FALSE(original.crawl.nated.empty());
  EXPECT_EQ(loaded->crawl.nated, original.crawl.nated);
  EXPECT_EQ(loaded->crawl.nated_set, original.crawl.nated_set);
}

TEST_F(CacheRoundTrip, SavedBytesAreDeterministic) {
  const auto config = tiny_config();
  const analysis::Scenario original = analysis::run_scenario(config);
  const std::string second_path = path_ + ".second";
  ASSERT_TRUE(analysis::save_scenario_cache(path_, config, original.crawl,
                                            original.ecosystem));
  ASSERT_TRUE(analysis::save_scenario_cache(second_path, config,
                                            original.crawl,
                                            original.ecosystem));
  const std::string first_bytes = read_all(path_);
  EXPECT_FALSE(first_bytes.empty());
  EXPECT_EQ(first_bytes, read_all(second_path));
  std::remove(second_path.c_str());
}

TEST_F(CacheRoundTrip, ConfigsDifferingInUnkeyedKnobsAreRejected) {
  const auto config = tiny_config();
  const analysis::Scenario original = analysis::run_scenario(config);
  ASSERT_TRUE(analysis::save_scenario_cache(path_, config, original.crawl,
                                            original.ecosystem));
  // Each of these knobs changes the simulated crawl or ecosystem but was
  // invisible to the pre-fingerprint header check.
  auto other_crawl = config;
  other_crawl.crawl.get_nodes_per_endpoint += 1;
  EXPECT_FALSE(analysis::load_scenario_cache(path_, other_crawl).has_value());
  auto other_dht = config;
  other_dht.dht.reboot_rate_per_day += 0.01;
  EXPECT_FALSE(analysis::load_scenario_cache(path_, other_dht).has_value());
  auto other_eco = config;
  other_eco.ecosystem.reobservation_extend_rate += 0.01;
  EXPECT_FALSE(analysis::load_scenario_cache(path_, other_eco).has_value());
  auto other_world = config;
  other_world.world.infection_rate_base += 0.001;
  EXPECT_FALSE(analysis::load_scenario_cache(path_, other_world).has_value());
  auto other_restrict = config;
  other_restrict.restrict_crawler_to_blocklisted =
      !config.restrict_crawler_to_blocklisted;
  EXPECT_FALSE(
      analysis::load_scenario_cache(path_, other_restrict).has_value());
}

TEST_F(CacheRoundTrip, DistinctConfigsGetDistinctDefaultPaths) {
  const auto config = tiny_config();
  auto other = config;
  other.ecosystem.short_retention_fraction += 0.05;
  EXPECT_NE(analysis::config_fingerprint(config),
            analysis::config_fingerprint(other));
  EXPECT_NE(analysis::default_cache_path(config),
            analysis::default_cache_path(other));
  // Same config, fingerprinted before or after finalize(): same value (the
  // fingerprint finalizes a copy internally).
  analysis::ScenarioConfig unfinalized;
  unfinalized.seed = config.seed;
  unfinalized.world = config.world;
  unfinalized.crawl_days = config.crawl_days;
  unfinalized.fleet.probe_count = config.fleet.probe_count;
  unfinalized.census = config.census;
  unfinalized.run_census = config.run_census;
  EXPECT_EQ(analysis::config_fingerprint(config),
            analysis::config_fingerprint(unfinalized));
}

TEST_F(CacheRoundTrip, TruncatedFilesAreRejectedFast) {
  const auto config = tiny_config();
  const analysis::Scenario original = analysis::run_scenario(config);
  ASSERT_TRUE(analysis::save_scenario_cache(path_, config, original.crawl,
                                            original.ecosystem));
  const std::string bytes = read_all(path_);
  ASSERT_GT(bytes.size(), 64u);
  // Cut inside the header, just after it, mid-payload, and one byte short —
  // the loader must reject each without looping over a corrupt count.
  for (const std::size_t keep :
       {std::size_t{10}, std::size_t{63}, std::size_t{64},
        bytes.size() / 2, bytes.size() - 1}) {
    write_all(path_, bytes.substr(0, keep));
    EXPECT_FALSE(analysis::load_scenario_cache(path_, config).has_value())
        << "truncation at " << keep << " bytes was not rejected";
  }
}

TEST_F(CacheRoundTrip, BitFlippedFilesAreRejected) {
  const auto config = tiny_config();
  const analysis::Scenario original = analysis::run_scenario(config);
  ASSERT_TRUE(analysis::save_scenario_cache(path_, config, original.crawl,
                                            original.ecosystem));
  const std::string bytes = read_all(path_);
  ASSERT_GT(bytes.size(), 64u);
  // Every header byte, then a sample of payload offsets. The payload
  // checksum must catch every single-bit flip. Flipping byte 43 declares a
  // payload 1 GiB larger than the file; the size field is bounded by the
  // file, so no rejection may raise the peak RSS by more than a few
  // payloads (under ASan freed payloads sit in quarantine).
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < 64; ++i) offsets.push_back(i);
  for (std::size_t i = 64; i < bytes.size(); i += 131) offsets.push_back(i);
  offsets.push_back(bytes.size() - 1);
  std::uint64_t peak_growth = 0;
  for (const std::size_t offset : offsets) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x40);
    write_all(path_, corrupt);
    const std::uint64_t peak_before = net::peak_rss_bytes();
    EXPECT_FALSE(analysis::load_scenario_cache(path_, config).has_value())
        << "bit flip at offset " << offset << " was not rejected";
    peak_growth = std::max(peak_growth, net::peak_rss_bytes() - peak_before);
  }
  EXPECT_LT(peak_growth, std::uint64_t{64} << 20);
}

TEST_F(CacheRoundTrip, TrailingBytesAreRejected) {
  const auto config = tiny_config();
  const analysis::Scenario original = analysis::run_scenario(config);
  ASSERT_TRUE(analysis::save_scenario_cache(path_, config, original.crawl,
                                            original.ecosystem));
  const std::string bytes = read_all(path_);
  analysis::CacheMetrics& metrics = analysis::cache_metrics();
  const std::uint64_t hits = metrics.hits.value();
  const std::uint64_t rejects = metrics.rejects.value();

  // Bytes appended after the payload the header declares.
  write_all(path_, bytes + std::string(12, '\0'));
  EXPECT_FALSE(analysis::load_scenario_cache(path_, config).has_value());

  // A payload longer than its five sections, framed and checksummed by the
  // envelope under the file's own magic, version and header.
  net::BinaryReader reader(bytes);
  net::ArtifactFormat format;
  format.magic = reader.read<std::uint64_t>();
  format.version = reader.read<std::uint32_t>();
  format.header_bytes = 28;
  const std::string_view header = reader.read_bytes(format.header_bytes);
  ASSERT_TRUE(reader.ok());
  // The payload follows the 56-byte fixed part (28 envelope + 28 header).
  const std::string payload = bytes.substr(56) + '\0';
  ASSERT_TRUE(net::save_artifact(path_, format, header, payload));
  EXPECT_EQ(read_all(path_).size(), bytes.size() + 1);
  EXPECT_FALSE(analysis::load_scenario_cache(path_, config).has_value());

  EXPECT_EQ(metrics.rejects.value(), rejects + 2);
  EXPECT_EQ(metrics.hits.value(), hits);
  // The pristine bytes still load.
  write_all(path_, bytes);
  EXPECT_TRUE(analysis::load_scenario_cache(path_, config).has_value());
  EXPECT_EQ(metrics.hits.value(), hits + 1);
}

TEST_F(CacheRoundTrip, SaveIsAtomicAgainstStaleTmpAndRereadable) {
  const auto config = tiny_config();
  const analysis::Scenario original = analysis::run_scenario(config);
  // A stale tmp file from a crashed writer must not break a fresh save.
  const std::string stale_tmp = path_ + ".tmp.424242";
  {
    std::ofstream os(stale_tmp, std::ios::binary);
    os << "half-written garbage from a kill -9'd process";
  }
  ASSERT_TRUE(analysis::save_scenario_cache(path_, config, original.crawl,
                                            original.ecosystem));
  EXPECT_TRUE(analysis::load_scenario_cache(path_, config).has_value());
  // Saving over an existing cache is a whole-file replace, not an append.
  ASSERT_TRUE(analysis::save_scenario_cache(path_, config, original.crawl,
                                            original.ecosystem));
  EXPECT_TRUE(analysis::load_scenario_cache(path_, config).has_value());
  // No temporary of this process survives a successful save.
  const auto pid_tmp =
      path_ + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  EXPECT_FALSE(std::filesystem::exists(pid_tmp));
  std::remove(stale_tmp.c_str());
}

}  // namespace
}  // namespace reuse
