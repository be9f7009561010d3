// Equivalence proof for the per-address census. The oracle below is the
// per-probe ping model and survey loop run_census used before each address's
// model was resolved once: every probe re-walks the prefix trie, scans the AS
// list, re-checks occupancy and re-hashes with a double compare, and every
// row folds through its own std::vector. The census must reproduce the
// oracle's complete CensusResult — totals, every BlockMetrics with the doubles
// compared bit for bit, and the dynamic blocks — on the perfbench study
// worlds and on edge rows (off-hour windows, odd probe intervals, empty
// windows, whole and empty samples, sub-minute leases, filtered and unused
// space), at 1 and 8 jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/scenario.h"
#include "census/census.h"
#include "internet/ping_model.h"
#include "internet/world.h"
#include "netbase/rng.h"
#include "netbase/thread_pool.h"

namespace reuse::census {
namespace {

// --- the oracle: the replaced per-probe model and survey --------------------

std::uint64_t oracle_mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t state = a ^ (b * 0x9e3779b97f4a7c15ULL) ^
                        (c * 0xc2b2ae3d27d4eb4fULL);
  return net::splitmix64(state);
}

double oracle_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool oracle_responds(const inet::World& world, std::uint64_t seed,
                     net::Ipv4Address address, net::SimTime t) {
  auto unit_hash = [&](std::uint64_t salt) {
    return oracle_unit(oracle_mix(seed, address.value(), salt));
  };
  const inet::PrefixRecord* record = world.prefix_record(address);
  if (record == nullptr || record->role == inet::PrefixRole::kUnused) {
    return false;
  }
  const inet::AsInfo* as_info = world.find_as(record->asn);
  if (as_info != nullptr && as_info->filters_icmp) return false;

  switch (record->role) {
    case inet::PrefixRole::kServerHosting: {
      const bool exists =
          unit_hash(1) < static_cast<double>(record->density) / 256.0;
      return exists &&
             unit_hash(2 + static_cast<std::uint64_t>(t.seconds() / 3600)) <
                 0.98;
    }
    case inet::PrefixRole::kStaticResidential: {
      if (!world.is_static_occupied(address)) return false;
      if (unit_hash(3) < 0.30) return true;
      const double online_fraction = 0.2 + 0.5 * unit_hash(4);
      const double phase = unit_hash(5);
      const double day_position = std::fmod(
          static_cast<double>(t.seconds()) / 86400.0 + phase, 1.0);
      return day_position < online_fraction;
    }
    case inet::PrefixRole::kHomeNatResidential:
      if (!world.nat_group_fanout(address)) return false;
      return unit_hash(6 + static_cast<std::uint64_t>(t.seconds() / 3600)) <
             0.95;
    case inet::PrefixRole::kCgnPool:
      return unit_hash(7 + static_cast<std::uint64_t>(t.seconds() / 3600)) <
             0.99;
    case inet::PrefixRole::kDynamicPool: {
      const inet::DynamicPoolInfo& pool = world.pool(record->pool_index);
      const auto slot = static_cast<std::uint64_t>(
          static_cast<double>(t.seconds()) /
          std::max(60.0, pool.mean_lease_seconds));
      const double occupied = world.config().dynamic_subscription_ratio;
      if (oracle_unit(oracle_mix(seed ^ 0xd1eaf, address.value(), slot)) >=
          occupied) {
        return false;
      }
      return oracle_unit(oracle_mix(seed ^ 0x0111eULL, address.value(),
                                    slot * 31 + 7)) < 0.7;
    }
    case inet::PrefixRole::kUnused:
      return false;
  }
  return false;
}

AddressMetrics oracle_row_metrics(const std::uint8_t* row, std::size_t slots,
                                  net::Duration interval) {
  AddressMetrics metrics;
  metrics.probes = static_cast<std::uint32_t>(slots);
  std::vector<std::int64_t> uptimes;
  std::int64_t run = 0;
  bool previous = false;
  for (std::size_t i = 0; i < slots; ++i) {
    const bool up = row[i] != 0;
    if (up) {
      ++metrics.responses;
      run += interval.count();
    }
    if (i > 0 && up != previous) ++metrics.transitions;
    if (!up && run > 0) {
      uptimes.push_back(run);
      run = 0;
    }
    previous = up;
  }
  if (run > 0) uptimes.push_back(run);
  if (!uptimes.empty()) {
    std::sort(uptimes.begin(), uptimes.end());
    metrics.median_uptime_seconds = uptimes[uptimes.size() / 2];
  }
  return metrics;
}

struct OracleCensus {
  CensusResult result;
  std::vector<net::Ipv4Prefix> sampled;  ///< in sample order
};

OracleCensus oracle_census(const inet::World& world,
                           const CensusConfig& config,
                           const DynamicBlockRule& rule = {}) {
  OracleCensus oracle;
  CensusResult& result = oracle.result;
  net::Rng rng(config.seed);
  const std::uint64_t model_seed = config.seed ^ 0x9137ULL;
  std::vector<net::Ipv4Prefix> all_blocks;
  for (const inet::AsInfo& as_info : world.ases()) {
    all_blocks.insert(all_blocks.end(), as_info.prefixes.begin(),
                      as_info.prefixes.end());
  }
  const auto sample_size = static_cast<std::size_t>(
      static_cast<double>(all_blocks.size()) * config.block_sample_fraction);
  const std::vector<std::size_t> chosen =
      rng.sample_indices(all_blocks.size(), sample_size);
  result.blocks_surveyed = chosen.size();

  const std::int64_t begin = config.window.begin.seconds();
  const std::int64_t end = config.window.end.seconds();
  const std::int64_t step = config.probe_interval.count();
  const std::size_t slots =
      end > begin ? static_cast<std::size_t>((end - begin + step - 1) / step)
                  : 0;
  for (const std::size_t index : chosen) {
    const net::Ipv4Prefix block = all_blocks[index];
    oracle.sampled.push_back(block);
    BlockMetrics aggregate;
    aggregate.block = block;
    double availability_sum = 0.0;
    double volatility_sum = 0.0;
    std::vector<std::uint8_t> matrix(
        static_cast<std::size_t>(block.size()) * slots);
    std::vector<std::int64_t> block_uptimes;
    for (std::uint64_t offset = 0; offset < block.size(); ++offset) {
      const net::Ipv4Address address = block.address_at(offset);
      std::uint8_t* row = matrix.data() + offset * slots;
      std::size_t s = 0;
      for (std::int64_t t = begin; t < end; t += step) {
        row[s++] =
            oracle_responds(world, model_seed, address, net::SimTime(t)) ? 1
                                                                         : 0;
      }
      result.probes_sent += slots;
      const AddressMetrics metrics =
          oracle_row_metrics(row, slots, config.probe_interval);
      result.responses += metrics.responses;
      if (metrics.responses == 0) continue;
      ++aggregate.responsive_addresses;
      availability_sum += metrics.availability();
      volatility_sum += metrics.volatility();
      block_uptimes.push_back(metrics.median_uptime_seconds);
    }
    if (aggregate.responsive_addresses == 0) continue;
    aggregate.mean_availability =
        availability_sum / aggregate.responsive_addresses;
    aggregate.mean_volatility =
        volatility_sum / aggregate.responsive_addresses;
    std::sort(block_uptimes.begin(), block_uptimes.end());
    aggregate.median_uptime_seconds = block_uptimes[block_uptimes.size() / 2];
    if (is_dynamic_block(aggregate, rule)) {
      result.dynamic_blocks.insert(aggregate.block);
    }
    result.blocks.push_back(aggregate);
  }
  return oracle;
}

// --- comparison -------------------------------------------------------------

void expect_same_census(const CensusResult& actual,
                        const CensusResult& expected, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(actual.blocks_surveyed, expected.blocks_surveyed);
  EXPECT_EQ(actual.probes_sent, expected.probes_sent);
  EXPECT_EQ(actual.responses, expected.responses);
  ASSERT_EQ(actual.blocks.size(), expected.blocks.size());
  for (std::size_t i = 0; i < expected.blocks.size(); ++i) {
    const BlockMetrics& a = actual.blocks[i];
    const BlockMetrics& e = expected.blocks[i];
    EXPECT_EQ(a.block, e.block) << "block " << i;
    EXPECT_EQ(a.responsive_addresses, e.responsive_addresses) << e.block;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_availability),
              std::bit_cast<std::uint64_t>(e.mean_availability))
        << e.block << ": " << a.mean_availability << " vs "
        << e.mean_availability;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_volatility),
              std::bit_cast<std::uint64_t>(e.mean_volatility))
        << e.block << ": " << a.mean_volatility << " vs " << e.mean_volatility;
    EXPECT_EQ(a.median_uptime_seconds, e.median_uptime_seconds) << e.block;
  }
  EXPECT_EQ(actual.dynamic_blocks.to_vector(),
            expected.dynamic_blocks.to_vector());
}

/// Runs the census at 1 and 8 jobs against the oracle's result.
void expect_matches_oracle(const inet::World& world, const CensusConfig& config,
                           const CensusResult& expected) {
  expect_same_census(run_census(world, config), expected, "jobs 1");
  net::ThreadPool pool(8);
  expect_same_census(run_census(world, config, {}, &pool), expected,
                     "jobs 8");
}

// --- the perfbench study worlds ---------------------------------------------

/// perfbench's study shape: test_world_config(seed) at 40 ASes and the
/// default 14-day, 2-hour census over a quarter of the /24s.
analysis::ScenarioConfig study_shape(std::uint64_t seed) {
  analysis::ScenarioConfig config;
  config.seed = seed;
  config.world = inet::test_world_config(seed);
  config.world.as_count = 40;
  config.finalize();
  return config;
}

void expect_study_world_matches(std::uint64_t seed) {
  const analysis::ScenarioConfig config = study_shape(seed);
  const inet::World world(config.world);
  const OracleCensus oracle = oracle_census(world, config.census);
  ASSERT_GT(oracle.result.responses, 0u);
  ASSERT_FALSE(oracle.result.blocks.empty());
  expect_matches_oracle(world, config.census, oracle.result);
}

TEST(CensusOracle, StudyWorldSeed1) { expect_study_world_matches(1); }
TEST(CensusOracle, StudyWorldSeed2) { expect_study_world_matches(2); }
TEST(CensusOracle, StudyWorldSeed3) { expect_study_world_matches(3); }

// --- edge rows --------------------------------------------------------------

/// A 12-AS world: small enough for sanitizer builds, and it holds every
/// prefix role, an ICMP-filtered AS and unused /24s.
inet::WorldConfig small_world_config() {
  inet::WorldConfig config = inet::test_world_config(5);
  config.as_count = 12;
  return config;
}

const inet::World& small_world() {
  static const inet::World world(small_world_config());
  return world;
}

/// The same world with every pool's mean lease below the 60 s clamp.
const inet::World& sub_minute_lease_world() {
  static const inet::World world = [] {
    inet::WorldConfig config = small_world_config();
    config.min_mean_lease_seconds = 5.0;
    config.max_mean_lease_seconds = 50.0;
    return inet::World(config);
  }();
  return world;
}

CensusConfig edge_config(std::int64_t begin, std::int64_t end,
                         net::Duration interval, double fraction) {
  CensusConfig config;
  config.seed = 29;
  config.block_sample_fraction = fraction;
  config.probe_interval = interval;
  config.window = net::TimeWindow{net::SimTime(begin), net::SimTime(end)};
  return config;
}

/// What a row's sample must hold for the row to test what it names.
enum Holds : unsigned {
  kNoProbes = 0,
  kProbes = 1,              ///< a nonempty schedule over a nonempty sample
  kFilteredAndUnused = 2,   ///< an ICMP-filtered AS's /24 and an unused /24
  kAnsweringPool = 4,       ///< a dynamic-pool /24 of an unfiltered AS
};

struct EdgeRow {
  std::string name;
  const inet::World& (*world)();
  CensusConfig config;
  unsigned holds = kProbes;
};

void PrintTo(const EdgeRow& row, std::ostream* os) { *os << row.name; }

constexpr std::int64_t kDay = 86400;

// Sized so that each row takes at most ~10 s under a Debug TSan build.
std::vector<EdgeRow> edge_rows() {
  const net::Duration two_hours = net::Duration::hours(2);
  return {
      {"OffHourWindow", small_world,
       edge_config(1800, 1800 + 3 * kDay, two_hours, 0.3)},
      {"Interval660", small_world,
       edge_config(0, kDay, net::Duration::seconds(660), 0.1)},
      {"Interval5400", small_world,
       edge_config(0, 3 * kDay, net::Duration::seconds(5400), 0.2)},
      {"EmptyWindow", small_world, edge_config(kDay, kDay, two_hours, 0.3),
       kNoProbes},
      {"ReversedWindow", small_world,
       edge_config(2 * kDay, kDay, two_hours, 0.3), kNoProbes},
      {"SampleNone", small_world, edge_config(0, 2 * kDay, two_hours, 0.0),
       kNoProbes},
      {"SampleAll", small_world, edge_config(0, kDay, two_hours, 1.0),
       kProbes | kFilteredAndUnused | kAnsweringPool},
      {"SubMinuteLeases", sub_minute_lease_world,
       edge_config(0, kDay / 2, net::Duration::seconds(660), 0.25),
       kProbes | kAnsweringPool},
      {"FilteredAndUnused", small_world,
       edge_config(3600, 3 * kDay, two_hours, 0.4),
       kProbes | kFilteredAndUnused},
  };
}

class CensusEdgeRow : public ::testing::TestWithParam<EdgeRow> {};

TEST_P(CensusEdgeRow, MatchesOracleAtOneAndEightJobs) {
  const EdgeRow& row = GetParam();
  const inet::World& world = row.world();
  const OracleCensus oracle = oracle_census(world, row.config);
  const bool probes = (row.holds & kProbes) != 0;
  EXPECT_EQ(oracle.result.probes_sent > 0, probes);
  EXPECT_EQ(oracle.result.blocks.empty(), !probes);
  bool filtered = false;
  bool unused = false;
  bool pool = false;
  for (const net::Ipv4Prefix block : oracle.sampled) {
    const inet::PrefixRecord* record = world.prefix_record(block.network());
    ASSERT_NE(record, nullptr);
    const bool filters = world.find_as(record->asn)->filters_icmp;
    filtered = filtered || filters;
    unused = unused || record->role == inet::PrefixRole::kUnused;
    pool = pool ||
           (!filters && record->role == inet::PrefixRole::kDynamicPool);
  }
  if ((row.holds & kFilteredAndUnused) != 0) {
    EXPECT_TRUE(filtered);
    EXPECT_TRUE(unused);
  }
  if ((row.holds & kAnsweringPool) != 0) {
    EXPECT_TRUE(pool);
  }
  expect_matches_oracle(world, row.config, oracle.result);
}

INSTANTIATE_TEST_SUITE_P(
    CensusOracle, CensusEdgeRow, ::testing::ValuesIn(edge_rows()),
    [](const ::testing::TestParamInfo<EdgeRow>& info) {
      return info.param.name;
    });

// --- row level --------------------------------------------------------------

/// Probe times that cross hour, day and lease boundaries off the hour.
std::vector<net::SimTime> probe_times() {
  std::vector<net::SimTime> times;
  for (std::int64_t t = 0; t < 2 * kDay; t += 660) times.emplace_back(t);
  times.emplace_back(1800);
  times.emplace_back(5 * kDay + 3599);
  times.emplace_back(13 * kDay + 7 * 3600 + 1);
  return times;
}

void expect_responds_matches(const inet::World& world, std::uint64_t seed,
                             net::Ipv4Address address,
                             const std::vector<net::SimTime>& times) {
  const inet::PingModel model(world, seed);
  const inet::AddressPing ping = model.resolve(address);
  for (const net::SimTime t : times) {
    const bool expected = oracle_responds(world, seed, address, t);
    ASSERT_EQ(model.responds(address, t), expected)
        << address << " at " << t.seconds();
    ASSERT_EQ(ping.at(t), expected) << address << " at " << t.seconds();
  }
}

TEST(CensusOracle, RespondsMatchesOracleForEveryRoleAndSilentSpace) {
  const std::vector<net::SimTime> times = probe_times();
  for (const inet::World* world : {&small_world(), &sub_minute_lease_world()}) {
    std::vector<net::Ipv4Prefix> blocks;
    std::vector<bool> role_seen(6, false);
    bool filtered_seen = false;
    for (const inet::AsInfo& as_info : world->ases()) {
      for (std::size_t i = 0; i < as_info.prefixes.size(); ++i) {
        const auto role = static_cast<std::size_t>(as_info.roles[i]);
        if (as_info.filters_icmp && !filtered_seen) {
          filtered_seen = true;
          blocks.push_back(as_info.prefixes[i]);
        } else if (!as_info.filters_icmp && !role_seen[role]) {
          role_seen[role] = true;
          blocks.push_back(as_info.prefixes[i]);
        }
      }
    }
    ASSERT_TRUE(filtered_seen);
    ASSERT_EQ(std::count(role_seen.begin(), role_seen.end(), true), 6);
    for (const net::Ipv4Prefix block : blocks) {
      for (std::uint64_t offset = 0; offset < block.size(); ++offset) {
        expect_responds_matches(*world, 77, block.address_at(offset), times);
      }
    }
    // Outside any prefix: below the first /24 and past the last one.
    expect_responds_matches(*world, 77, net::Ipv4Address(1), times);
    expect_responds_matches(*world, 77, net::Ipv4Address(0xdf000001u), times);
  }
}

// --- draws on the threshold boundary ----------------------------------------

/// Inverse of the splitmix64 step: the state whose splitmix64 output is `h`.
std::uint64_t splitmix_preimage(std::uint64_t h) {
  auto unshift = [](std::uint64_t y, int shift) {
    std::uint64_t z = y;
    for (int i = 0; i < 64 / shift + 1; ++i) z = y ^ (z >> shift);
    return z;
  };
  auto inverse = [](std::uint64_t odd) {
    std::uint64_t x = odd;
    for (int i = 0; i < 5; ++i) x *= 2 - odd * x;
    return x;
  };
  std::uint64_t z = unshift(h, 31);
  z *= inverse(0x94d049bb133111ebULL);
  z = unshift(z, 27);
  z *= inverse(0xbf58476d1ce4e5b9ULL);
  z = unshift(z, 30);
  return z - 0x9e3779b97f4a7c15ULL;
}

/// The largest 53-bit draw whose unit value is still below `p`: where a
/// threshold of floor(p·2^53) and one of ceil(p·2^53) disagree.
std::uint64_t last_draw_below(double p) {
  return static_cast<std::uint64_t>(std::floor(std::ldexp(p, 53)));
}

/// The model seed that makes `oracle_mix(seed ^ xor_in, address, salt)`
/// draw `draw` (a 53-bit value).
std::uint64_t seed_for_draw(net::Ipv4Address address, std::uint64_t xor_in,
                            std::uint64_t salt, std::uint64_t draw) {
  const std::uint64_t state = splitmix_preimage(draw << 11);
  return state ^ (std::uint64_t{address.value()} * 0x9e3779b97f4a7c15ULL) ^
         (salt * 0xc2b2ae3d27d4eb4fULL) ^ xor_in;
}

TEST(CensusOracle, DrawsOnTheThresholdBoundaryKeepTheirAnswer) {
  const inet::World& world = small_world();
  const std::vector<net::SimTime> times = probe_times();
  ASSERT_NE(std::ldexp(0.30, 53), std::floor(std::ldexp(0.30, 53)));
  const double subscription = world.config().dynamic_subscription_ratio;
  ASSERT_NE(std::ldexp(subscription, 53),
            std::floor(std::ldexp(subscription, 53)));

  // An always-on residential host whose always-on draw is the last value
  // below 0.30.
  std::optional<net::Ipv4Address> host;
  for (const inet::AsInfo& as_info : world.ases()) {
    if (as_info.filters_icmp) continue;
    for (std::size_t i = 0; i < as_info.prefixes.size() && !host; ++i) {
      if (as_info.roles[i] != inet::PrefixRole::kStaticResidential) continue;
      for (std::uint64_t offset = 0; offset < 256 && !host; ++offset) {
        const net::Ipv4Address address = as_info.prefixes[i].address_at(offset);
        if (world.is_static_occupied(address)) host = address;
      }
    }
  }
  ASSERT_TRUE(host.has_value());
  const std::uint64_t host_seed =
      seed_for_draw(*host, 0, 3, last_draw_below(0.30));
  ASSERT_EQ(oracle_mix(host_seed, host->value(), 3) >> 11,
            last_draw_below(0.30));
  const inet::PingModel host_model(world, host_seed);
  EXPECT_EQ(host_model.resolve(*host).kind(),
            inet::AddressPing::Kind::kAlwaysUp);
  expect_responds_matches(world, host_seed, *host, times);

  // A pool address whose first lease slot's occupancy draw is the last value
  // below the subscription ratio, and whose leaseholder is online then.
  bool found = false;
  for (const inet::AsInfo& as_info : world.ases()) {
    if (as_info.filters_icmp) continue;
    for (std::size_t i = 0; i < as_info.prefixes.size() && !found; ++i) {
      if (as_info.roles[i] != inet::PrefixRole::kDynamicPool) continue;
      for (std::uint64_t offset = 0; offset < 256 && !found; ++offset) {
        const net::Ipv4Address address = as_info.prefixes[i].address_at(offset);
        const std::uint64_t seed =
            seed_for_draw(address, 0xd1eaf, 0, last_draw_below(subscription));
        if (!oracle_responds(world, seed, address, net::SimTime(0))) continue;
        found = true;
        expect_responds_matches(world, seed, address, times);
      }
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace reuse::census
