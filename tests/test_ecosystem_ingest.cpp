// Equivalence proof for the blocked ecosystem ingest. The oracle below is the
// per-(feed, event) loop EcosystemSimulator::ingest ran before it walked
// per-category blocks: every feed visits every event, asks category_matches,
// keeps its live set in an unordered_map and draws pickups with
// bernoulli(p). It runs the full catalogue over a small world in one pass;
// the simulator must reproduce its listings, observed days, per-list health,
// pickups and carry for every chunking of the stream, under a fault plan
// that hits outage, quarantine and salvage, at 1 and 8 jobs, and when
// resumed from a mid-run carry.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blocklist/catalogue.h"
#include "blocklist/ecosystem.h"
#include "blocklist/parse.h"
#include "internet/abuse.h"
#include "internet/config.h"
#include "internet/world.h"
#include "netbase/rng.h"
#include "netbase/thread_pool.h"
#include "simnet/faults.h"

namespace reuse::blocklist {
namespace {

// --- the oracle: the replaced per-(feed, event) loop ------------------------

struct OracleFeed {
  SnapshotStore store;
  FeedHealth health;
  std::uint64_t events_picked_up = 0;
  net::Rng rng;
  std::unordered_map<net::Ipv4Address, std::int64_t> live;
  std::size_t next_snapshot = 0;
};

std::int64_t oracle_retention(net::Rng& rng, const EcosystemConfig& config,
                              const BlocklistInfo& info) {
  const double mean_days =
      rng.bernoulli(config.short_retention_fraction)
          ? config.short_retention_mean_days
          : info.removal_mean_days * config.long_retention_factor;
  return static_cast<std::int64_t>(rng.exponential(mean_days * 86400.0));
}

void oracle_snapshot(OracleFeed& feed, std::size_t i, const BlocklistInfo& info,
                     std::int64_t day, sim::FaultInjector* faults) {
  const std::int64_t moment = day * 86400;
  for (auto it = feed.live.begin(); it != feed.live.end();) {
    it = it->second <= moment ? feed.live.erase(it) : std::next(it);
  }
  if (faults != nullptr && faults->feed_snapshot_missing(i, day)) {
    ++feed.health.days_missed;
    return;
  }
  if (faults != nullptr && faults->feed_corrupted(i, day)) {
    std::vector<net::Ipv4Address> addresses;
    for (const auto& [address, expiry] : feed.live) {
      addresses.push_back(address);
    }
    std::sort(addresses.begin(), addresses.end());
    std::string text;
    for (const net::Ipv4Address address : addresses) {
      text += address.to_string();
      text += '\n';
    }
    text = faults->corrupt_feed_text(std::move(text), i, day);
    const ParsedList parsed = parse_list_text(text);
    feed.health.lines_skipped += parsed.skipped_lines;
    if (parsed.skipped_lines * 10 > feed.live.size()) {
      ++feed.health.days_quarantined;
      return;
    }
    for (const net::Ipv4Address address : parsed.addresses) {
      feed.store.record(info.id, address, day);
    }
    feed.store.mark_observed(info.id, day);
    ++feed.health.days_salvaged;
    feed.health.entries_discarded += feed.live.size() - parsed.addresses.size();
    return;
  }
  for (const auto& [address, expiry] : feed.live) {
    feed.store.record(info.id, address, day);
  }
  feed.store.mark_observed(info.id, day);
  ++feed.health.days_recorded;
}

/// What one run (oracle or simulator) produced: its result and carry.
struct IngestRun {
  EcosystemResult result;
  EcosystemCarry carry;
};

IngestRun run_oracle(std::span<const BlocklistInfo> catalogue,
                     std::span<const inet::AbuseEvent> events,
                     const EcosystemConfig& config,
                     sim::FaultInjector* faults) {
  std::vector<std::int64_t> snapshot_days;
  for (const net::TimeWindow& period : config.periods) {
    for (std::int64_t day = period.begin.day(); day < period.end.day(); ++day) {
      snapshot_days.push_back(day);
    }
  }
  std::sort(snapshot_days.begin(), snapshot_days.end());

  IngestRun run;
  EcosystemStats& stats = run.result.stats;
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    const BlocklistInfo& info = catalogue[i];
    OracleFeed feed;
    feed.health.list = info.id;
    feed.rng = net::substream(config.seed, /*feed stream salt=*/0xfeedULL, i);
    for (const inet::AbuseEvent& event : events) {
      while (feed.next_snapshot < snapshot_days.size() &&
             snapshot_days[feed.next_snapshot] * 86400 <= event.time_seconds) {
        oracle_snapshot(feed, i, info, snapshot_days[feed.next_snapshot++],
                        faults);
      }
      if (!category_matches(info.category, event.category)) continue;
      const auto existing = feed.live.find(event.source);
      if (existing != feed.live.end() &&
          existing->second > event.time_seconds) {
        if (feed.rng.bernoulli(config.reobservation_extend_rate)) {
          const std::int64_t retention =
              oracle_retention(feed.rng, config, info);
          existing->second =
              std::max(existing->second, event.time_seconds + retention);
        }
        continue;
      }
      if (!feed.rng.bernoulli(info.pickup_rate)) continue;
      ++feed.events_picked_up;
      feed.live[event.source] =
          event.time_seconds + oracle_retention(feed.rng, config, info);
    }
    while (feed.next_snapshot < snapshot_days.size()) {
      oracle_snapshot(feed, i, info, snapshot_days[feed.next_snapshot++],
                      faults);
    }

    FeedCarry cursor;
    cursor.rng_state = feed.rng.state();
    cursor.live.assign(feed.live.begin(), feed.live.end());
    std::sort(cursor.live.begin(), cursor.live.end());
    cursor.events_picked_up = feed.events_picked_up;
    run.carry.feeds.push_back(std::move(cursor));

    stats.per_list.push_back(feed.health);
    stats.events_picked_up += feed.events_picked_up;
    stats.snapshots_missed +=
        static_cast<std::uint64_t>(feed.health.days_missed);
    stats.feeds_quarantined +=
        static_cast<std::uint64_t>(feed.health.days_quarantined);
    stats.feeds_salvaged +=
        static_cast<std::uint64_t>(feed.health.days_salvaged);
    stats.entries_discarded += feed.health.entries_discarded;
    stats.feed_lines_skipped += feed.health.lines_skipped;
    run.result.store.merge_from(feed.store);
  }
  stats.events_seen = events.size();
  stats.snapshots_taken = snapshot_days.size();
  return run;
}

// --- shared inputs -----------------------------------------------------------

/// The full catalogue over a small world's abuse stream. The event rates
/// are a tenth of the defaults, which keeps the stream (~71K events) small
/// enough for the sanitizer builds and still over four ingest blocks long,
/// so every chunking below crosses a seam.
struct Inputs {
  std::vector<BlocklistInfo> catalogue;
  std::vector<inet::AbuseEvent> events;
};

const Inputs& inputs() {
  static const Inputs shared = [] {
    Inputs in;
    const inet::World world(inet::test_world_config(5));
    in.catalogue = build_catalogue(5);
    inet::AbuseGenConfig abuse;
    abuse.window = net::TimeWindow{net::SimTime(-15 * 86400),
                                   net::SimTime(104 * 86400)};
    abuse.seed = 5 ^ 0xab5eULL;
    abuse.user_events_per_day = 0.08;
    abuse.server_events_per_day = 0.3;
    in.events = inet::generate_abuse(world, abuse);
    return in;
  }();
  return shared;
}

/// The ingest block size, as ecosystem.cpp's kBlockEvents: the chunkings
/// below put single-event chunks on its seam.
constexpr std::size_t kBlockEvents = std::size_t{1} << 14;

EcosystemConfig eco_config() {
  EcosystemConfig config;
  config.seed = 5;
  config.periods = paper_periods();
  return config;
}

/// Outage and corruption over both collection periods: enough (list, day)
/// dumps that missed, quarantined and salvaged days all occur.
sim::FaultPlan feed_fault_plan() {
  sim::FaultPlan plan;
  plan.seed = 21;
  plan.episodes.push_back(sim::FaultEpisode{
      sim::FaultKind::kFeedOutage,
      net::TimeWindow{net::SimTime(5 * 86400), net::SimTime(12 * 86400)}, 0.3,
      1});
  plan.episodes.push_back(sim::FaultEpisode{
      sim::FaultKind::kFeedCorruption,
      net::TimeWindow{net::SimTime(20 * 86400), net::SimTime(70 * 86400)}, 0.2,
      2});
  return plan;
}

const IngestRun& clean_oracle() {
  static const IngestRun run = run_oracle(inputs().catalogue, inputs().events,
                                          eco_config(), nullptr);
  return run;
}

// --- comparisons -------------------------------------------------------------

using Interval = net::IntervalSet::Interval;

std::vector<std::tuple<ListId, std::uint32_t, std::vector<Interval>>>
listings_of(const SnapshotStore& store) {
  std::vector<std::tuple<ListId, std::uint32_t, std::vector<Interval>>> out;
  store.for_each_listing([&](ListId list, net::Ipv4Address address,
                             const net::IntervalSet& presence) {
    out.emplace_back(list, address.value(), presence.intervals());
  });
  return out;
}

std::vector<std::pair<ListId, std::vector<Interval>>> observed_of(
    const SnapshotStore& store) {
  std::vector<std::pair<ListId, std::vector<Interval>>> out;
  store.for_each_observed([&](ListId list, const net::IntervalSet& days) {
    out.emplace_back(list, days.intervals());
  });
  return out;
}

void expect_same_products(const EcosystemResult& got,
                          const EcosystemResult& want) {
  const auto got_listings = listings_of(got.store);
  const auto want_listings = listings_of(want.store);
  EXPECT_EQ(got_listings.size(), want_listings.size());
  EXPECT_TRUE(got_listings == want_listings);
  EXPECT_TRUE(observed_of(got.store) == observed_of(want.store));
  EXPECT_EQ(got.stats.per_list, want.stats.per_list);
  EXPECT_EQ(got.stats.events_seen, want.stats.events_seen);
  EXPECT_EQ(got.stats.events_picked_up, want.stats.events_picked_up);
  EXPECT_EQ(got.stats.snapshots_taken, want.stats.snapshots_taken);
  EXPECT_EQ(got.stats.snapshots_missed, want.stats.snapshots_missed);
  EXPECT_EQ(got.stats.feeds_quarantined, want.stats.feeds_quarantined);
  EXPECT_EQ(got.stats.feeds_salvaged, want.stats.feeds_salvaged);
  EXPECT_EQ(got.stats.entries_discarded, want.stats.entries_discarded);
  EXPECT_EQ(got.stats.feed_lines_skipped, want.stats.feed_lines_skipped);
}

void expect_same_carry(const EcosystemCarry& got, const EcosystemCarry& want) {
  ASSERT_EQ(got.feeds.size(), want.feeds.size());
  for (std::size_t i = 0; i < got.feeds.size(); ++i) {
    EXPECT_EQ(got.feeds[i].rng_state, want.feeds[i].rng_state) << "feed " << i;
    EXPECT_TRUE(got.feeds[i].live == want.feeds[i].live) << "feed " << i;
    EXPECT_EQ(got.feeds[i].events_picked_up, want.feeds[i].events_picked_up)
        << "feed " << i;
  }
}

/// Consecutive slices of the abuse stream, fed to ingest() in order.
using Chunks = std::vector<std::span<const inet::AbuseEvent>>;

/// Runs the simulator over `chunks` and returns its result and carry.
IngestRun run_simulator(const Chunks& chunks, const EcosystemConfig& config,
                        sim::FaultInjector* faults, net::ThreadPool* pool) {
  EcosystemSimulator simulator(inputs().catalogue, config, faults, pool);
  for (const std::span<const inet::AbuseEvent> chunk : chunks) {
    simulator.ingest(chunk);
  }
  IngestRun run;
  run.result = simulator.finish(&run.carry);
  return run;
}

// --- cases -------------------------------------------------------------------

TEST(EcosystemIngest, WholeStreamMatchesOracle) {
  const std::span<const inet::AbuseEvent> all(inputs().events);
  ASSERT_GT(all.size(), 2 * kBlockEvents);
  const IngestRun& want = clean_oracle();
  ASSERT_GT(want.result.stats.events_picked_up, 0u);
  ASSERT_GT(want.result.store.listing_count(), 0u);

  const IngestRun got = run_simulator({all}, eco_config(), nullptr, nullptr);
  expect_same_products(got.result, want.result);
  expect_same_carry(got.carry, want.carry);
}

TEST(EcosystemIngest, SnapshotsAfterTheStreamEndsMatchOracle) {
  // The collection runs 16 days past the last event, so finish() takes
  // those snapshots (and their expiry sweeps) with no event to wait for.
  const std::span<const inet::AbuseEvent> all(inputs().events);
  EcosystemConfig config = eco_config();
  config.periods.back().end = net::SimTime(120 * 86400);
  const IngestRun want = run_oracle(inputs().catalogue, all, config, nullptr);

  const IngestRun got = run_simulator({all}, config, nullptr, nullptr);
  expect_same_products(got.result, want.result);
  expect_same_carry(got.carry, want.carry);
}

TEST(EcosystemIngest, SeventeenDayChunksMatchOracle) {
  const std::vector<inet::AbuseEvent>& events = inputs().events;
  Chunks chunks;
  auto begin = events.begin();
  for (std::int64_t edge = -15 * 86400 + 17 * 86400; begin != events.end();
       edge += 17 * 86400) {
    const auto end = std::lower_bound(
        begin, events.end(), edge,
        [](const inet::AbuseEvent& event, std::int64_t t) {
          return event.time_seconds < t;
        });
    chunks.emplace_back(begin, end);
    begin = end;
  }
  ASSERT_GT(chunks.size(), 5u);

  const IngestRun got = run_simulator(chunks, eco_config(), nullptr, nullptr);
  expect_same_products(got.result, clean_oracle().result);
  expect_same_carry(got.carry, clean_oracle().carry);
}

TEST(EcosystemIngest, SingleEventChunksOnABlockSeamAndAnEmptyChunkMatchOracle) {
  const std::span<const inet::AbuseEvent> all(inputs().events);
  ASSERT_GT(all.size(), 2 * kBlockEvents);
  // One chunk up to just short of the first seam, single events across it,
  // an empty chunk, then the rest in one chunk that crosses seams of its own.
  Chunks chunks;
  chunks.push_back(all.subspan(0, kBlockEvents - 3));
  for (std::size_t e = kBlockEvents - 3; e < kBlockEvents + 3; ++e) {
    chunks.push_back(all.subspan(e, 1));
  }
  chunks.emplace_back();
  chunks.push_back(all.subspan(kBlockEvents + 3));

  const IngestRun got = run_simulator(chunks, eco_config(), nullptr, nullptr);
  expect_same_products(got.result, clean_oracle().result);
  expect_same_carry(got.carry, clean_oracle().carry);
}

TEST(EcosystemIngest, FaultPlanMatchesOracleAtOneAndEightJobs) {
  const std::span<const inet::AbuseEvent> all(inputs().events);
  sim::FaultInjector oracle_faults(feed_fault_plan());
  const IngestRun want =
      run_oracle(inputs().catalogue, all, eco_config(), &oracle_faults);
  ASSERT_GT(want.result.stats.snapshots_missed, 0u);
  ASSERT_GT(want.result.stats.feeds_quarantined, 0u);
  ASSERT_GT(want.result.stats.feeds_salvaged, 0u);

  net::ThreadPool pool(8);
  const std::array<net::ThreadPool*, 2> pools = {nullptr, &pool};
  for (net::ThreadPool* jobs : pools) {
    SCOPED_TRACE(jobs == nullptr ? "jobs 1" : "jobs 8");
    sim::FaultInjector faults(feed_fault_plan());
    // 9001-event chunks: shorter than a block, so every chunk ends in a
    // partial block.
    Chunks chunks;
    for (std::size_t e = 0; e < all.size(); e += 9001) {
      const std::size_t size = std::min<std::size_t>(9001, all.size() - e);
      chunks.push_back(all.subspan(e, size));
    }
    const IngestRun got = run_simulator(chunks, eco_config(), &faults, jobs);
    expect_same_products(got.result, want.result);
    expect_same_carry(got.carry, want.carry);
    EXPECT_EQ(faults.stats(), oracle_faults.stats());
  }
}

TEST(EcosystemIngest, ResumeFromMidRunCarryMatchesOracle) {
  // The base collects through day 80; the extension continues the second
  // period to day 104. Base and tail split the stream at the base's
  // collection end, as the scenario's resume does.
  const std::vector<inet::AbuseEvent>& events = inputs().events;
  EcosystemConfig base_config = eco_config();
  base_config.periods.back().end = net::SimTime(80 * 86400);
  const EcosystemConfig extended = eco_config();
  const auto split = std::lower_bound(
      events.begin(), events.end(), std::int64_t{80 * 86400},
      [](const inet::AbuseEvent& event, std::int64_t t) {
        return event.time_seconds < t;
      });
  const std::span<const inet::AbuseEvent> head(events.begin(), split);
  const std::span<const inet::AbuseEvent> tail(split, events.end());
  ASSERT_GT(tail.size(), 0u);

  sim::FaultInjector oracle_base_faults(feed_fault_plan());
  const IngestRun want_base =
      run_oracle(inputs().catalogue, head, base_config, &oracle_base_faults);
  sim::FaultInjector oracle_faults(feed_fault_plan());
  const IngestRun want =
      run_oracle(inputs().catalogue, events, extended, &oracle_faults);

  net::ThreadPool pool(8);
  const std::array<net::ThreadPool*, 2> pools = {nullptr, &pool};
  for (net::ThreadPool* jobs : pools) {
    SCOPED_TRACE(jobs == nullptr ? "jobs 1" : "jobs 8");
    sim::FaultInjector base_faults(feed_fault_plan());
    const IngestRun base =
        run_simulator({head}, base_config, &base_faults, jobs);
    expect_same_products(base.result, want_base.result);
    expect_same_carry(base.carry, want_base.carry);

    sim::FaultInjector tail_faults(feed_fault_plan());
    EcosystemSimulator simulator(inputs().catalogue, extended, &tail_faults,
                                 jobs);
    ASSERT_TRUE(simulator.resume_from(base.carry, base.result.stats,
                                      base.result.stats.snapshots_taken));
    simulator.ingest(tail);
    IngestRun resumed;
    resumed.result = simulator.finish(&resumed.carry);

    // Fold the tail into the base, as the scenario's resume does.
    EcosystemResult whole;
    whole.store.merge_from(base.result.store);
    whole.store.merge_from(resumed.result.store);
    whole.stats = resumed.result.stats;
    whole.stats.events_seen += base.result.stats.events_seen;
    expect_same_products(whole, want.result);
    expect_same_carry(resumed.carry, want.carry);
    EXPECT_EQ(base_faults.stats().feeds_corrupted +
                  tail_faults.stats().feeds_corrupted,
              oracle_faults.stats().feeds_corrupted);
    EXPECT_EQ(base_faults.stats().feed_snapshots_suppressed +
                  tail_faults.stats().feed_snapshots_suppressed,
              oracle_faults.stats().feed_snapshots_suppressed);
  }
}

}  // namespace
}  // namespace reuse::blocklist
