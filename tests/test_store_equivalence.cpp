// Equivalence proof for the compressed presence store: the columnar
// SnapshotStore must answer every query exactly like the naive structure it
// replaced — one IntervalSet per (list, address) pair in a map. The oracle
// here *is* that old structure, reimplemented in ~30 lines; fuzzed workloads
// (point records, spans, duplicates, interleaved lists) drive both and
// compare every read surface. The scenario products built on the store are
// compared across --jobs values and under a chaos plan by the equivalence
// lattice (test_equivalence.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "blocklist/catalogue.h"
#include "blocklist/ecosystem.h"
#include "blocklist/store.h"
#include "internet/abuse.h"
#include "internet/config.h"
#include "internet/world.h"
#include "netbase/interval_set.h"
#include "netbase/rng.h"
#include "simnet/faults.h"

namespace reuse::blocklist {
namespace {

/// The pre-rebuild store layout: map keyed by (list, address) holding one
/// IntervalSet per listing. Every query the SnapshotStore answers is
/// re-derived from first principles here.
class OracleStore {
 public:
  void record_span(ListId list, net::Ipv4Address address, std::int64_t begin,
                   std::int64_t end) {
    if (begin >= end) return;
    presence_[{list, address.value()}].insert(begin, end);
  }

  [[nodiscard]] net::IntervalSet presence(ListId list,
                                          net::Ipv4Address address) const {
    const auto it = presence_.find({list, address.value()});
    return it == presence_.end() ? net::IntervalSet{} : it->second;
  }

  [[nodiscard]] std::size_t listing_count() const { return presence_.size(); }

  [[nodiscard]] std::vector<net::Ipv4Address> sorted_addresses() const {
    std::vector<net::Ipv4Address> out;
    for (const auto& [key, intervals] : presence_) {
      out.emplace_back(key.second);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  [[nodiscard]] std::vector<net::Ipv4Address> addresses_of(ListId list) const {
    std::vector<net::Ipv4Address> out;
    for (const auto& [key, intervals] : presence_) {
      if (key.first == list) out.emplace_back(key.second);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Listings in ascending (list, address) order — for_each_listing's
  /// documented iteration order.
  [[nodiscard]] std::vector<std::pair<std::pair<ListId, std::uint32_t>,
                                      net::IntervalSet>>
  listings() const {
    return {presence_.begin(), presence_.end()};
  }

 private:
  std::map<std::pair<ListId, std::uint32_t>, net::IntervalSet> presence_;
};

void expect_equivalent(const SnapshotStore& store, const OracleStore& oracle) {
  EXPECT_EQ(store.listing_count(), oracle.listing_count());
  EXPECT_EQ(store.sorted_addresses(), oracle.sorted_addresses());
  EXPECT_EQ(store.address_count(), oracle.sorted_addresses().size());

  // Every listing, in order, with identical intervals.
  const auto expected = oracle.listings();
  std::size_t i = 0;
  store.for_each_listing([&](ListId list, net::Ipv4Address address,
                             const net::IntervalSet& presence) {
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(list, expected[i].first.first);
    EXPECT_EQ(address.value(), expected[i].first.second);
    EXPECT_EQ(presence.intervals(), expected[i].second.intervals());
    ++i;
  });
  EXPECT_EQ(i, expected.size());

  // Point surfaces: presence / has_listing / contains_address over both
  // recorded pairs and guaranteed misses.
  for (const auto& [key, intervals] : expected) {
    const net::Ipv4Address address(key.second);
    EXPECT_EQ(store.presence(key.first, address).intervals(),
              intervals.intervals());
    EXPECT_TRUE(store.has_listing(key.first, address));
    EXPECT_TRUE(store.contains_address(address));
    EXPECT_TRUE(store.presence(key.first + 101, address).empty());
  }
  const std::vector<net::Ipv4Address> universe = oracle.sorted_addresses();
  for (const net::Ipv4Address address : universe) {
    const net::Ipv4Address miss(address.value() ^ 0x80000001u);
    EXPECT_EQ(store.contains_address(miss),
              std::binary_search(universe.begin(), universe.end(), miss));
  }
}

TEST(StoreEquivalence, FuzzedWorkloads) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    net::Rng rng(seed);
    SnapshotStore store;
    OracleStore oracle;
    const int lists = 1 + static_cast<int>(rng.uniform(6));
    const int ops = 4000;
    for (int op = 0; op < ops; ++op) {
      const auto list = static_cast<ListId>(rng.uniform(lists));
      // Few /24s + few offsets → heavy duplicate traffic, the regime where
      // run coalescing and pending-buffer folding actually fire.
      const net::Ipv4Address address(
          0x0a000000u + (static_cast<std::uint32_t>(rng.uniform(8)) << 8) +
          static_cast<std::uint32_t>(rng.uniform(48)));
      const auto begin = static_cast<std::int64_t>(rng.uniform(400));
      const std::int64_t end =
          begin + 1 + static_cast<std::int64_t>(rng.uniform(30));
      if (rng.bernoulli(0.3)) {
        store.record(list, address, begin);
        oracle.record_span(list, address, begin, begin + 1);
      } else {
        store.record_span(list, address, begin, end);
        oracle.record_span(list, address, begin, end);
      }
      // Interleave reads mid-stream so folds happen between mutations.
      if (op % 977 == 0) {
        expect_equivalent(store, oracle);
      }
    }
    expect_equivalent(store, oracle);

    // addresses_of / address_count_of per list.
    for (int list = 0; list < lists; ++list) {
      const auto id = static_cast<ListId>(list);
      EXPECT_EQ(store.addresses_of(id), oracle.addresses_of(id));
      EXPECT_EQ(store.address_count_of(id), oracle.addresses_of(id).size());
    }

    // blocklisted_slash24s covers exactly the /24s of the address universe.
    const net::PrefixSet slash24s = store.blocklisted_slash24s();
    for (const net::Ipv4Address address : oracle.sorted_addresses()) {
      EXPECT_TRUE(slash24s.contains_address(address));
    }
  }
}

// Streaming the abuse events through EcosystemSimulator in slices must be
// byte-equivalent to the one-shot simulate_ecosystem over the materialized
// stream — the scenario runs streamed (flat peak RSS), the unit tests and
// older callers run materialized, and both must describe the same ecosystem.
TEST(StoreEquivalence, StreamedEcosystemMatchesMaterialized) {
  const inet::World world(inet::test_world_config(5));
  const std::vector<BlocklistInfo> catalogue = build_catalogue(5);

  EcosystemConfig config;
  config.seed = 5;
  config.periods = paper_periods();

  inet::AbuseGenConfig abuse;
  abuse.window = net::TimeWindow{net::SimTime(-15 * 86400),
                                 net::SimTime(104 * 86400)};
  abuse.seed = 5 ^ 0xab5eULL;

  const std::vector<inet::AbuseEvent> events = generate_abuse(world, abuse);
  const EcosystemResult materialized =
      simulate_ecosystem(catalogue, events, config);

  // Re-assemble the stream from slices: concatenation must be exact, so
  // events can only ever fall into one slice with identical content.
  std::vector<inet::AbuseEvent> reassembled;
  EcosystemSimulator simulator(catalogue, config);
  std::size_t chunks = 0;
  inet::stream_abuse(world, abuse, /*chunk_days=*/17,
                     [&](std::span<const inet::AbuseEvent> chunk) {
                       ++chunks;
                       reassembled.insert(reassembled.end(), chunk.begin(),
                                          chunk.end());
                       simulator.ingest(chunk);
                     });
  const EcosystemResult streamed = simulator.finish();

  EXPECT_GT(chunks, 1u);
  ASSERT_EQ(reassembled.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(reassembled[i].time_seconds, events[i].time_seconds);
    EXPECT_EQ(reassembled[i].source, events[i].source);
    EXPECT_EQ(reassembled[i].actor, events[i].actor);
  }

  EXPECT_EQ(streamed.stats.events_seen, materialized.stats.events_seen);
  EXPECT_EQ(streamed.stats.events_picked_up,
            materialized.stats.events_picked_up);
  EXPECT_EQ(streamed.stats.per_list, materialized.stats.per_list);
  ASSERT_EQ(streamed.store.listing_count(), materialized.store.listing_count());
  std::vector<std::pair<std::pair<ListId, std::uint32_t>,
                        std::vector<net::IntervalSet::Interval>>>
      expected;
  materialized.store.for_each_listing(
      [&](ListId list, net::Ipv4Address address,
          const net::IntervalSet& presence) {
        expected.push_back({{list, address.value()}, presence.intervals()});
      });
  std::size_t i = 0;
  streamed.store.for_each_listing([&](ListId list, net::Ipv4Address address,
                                      const net::IntervalSet& presence) {
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(list, expected[i].first.first);
    EXPECT_EQ(address.value(), expected[i].first.second);
    EXPECT_EQ(presence.intervals(), expected[i].second);
    ++i;
  });
  EXPECT_EQ(i, expected.size());
}

TEST(StoreEquivalence, SpanAndPointRecordsCoalesceIdentically) {
  SnapshotStore by_days;
  SnapshotStore by_span;
  OracleStore oracle;
  const net::Ipv4Address address(0xc0a80101);
  // A 120-day stable listing recorded day by day must fold into the same
  // single run as one span append.
  for (std::int64_t day = 10; day < 130; ++day) {
    by_days.record(3, address, day);
  }
  by_span.record_span(3, address, 10, 130);
  oracle.record_span(3, address, 10, 130);
  expect_equivalent(by_days, oracle);
  expect_equivalent(by_span, oracle);
  EXPECT_EQ(by_days.presence(3, address).interval_count(), 1u);
}

// The ecosystem records each snapshot by walking its live table in slot
// order, so the order of record() calls must reach no product. The same
// multiset of daily records (and observed days) in two shuffled orders,
// enough to cross the 64Ki-record fold threshold several times, must give
// identical listings, observed days, listing count and memory footprint.
TEST(StoreEquivalence, RecordOrderReachesNoProduct) {
  struct Record {
    ListId list = 0;
    std::uint32_t address = 0;
    std::int64_t day = 0;
  };
  net::Rng rng(41);
  std::vector<Record> records;
  for (int k = 0; k < 250000; ++k) {
    records.push_back(
        Record{static_cast<ListId>(1 + rng.uniform(6)),
               0x0a000000u + static_cast<std::uint32_t>(rng.uniform(40000)),
               static_cast<std::int64_t>(rng.uniform(90))});
  }
  const auto fill = [&](std::uint64_t seed) {
    std::vector<Record> order = records;
    net::Rng shuffler(seed);
    shuffler.shuffle(order);
    SnapshotStore store;
    for (const Record& record : order) {
      store.record(record.list, net::Ipv4Address(record.address), record.day);
      store.mark_observed(record.list, record.day);
    }
    return store;
  };
  const SnapshotStore a = fill(1);
  const SnapshotStore b = fill(2);

  ASSERT_EQ(a.listing_count(), b.listing_count());
  EXPECT_GT(a.listing_count(), std::size_t{1} << 16);
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes());
  std::vector<std::tuple<ListId, std::uint32_t,
                         std::vector<net::IntervalSet::Interval>>>
      listings_a;
  a.for_each_listing([&](ListId list, net::Ipv4Address address,
                         const net::IntervalSet& presence) {
    listings_a.emplace_back(list, address.value(), presence.intervals());
  });
  std::size_t i = 0;
  b.for_each_listing([&](ListId list, net::Ipv4Address address,
                         const net::IntervalSet& presence) {
    ASSERT_LT(i, listings_a.size());
    EXPECT_EQ(std::get<0>(listings_a[i]), list);
    EXPECT_EQ(std::get<1>(listings_a[i]), address.value());
    EXPECT_EQ(std::get<2>(listings_a[i]), presence.intervals());
    ++i;
  });
  EXPECT_EQ(i, listings_a.size());
  for (ListId list = 1; list <= 6; ++list) {
    ASSERT_NE(a.observed_days(list), nullptr);
    ASSERT_NE(b.observed_days(list), nullptr);
    EXPECT_EQ(a.observed_days(list)->intervals(),
              b.observed_days(list)->intervals());
  }
}

}  // namespace
}  // namespace reuse::blocklist
