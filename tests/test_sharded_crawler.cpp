// The sharded crawl's determinism contract (crawler/sharded.h): the shard
// count is configuration, every pool size runs the same K shard
// simulations, and the index-ordered harvest makes the merged products
// byte-identical whether the shards ran serially or on 2 or 8 workers —
// with and without fault injection, where the summed per-shard ledgers
// must still reconcile exactly against the consumer-side counters. Shards
// replicate one shared overlay; their harvest must equal that of shards
// that each build their own DhtNetwork from the config.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <unordered_set>
#include <utility>

#include "crawler/sharded.h"
#include "dht/network.h"
#include "internet/world.h"
#include "netbase/thread_pool.h"
#include "simnet/event_queue.h"
#include "simnet/faults.h"

namespace reuse::crawler {
namespace {

inet::WorldConfig tiny_world_config() {
  inet::WorldConfig config = inet::test_world_config(11);
  config.as_count = 40;
  return config;
}

ShardedCrawlConfig tiny_crawl_config(bool chaos) {
  ShardedCrawlConfig config;
  config.base.seed = 11 ^ 0xc4a3ULL;
  config.dht.seed = 11 ^ 0xd47ULL;
  config.window = net::TimeWindow{net::SimTime(0), net::SimTime(86400)};
  config.shard_count = 4;
  if (chaos) {
    config.faults.seed = 77;
    // A bootstrap outage over the crawl start (the watchdog must carry
    // discovery through it) and a loss burst mid-crawl.
    config.faults.episodes.push_back(sim::FaultEpisode{
        sim::FaultKind::kBootstrapOutage,
        net::TimeWindow{net::SimTime(0), net::SimTime(1200)}, 1.0, 1});
    config.faults.episodes.push_back(sim::FaultEpisode{
        sim::FaultKind::kBurstLoss,
        net::TimeWindow{net::SimTime(20000), net::SimTime(30000)}, 0.5, 2});
  }
  return config;
}

ShardedCrawlResult run_with_jobs(const inet::World& world, bool chaos,
                                 std::size_t jobs) {
  std::optional<net::ThreadPool> pool;
  if (jobs > 1) pool.emplace(jobs);
  return run_sharded_crawl(world, tiny_crawl_config(chaos),
                           pool.has_value() ? &*pool : nullptr);
}

void expect_identical(const ShardedCrawlResult& a, const ShardedCrawlResult& b,
                      const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.stats.get_nodes_sent, b.stats.get_nodes_sent);
  EXPECT_EQ(a.stats.get_nodes_responses, b.stats.get_nodes_responses);
  EXPECT_EQ(a.stats.pings_sent, b.stats.pings_sent);
  EXPECT_EQ(a.stats.ping_responses, b.stats.ping_responses);
  EXPECT_EQ(a.stats.endpoints_discovered, b.stats.endpoints_discovered);
  EXPECT_EQ(a.stats.endpoints_skipped_restricted,
            b.stats.endpoints_skipped_restricted);
  EXPECT_EQ(a.stats.verification_rounds, b.stats.verification_rounds);
  EXPECT_EQ(a.stats.bootstrap_retries, b.stats.bootstrap_retries);
  EXPECT_EQ(a.stats.bootstrap_recoveries, b.stats.bootstrap_recoveries);
  EXPECT_EQ(a.stats.verification_retries, b.stats.verification_retries);
  EXPECT_EQ(a.stats.verification_recoveries, b.stats.verification_recoveries);
  EXPECT_EQ(a.distinct_node_ids, b.distinct_node_ids);
  EXPECT_EQ(a.dht_peers, b.dht_peers);
  EXPECT_EQ(a.dht_addresses, b.dht_addresses);
  EXPECT_EQ(a.nated, b.nated);
  EXPECT_EQ(a.transport_fault_request_drops, b.transport_fault_request_drops);
  EXPECT_EQ(a.transport_fault_response_drops,
            b.transport_fault_response_drops);
  EXPECT_EQ(a.fault_stats, b.fault_stats);
  ASSERT_EQ(a.evidence.size(), b.evidence.size());
  for (const auto& [address, evidence] : a.evidence) {
    const auto it = b.evidence.find(address);
    ASSERT_NE(it, b.evidence.end()) << address.to_string();
    EXPECT_EQ(evidence.ports, it->second.ports) << address.to_string();
    EXPECT_EQ(evidence.max_concurrent_users, it->second.max_concurrent_users)
        << address.to_string();
    EXPECT_EQ(evidence.verification_rounds, it->second.verification_rounds)
        << address.to_string();
    EXPECT_EQ(evidence.first_seen.seconds(), it->second.first_seen.seconds())
        << address.to_string();
    EXPECT_EQ(evidence.last_seen.seconds(), it->second.last_seen.seconds())
        << address.to_string();
  }
}

TEST(ShardedCrawl, ByteIdenticalAcrossJobCounts) {
  const inet::World world(tiny_world_config());
  const ShardedCrawlResult serial = run_with_jobs(world, /*chaos=*/false, 1);
  // A healthy crawl discovers something; an empty result would make the
  // equality checks below vacuous.
  ASSERT_GT(serial.evidence.size(), 0u);
  ASSERT_GT(serial.stats.pings_sent, 0u);
  EXPECT_EQ(serial.fault_stats.total(), 0u);
  const ShardedCrawlResult two = run_with_jobs(world, /*chaos=*/false, 2);
  const ShardedCrawlResult eight = run_with_jobs(world, /*chaos=*/false, 8);
  expect_identical(serial, two, "jobs 1 vs 2");
  expect_identical(serial, eight, "jobs 1 vs 8");
}

TEST(ShardedCrawl, ChaosByteIdenticalAcrossJobCountsAndLedgerReconciles) {
  const inet::World world(tiny_world_config());
  const ShardedCrawlResult serial = run_with_jobs(world, /*chaos=*/true, 1);
  // The plan must actually have injected, or this test is the fault-free
  // one in disguise.
  ASSERT_GT(serial.fault_stats.total(), 0u);
  const ShardedCrawlResult two = run_with_jobs(world, /*chaos=*/true, 2);
  const ShardedCrawlResult eight = run_with_jobs(world, /*chaos=*/true, 8);
  expect_identical(serial, two, "jobs 1 vs 2");
  expect_identical(serial, eight, "jobs 1 vs 8");

  // Exact ledger reconciliation across the summed per-shard injectors: every
  // datagram the transports counted as fault-lost is accounted for by kind
  // (see analysis/degradation.h).
  for (const ShardedCrawlResult* result : {&serial, &two, &eight}) {
    EXPECT_EQ(result->transport_fault_request_drops,
              result->fault_stats.burst_request_drops +
                  result->fault_stats.bootstrap_blackholes);
    EXPECT_EQ(result->transport_fault_response_drops,
              result->fault_stats.burst_response_drops);
  }
}

TEST(ShardedCrawl, FaultFreeResultMatchesEmptyPlanResult) {
  // An empty plan must be byte-identical to no plan at all — the shards
  // skip injector construction entirely, and attaching one with no
  // episodes draws nothing.
  const inet::World world(tiny_world_config());
  ShardedCrawlConfig with_empty_plan = tiny_crawl_config(/*chaos=*/false);
  with_empty_plan.faults.seed = 999;  // an empty plan's seed is irrelevant
  const ShardedCrawlResult a =
      run_sharded_crawl(world, tiny_crawl_config(false), nullptr);
  const ShardedCrawlResult b =
      run_sharded_crawl(world, with_empty_plan, nullptr);
  expect_identical(a, b, "no plan vs empty plan");
}

TEST(ShardedCrawl, ShardCountChangesProductsButNotTheirShape) {
  // The shard count is *configuration* (fingerprinted): a different K is a
  // different measurement, not a scheduling choice. Sanity-check that both
  // still produce a populated, internally consistent harvest.
  const inet::World world(tiny_world_config());
  ShardedCrawlConfig two_shards = tiny_crawl_config(/*chaos=*/false);
  two_shards.shard_count = 2;
  const ShardedCrawlResult k2 = run_sharded_crawl(world, two_shards, nullptr);
  const ShardedCrawlResult k4 =
      run_sharded_crawl(world, tiny_crawl_config(false), nullptr);
  EXPECT_GT(k2.evidence.size(), 0u);
  EXPECT_GT(k4.evidence.size(), 0u);
  for (const auto& [address, users] : k4.nated) {
    const auto it = k4.evidence.find(address);
    ASSERT_NE(it, k4.evidence.end());
    EXPECT_EQ(users, it->second.max_concurrent_users);
    EXPECT_GE(users, 2u);
  }
}

/// The reference: every shard builds its own DhtNetwork from the config,
/// and the harvests merge in shard order. run_sharded_crawl, whose shards
/// replicate one shared overlay, must match it byte for byte.
ShardedCrawlResult independently_built_shards(
    const inet::World& world, const ShardedCrawlConfig& config) {
  ShardedCrawlResult result;
  std::unordered_set<dht::NodeId> node_ids;
  for (std::size_t shard = 0; shard < config.shard_count; ++shard) {
    sim::EventQueue events;
    dht::DhtNetwork network(world, events, config.dht);
    std::optional<sim::FaultInjector> injector;
    if (!config.faults.empty()) {
      sim::FaultPlan plan = config.faults;
      plan.seed ^= 0x9e3779b97f4a7c15ULL * (shard + 1);
      injector.emplace(std::move(plan));
      injector->begin_stage(sim::FaultStage::kCrawl);
      injector->designate_bootstrap(network.bootstrap_endpoint());
      network.transport().attach_faults(&*injector);
    }
    network.schedule_churn(config.window);
    CrawlerConfig crawl_config = config.base;
    crawl_config.partition_count = config.shard_count;
    crawl_config.partition_index = shard;
    crawl_config.seed = config.base.seed ^ (0x9e3779b9ULL * (shard + 1));
    Crawler crawler(network.transport(), events, network.bootstrap_endpoint(),
                    crawl_config);
    crawler.start(config.window);
    events.run_until(config.window.end + net::Duration::minutes(10));

    const CrawlStats& s = crawler.stats();
    CrawlStats& into = result.stats;
    into.get_nodes_sent += s.get_nodes_sent;
    into.get_nodes_responses += s.get_nodes_responses;
    into.pings_sent += s.pings_sent;
    into.ping_responses += s.ping_responses;
    into.endpoints_discovered += s.endpoints_discovered;
    into.endpoints_skipped_restricted += s.endpoints_skipped_restricted;
    into.verification_rounds += s.verification_rounds;
    into.bootstrap_retries += s.bootstrap_retries;
    into.bootstrap_recoveries += s.bootstrap_recoveries;
    into.verification_retries += s.verification_retries;
    into.verification_recoveries += s.verification_recoveries;
    if (injector.has_value()) {
      const sim::FaultStats f = injector->stats();
      result.fault_stats.burst_request_drops += f.burst_request_drops;
      result.fault_stats.burst_response_drops += f.burst_response_drops;
      result.fault_stats.bootstrap_blackholes += f.bootstrap_blackholes;
    }
    result.transport_fault_request_drops +=
        network.transport().stats().requests_lost_fault;
    result.transport_fault_response_drops +=
        network.transport().stats().responses_lost_fault;
    result.evidence.insert(crawler.discovered().begin(),
                           crawler.discovered().end());
    node_ids.insert(crawler.node_ids().begin(), crawler.node_ids().end());
    if (shard == 0) {
      result.dht_peers = network.peer_count();
      result.dht_addresses = network.distinct_addresses();
    }
  }
  result.distinct_node_ids = node_ids.size();
  for (const auto& [address, evidence] : result.evidence) {
    if (evidence.is_nated()) {
      result.nated.emplace_back(address, evidence.max_concurrent_users);
    }
  }
  std::sort(result.nated.begin(), result.nated.end());
  return result;
}

TEST(ShardedCrawl, SharedOverlayMatchesIndependentlyBuiltShards) {
  const inet::World world(tiny_world_config());
  const ShardedCrawlResult reference =
      independently_built_shards(world, tiny_crawl_config(/*chaos=*/false));
  ASSERT_GT(reference.evidence.size(), 0u);
  expect_identical(reference, run_with_jobs(world, /*chaos=*/false, 1),
                   "independent vs shared, jobs 1");
  expect_identical(reference, run_with_jobs(world, /*chaos=*/false, 8),
                   "independent vs shared, jobs 8");
}

TEST(ShardedCrawl, ChaosSharedOverlayMatchesIndependentlyBuiltShards) {
  const inet::World world(tiny_world_config());
  const ShardedCrawlResult reference =
      independently_built_shards(world, tiny_crawl_config(/*chaos=*/true));
  ASSERT_GT(reference.fault_stats.total(), 0u);
  expect_identical(reference, run_with_jobs(world, /*chaos=*/true, 1),
                   "independent vs shared, jobs 1");
  expect_identical(reference, run_with_jobs(world, /*chaos=*/true, 8),
                   "independent vs shared, jobs 8");
}

TEST(ShardedCrawl, SmallOverlayAtEightJobsMatchesSerial) {
  // Sized for a Debug ThreadSanitizer build: eight pool workers read one
  // overlay while each mutates only its own replica, with faults on.
  inet::WorldConfig world_config = tiny_world_config();
  world_config.as_count = 5;
  const inet::World world(world_config);
  ShardedCrawlConfig config = tiny_crawl_config(/*chaos=*/true);
  config.shard_count = 8;
  net::ThreadPool pool(8);
  const ShardedCrawlResult serial = run_sharded_crawl(world, config, nullptr);
  ASSERT_GT(serial.evidence.size(), 0u);
  ASSERT_GT(serial.stats.pings_sent, 0u);
  ASSERT_GT(serial.fault_stats.total(), 0u);
  expect_identical(serial, run_sharded_crawl(world, config, &pool),
                   "jobs 1 vs 8");
  expect_identical(serial, independently_built_shards(world, config),
                   "shared vs independent");
}

}  // namespace
}  // namespace reuse::crawler
