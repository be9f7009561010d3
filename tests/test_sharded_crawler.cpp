// The sharded crawl's determinism contract (crawler/sharded.h): the shard
// count is configuration, every pool size runs the same K shard
// simulations, and the index-ordered harvest makes the merged products
// byte-identical whether the shards ran serially or on 2 or 8 workers —
// with and without fault injection, where the per-shard ledgers absorbed
// into the caller's injector must still reconcile exactly against the
// consumer-side counters. Shards replicate one shared overlay; their
// harvest must equal that of shards that each build their own DhtNetwork
// from the config, whose discoveries stay inside their own partition.
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

ShardedCrawlConfig tiny_crawl_config() {
  ShardedCrawlConfig config;
  config.base.seed = 11 ^ 0xc4a3ULL;
  config.dht.seed = 11 ^ 0xd47ULL;
  config.window = net::TimeWindow{net::SimTime(0), net::SimTime(86400)};
  config.shard_count = 4;
  return config;
}

sim::FaultPlan chaos_plan() {
  sim::FaultPlan plan;
  plan.seed = 77;
  // A bootstrap outage over the crawl start (the watchdog must carry
  // discovery through it) and a loss burst mid-crawl.
  plan.episodes.push_back(sim::FaultEpisode{
      sim::FaultKind::kBootstrapOutage,
      net::TimeWindow{net::SimTime(0), net::SimTime(1200)}, 1.0, 1});
  plan.episodes.push_back(sim::FaultEpisode{
      sim::FaultKind::kBurstLoss,
      net::TimeWindow{net::SimTime(20000), net::SimTime(30000)}, 0.5, 2});
  return plan;
}

/// A crawl's product and the ledger of the caller's injector after it.
struct Crawl {
  CrawlOutput output;
  sim::FaultStats faults;
};

/// Runs the sharded crawl on a `jobs`-worker pool (serially for 1), with an
/// injector over `plan` when one is given.
Crawl run_crawl(const inet::World& world, const ShardedCrawlConfig& config,
                const sim::FaultPlan* plan, std::size_t jobs) {
  std::optional<net::ThreadPool> pool;
  if (jobs > 1) pool.emplace(jobs);
  std::optional<sim::FaultInjector> injector;
  if (plan != nullptr) injector.emplace(*plan);
  Crawl crawl;
  crawl.output = run_sharded_crawl(
      world, config, injector.has_value() ? &*injector : nullptr,
      pool.has_value() ? &*pool : nullptr, nullptr);
  if (injector.has_value()) crawl.faults = injector->stats();
  return crawl;
}

Crawl run_with_jobs(const inet::World& world, bool chaos, std::size_t jobs) {
  const sim::FaultPlan plan = chaos ? chaos_plan() : sim::FaultPlan{};
  return run_crawl(world, tiny_crawl_config(), &plan, jobs);
}

void expect_identical(const Crawl& a_crawl, const Crawl& b_crawl,
                      const char* label) {
  SCOPED_TRACE(label);
  const CrawlOutput& a = a_crawl.output;
  const CrawlOutput& b = b_crawl.output;
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
  EXPECT_EQ(a.nated_set, b.nated_set);
  EXPECT_EQ(a.transport_fault_request_drops, b.transport_fault_request_drops);
  EXPECT_EQ(a.transport_fault_response_drops,
            b.transport_fault_response_drops);
  EXPECT_EQ(a_crawl.faults, b_crawl.faults);
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
  const Crawl serial = run_with_jobs(world, /*chaos=*/false, 1);
  // A healthy crawl discovers something; an empty result would make the
  // equality checks below vacuous.
  ASSERT_GT(serial.output.evidence.size(), 0u);
  ASSERT_GT(serial.output.stats.pings_sent, 0u);
  EXPECT_EQ(serial.faults.total(), 0u);
  const Crawl two = run_with_jobs(world, /*chaos=*/false, 2);
  const Crawl eight = run_with_jobs(world, /*chaos=*/false, 8);
  expect_identical(serial, two, "jobs 1 vs 2");
  expect_identical(serial, eight, "jobs 1 vs 8");
}

TEST(ShardedCrawl, ChaosByteIdenticalAcrossJobCountsAndLedgerReconciles) {
  const inet::World world(tiny_world_config());
  const Crawl serial = run_with_jobs(world, /*chaos=*/true, 1);
  // The plan must actually have injected, or this test is the fault-free
  // one in disguise.
  ASSERT_GT(serial.faults.total(), 0u);
  const Crawl two = run_with_jobs(world, /*chaos=*/true, 2);
  const Crawl eight = run_with_jobs(world, /*chaos=*/true, 8);
  expect_identical(serial, two, "jobs 1 vs 2");
  expect_identical(serial, eight, "jobs 1 vs 8");

  // Exact ledger reconciliation across the per-shard injectors absorbed into
  // the caller's: every datagram the transports counted as fault-lost is
  // accounted for by kind (see analysis/degradation.h).
  for (const Crawl* crawl : {&serial, &two, &eight}) {
    EXPECT_EQ(crawl->output.transport_fault_request_drops,
              crawl->faults.burst_request_drops +
                  crawl->faults.bootstrap_blackholes);
    EXPECT_EQ(crawl->output.transport_fault_response_drops,
              crawl->faults.burst_response_drops);
  }
}

TEST(ShardedCrawl, FaultFreeResultMatchesEmptyPlanResult) {
  // An empty plan must be byte-identical to no injector at all — the shards
  // skip injector construction entirely, and attaching one with no
  // episodes draws nothing.
  const inet::World world(tiny_world_config());
  sim::FaultPlan empty_plan;
  empty_plan.seed = 999;  // an empty plan's seed is irrelevant
  expect_identical(run_crawl(world, tiny_crawl_config(), nullptr, 1),
                   run_crawl(world, tiny_crawl_config(), &empty_plan, 1),
                   "no injector vs empty plan");
}

TEST(ShardedCrawl, ShardCountChangesProductsButNotTheirShape) {
  // The shard count is *configuration* (fingerprinted): a different K is a
  // different measurement, not a scheduling choice. Sanity-check that both
  // still produce a populated, internally consistent harvest.
  const inet::World world(tiny_world_config());
  ShardedCrawlConfig two_shards = tiny_crawl_config();
  two_shards.shard_count = 2;
  const CrawlOutput k2 =
      run_sharded_crawl(world, two_shards, nullptr, nullptr, nullptr);
  const CrawlOutput k4 =
      run_sharded_crawl(world, tiny_crawl_config(), nullptr, nullptr, nullptr);
  EXPECT_GT(k2.evidence.size(), 0u);
  EXPECT_GT(k4.evidence.size(), 0u);
  for (const auto& [address, users] : k4.nated) {
    const auto it = k4.evidence.find(address);
    ASSERT_NE(it, k4.evidence.end());
    EXPECT_EQ(users, it->second.max_concurrent_users);
    EXPECT_GE(users, 2u);
  }
}

TEST(ShardedCrawl, EqualCoverageAtFractionalPerVantageBurden) {
  // The paper's burden argument: with an unconstrained budget, K vantages
  // reach (nearly) the same coverage while each one sends ~1/K of the
  // messages a single crawler would.
  const inet::World world(tiny_world_config());
  const auto crawl = [&](std::size_t shards) {
    ShardedCrawlConfig config = tiny_crawl_config();
    config.shard_count = shards;
    return run_sharded_crawl(world, config, nullptr, nullptr, nullptr);
  };
  const CrawlOutput one = crawl(1);
  const CrawlOutput four = crawl(4);
  const auto per_vantage = [](const CrawlOutput& output, std::size_t shards) {
    return (output.stats.get_nodes_sent + output.stats.pings_sent) / shards;
  };
  EXPECT_GT(four.evidence.size(), one.evidence.size() * 8 / 10);
  EXPECT_LT(per_vantage(four, 4), per_vantage(one, 1) / 2);
}

/// The reference: every shard builds its own DhtNetwork from the config,
/// and the harvests merge in shard order. run_sharded_crawl, whose shards
/// replicate one shared overlay, must match it byte for byte. It also checks
/// the partitioning the merge relies on: every address a shard discovered
/// hashes to that shard, so no two shards' evidence collides.
Crawl independently_built_shards(const inet::World& world,
                                 const ShardedCrawlConfig& config,
                                 const sim::FaultPlan& faults) {
  Crawl result;
  CrawlOutput& output = result.output;
  std::unordered_set<dht::NodeId> node_ids;
  for (std::size_t shard = 0; shard < config.shard_count; ++shard) {
    sim::EventQueue events;
    dht::DhtNetwork network(world, events, config.dht);
    std::optional<sim::FaultInjector> injector;
    if (!faults.empty()) {
      sim::FaultPlan plan = faults;
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
    CrawlStats& into = output.stats;
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
      result.faults.burst_request_drops += f.burst_request_drops;
      result.faults.burst_response_drops += f.burst_response_drops;
      result.faults.bootstrap_blackholes += f.bootstrap_blackholes;
    }
    output.transport_fault_request_drops +=
        network.transport().stats().requests_lost_fault;
    output.transport_fault_response_drops +=
        network.transport().stats().responses_lost_fault;
    for (const auto& [address, evidence] : crawler.discovered()) {
      EXPECT_EQ(std::hash<net::Ipv4Address>{}(address) % config.shard_count,
                shard)
          << address.to_string() << " outside shard " << shard;
      EXPECT_TRUE(output.evidence.emplace(address, evidence).second)
          << address.to_string() << " discovered by two shards";
    }
    node_ids.insert(crawler.node_ids().begin(), crawler.node_ids().end());
    if (shard == 0) {
      output.dht_peers = network.peer_count();
      output.dht_addresses = network.distinct_addresses();
    }
  }
  output.distinct_node_ids = node_ids.size();
  for (const auto& [address, evidence] : output.evidence) {
    if (evidence.is_nated()) {
      output.nated.emplace_back(address, evidence.max_concurrent_users);
      output.nated_set.insert(address);
    }
  }
  std::sort(output.nated.begin(), output.nated.end());
  return result;
}

/// Runs the fault-free sharded crawl at `shards` shards, serially and on 8
/// workers, and expects both to match the independently built reference.
void expect_matches_independent_shards(const inet::World& world,
                                       std::size_t shards) {
  ShardedCrawlConfig config = tiny_crawl_config();
  config.shard_count = shards;
  const Crawl reference =
      independently_built_shards(world, config, sim::FaultPlan{});
  ASSERT_GT(reference.output.evidence.size(), 0u);
  ASSERT_GT(reference.output.stats.pings_sent, 0u);
  expect_identical(reference, run_crawl(world, config, nullptr, 1),
                   "independent vs shared, jobs 1");
  expect_identical(reference, run_crawl(world, config, nullptr, 8),
                   "independent vs shared, jobs 8");
}

TEST(ShardedCrawl, SharedOverlayMatchesIndependentlyBuiltShards) {
  const inet::World world(tiny_world_config());
  expect_matches_independent_shards(world, tiny_crawl_config().shard_count);
}

// The same crawl seen as the paper's multi-vantage crawler: each shard is a
// vantage point that crawls its own hash partition of the address space.

TEST(VantageTest, PartitionsAreDisjointAndCoverEverything) {
  // The reference asserts that every address a vantage discovered hashes to
  // that vantage and that no two vantages' evidence collides; the merged
  // harvest must be exactly that union.
  const inet::World world(tiny_world_config());
  expect_matches_independent_shards(world, 3);
}

TEST(VantageTest, MergedStatsAreComponentSums) {
  // The reference sums every per-vantage crawl counter and fault-drop count
  // (node_ids are a union, not a sum); the merge must give the same totals.
  const inet::World world(tiny_world_config());
  expect_matches_independent_shards(world, 2);
}

TEST(VantageTest, SingleVantageEqualsPlainCrawler) {
  // At one shard the reference is one plain, unpartitioned Crawler on its
  // own DhtNetwork.
  const inet::World world(tiny_world_config());
  expect_matches_independent_shards(world, 1);
}

TEST(ShardedCrawl, ChaosSharedOverlayMatchesIndependentlyBuiltShards) {
  const inet::World world(tiny_world_config());
  const sim::FaultPlan plan = chaos_plan();
  const Crawl reference =
      independently_built_shards(world, tiny_crawl_config(), plan);
  ASSERT_GT(reference.faults.total(), 0u);
  expect_identical(reference, run_crawl(world, tiny_crawl_config(), &plan, 1),
                   "independent vs shared, jobs 1");
  expect_identical(reference, run_crawl(world, tiny_crawl_config(), &plan, 8),
                   "independent vs shared, jobs 8");
}

TEST(ShardedCrawl, SmallOverlayAtEightJobsMatchesSerial) {
  // Sized for a Debug ThreadSanitizer build: eight pool workers read one
  // overlay while each mutates only its own replica, with faults on.
  inet::WorldConfig world_config = tiny_world_config();
  world_config.as_count = 5;
  const inet::World world(world_config);
  ShardedCrawlConfig config = tiny_crawl_config();
  config.shard_count = 8;
  const sim::FaultPlan plan = chaos_plan();
  const Crawl serial = run_crawl(world, config, &plan, 1);
  ASSERT_GT(serial.output.evidence.size(), 0u);
  ASSERT_GT(serial.output.stats.pings_sent, 0u);
  ASSERT_GT(serial.faults.total(), 0u);
  expect_identical(serial, run_crawl(world, config, &plan, 8), "jobs 1 vs 8");
  expect_identical(serial, independently_built_shards(world, config, plan),
                   "shared vs independent");
}

}  // namespace
}  // namespace reuse::crawler
