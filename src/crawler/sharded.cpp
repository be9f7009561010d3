#include "crawler/sharded.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "simnet/event_queue.h"

namespace reuse::crawler {
namespace {

/// Everything one shard simulation produced, copied out before its event
/// queue and overlay replica die. One slot per shard, written only by the
/// worker that ran the shard and read only after the batch completes — the
/// index-addressed-slot pattern the thread pool's determinism contract
/// relies on.
struct ShardHarvest {
  CrawlStats stats;
  std::unordered_map<net::Ipv4Address, IpEvidence> evidence;
  std::unordered_set<dht::NodeId> node_ids;
  std::size_t dht_addresses = 0;  ///< shard 0 only; replicas evolve alike
  std::uint64_t transport_fault_request_drops = 0;
  std::uint64_t transport_fault_response_drops = 0;
  sim::FaultStats fault_stats;
};

ShardHarvest run_shard(const std::shared_ptr<const dht::DhtOverlay>& overlay,
                       const ShardedCrawlConfig& config,
                       std::size_t shard_count, const sim::FaultPlan& faults,
                       std::size_t shard, net::StageTimer& timer) {
  // One self-contained simulation: queue, overlay replica, faults, crawler.
  // Every shard replicates the same overlay, modelling one network crawled
  // from K vantage points.
  sim::EventQueue events;
  std::optional<dht::DhtNetwork> network;
  std::optional<sim::FaultInjector> injector;
  std::optional<Crawler> crawler;
  timer.time_cpu("crawl.build", [&] {
    network.emplace(overlay, events);
    // The burst generator is stateful, so a shared injector would serialize
    // the shards (and make drop decisions depend on shard scheduling). Each
    // shard owns one, over the same episodes, with an independent burst
    // stream; the merge absorbs the ledgers into the caller's injector.
    if (!faults.empty()) {
      sim::FaultPlan plan = faults;
      plan.seed ^= 0x9e3779b97f4a7c15ULL * (shard + 1);
      injector.emplace(std::move(plan));
      injector->begin_stage(sim::FaultStage::kCrawl);
      injector->designate_bootstrap(network->bootstrap_endpoint());
      network->transport().attach_faults(&*injector);
    }
    network->schedule_churn(config.window);

    CrawlerConfig crawl_config = config.base;
    crawl_config.partition_count = shard_count;
    crawl_config.partition_index = shard;
    // Distinct crawler RNG streams per shard.
    crawl_config.seed = config.base.seed ^ (0x9e3779b9ULL * (shard + 1));
    crawler.emplace(network->transport(), events,
                    network->bootstrap_endpoint(), crawl_config);
    crawler->start(config.window);
  });
  timer.time_cpu("crawl.events", [&] {
    events.run_until(config.window.end + net::Duration::minutes(10));
  });

  ShardHarvest harvest;
  harvest.stats = crawler->stats();
  harvest.evidence = crawler->discovered();
  harvest.node_ids = crawler->node_ids();
  if (shard == 0) harvest.dht_addresses = network->distinct_addresses();
  harvest.transport_fault_request_drops =
      network->transport().stats().requests_lost_fault;
  harvest.transport_fault_response_drops =
      network->transport().stats().responses_lost_fault;
  if (injector.has_value()) harvest.fault_stats = injector->stats();
  return harvest;
}

void add_stats(CrawlStats& into, const CrawlStats& from) {
  into.get_nodes_sent += from.get_nodes_sent;
  into.get_nodes_responses += from.get_nodes_responses;
  into.pings_sent += from.pings_sent;
  into.ping_responses += from.ping_responses;
  into.endpoints_discovered += from.endpoints_discovered;
  into.endpoints_skipped_restricted += from.endpoints_skipped_restricted;
  into.verification_rounds += from.verification_rounds;
  into.bootstrap_retries += from.bootstrap_retries;
  into.bootstrap_recoveries += from.bootstrap_recoveries;
  into.verification_retries += from.verification_retries;
  into.verification_recoveries += from.verification_recoveries;
}

}  // namespace

CrawlOutput run_sharded_crawl(const inet::World& world,
                              const ShardedCrawlConfig& config,
                              sim::FaultInjector* faults,
                              net::ThreadPool* pool,
                              net::StageTimer* stage_times) {
  net::StageTimer unrecorded;
  net::StageTimer& timer = stage_times != nullptr ? *stage_times : unrecorded;
  const std::size_t shard_count = std::max<std::size_t>(1, config.shard_count);
  const sim::FaultPlan plan =
      faults != nullptr ? faults->plan() : sim::FaultPlan{};

  // The overlay is built once and only read from here on; each shard's
  // replica holds its mutable state.
  auto overlay = timer.time("crawl.overlay", [&] {
    return std::make_shared<const dht::DhtOverlay>(world, config.dht);
  });

  // Index-addressed slots; grain 1 because each shard is minutes of work
  // relative to the claim cost, and balance matters more than claim count.
  std::vector<ShardHarvest> harvests(shard_count);
  timer.time("crawl.shards", [&] {
    net::for_each_index(
        pool, shard_count,
        [&](std::size_t shard) {
          harvests[shard] =
              run_shard(overlay, config, shard_count, plan, shard, timer);
        },
        /*grain=*/1);
  });

  // Harvest in shard-index order; the order only matters for the node_id
  // union's bucket history, but "always index order" is what makes the
  // merged products trivially jobs-independent.
  CrawlOutput merged = timer.time("crawl.merge", [&] {
    CrawlOutput output;
    output.dht_peers = overlay->peer_count();
    output.dht_addresses = harvests.front().dht_addresses;
    std::unordered_set<dht::NodeId> node_ids;
    for (ShardHarvest& harvest : harvests) {
      add_stats(output.stats, harvest.stats);
      if (faults != nullptr) faults->absorb(harvest.fault_stats);
      output.transport_fault_request_drops +=
          harvest.transport_fault_request_drops;
      output.transport_fault_response_drops +=
          harvest.transport_fault_response_drops;
      // Partitions are disjoint, so no address appears in two shards and
      // the insert below never collides.
      if (output.evidence.empty()) {
        output.evidence = std::move(harvest.evidence);
      } else {
        output.evidence.insert(
            std::make_move_iterator(harvest.evidence.begin()),
            std::make_move_iterator(harvest.evidence.end()));
      }
      node_ids.insert(harvest.node_ids.begin(), harvest.node_ids.end());
    }
    output.distinct_node_ids = node_ids.size();

    output.nated.reserve(output.evidence.size() / 8);
    for (const auto& [address, evidence] : output.evidence) {
      if (evidence.is_nated()) {
        output.nated.emplace_back(address, evidence.max_concurrent_users);
      }
    }
    std::sort(output.nated.begin(), output.nated.end());
    for (const auto& [address, users] : output.nated) {
      output.nated_set.insert(address);
    }
    // Free the drained harvests before the overlay below: the other order
    // fragments the heap and raised the perfbench study's peak RSS by
    // ~0.6 MB.
    harvests.clear();
    return output;
  });
  // The last owner frees the overlay here, a few ms at bench scale; timing
  // it as a second crawl.overlay scope keeps the wall sub-stages a
  // partition of the call.
  timer.time("crawl.overlay", [&] { overlay.reset(); });
  return merged;
}

}  // namespace reuse::crawler
