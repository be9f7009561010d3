#include "crawler/sharded.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "simnet/event_queue.h"

namespace reuse::crawler {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_millis(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// CPU milliseconds the calling thread has used. The shard sub-stages are
/// CPU attribution: a shard's wall time would also count the time it spent
/// waiting for a core whenever the pool has more workers than there are
/// cores.
double thread_cpu_millis() {
  timespec now{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

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
  double build_millis = 0.0;
  double events_millis = 0.0;
};

ShardHarvest run_shard(const std::shared_ptr<const dht::DhtOverlay>& overlay,
                       const ShardedCrawlConfig& config, std::size_t shard) {
  ShardHarvest harvest;
  const double build_start = thread_cpu_millis();

  // One self-contained simulation: queue, overlay replica, faults, crawler.
  // Every shard replicates the same overlay, modelling one network crawled
  // from K vantage points.
  sim::EventQueue events;
  dht::DhtNetwork network(overlay, events);

  // The burst generator is stateful, so a shared injector would serialize
  // the shards (and make drop decisions depend on shard scheduling). Each
  // shard owns one, over the same episodes, with an independent burst
  // stream; the ledgers are summed at merge time.
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
  // The vantage.h salt: distinct crawler RNG streams per shard.
  crawl_config.seed = config.base.seed ^ (0x9e3779b9ULL * (shard + 1));
  Crawler crawler(network.transport(), events, network.bootstrap_endpoint(),
                  crawl_config);
  crawler.start(config.window);
  harvest.build_millis = thread_cpu_millis() - build_start;

  const double events_start = thread_cpu_millis();
  events.run_until(config.window.end + net::Duration::minutes(10));
  harvest.events_millis = thread_cpu_millis() - events_start;

  harvest.stats = crawler.stats();
  harvest.evidence = crawler.discovered();
  harvest.node_ids = crawler.node_ids();
  if (shard == 0) harvest.dht_addresses = network.distinct_addresses();
  harvest.transport_fault_request_drops =
      network.transport().stats().requests_lost_fault;
  harvest.transport_fault_response_drops =
      network.transport().stats().responses_lost_fault;
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

void add_faults(sim::FaultStats& into, const sim::FaultStats& from) {
  into.burst_request_drops += from.burst_request_drops;
  into.burst_response_drops += from.burst_response_drops;
  into.bootstrap_blackholes += from.bootstrap_blackholes;
  into.feed_snapshots_suppressed += from.feed_snapshots_suppressed;
  into.feeds_corrupted += from.feeds_corrupted;
  into.atlas_records_suppressed += from.atlas_records_suppressed;
}

}  // namespace

ShardedCrawlResult run_sharded_crawl(const inet::World& world,
                                     const ShardedCrawlConfig& config,
                                     net::ThreadPool* pool) {
  const std::size_t shard_count = std::max<std::size_t>(1, config.shard_count);
  ShardedCrawlConfig effective = config;
  effective.shard_count = shard_count;

  // The overlay is built once and only read from here on; each shard's
  // replica holds its mutable state.
  const auto overlay_start = Clock::now();
  const auto overlay =
      std::make_shared<const dht::DhtOverlay>(world, config.dht);
  const double overlay_millis = elapsed_millis(overlay_start);

  // Index-addressed slots; grain 1 because each shard is minutes of work
  // relative to the claim cost, and balance matters more than claim count.
  const auto shards_start = Clock::now();
  std::vector<ShardHarvest> harvests(shard_count);
  net::for_each_index(
      pool, shard_count,
      [&](std::size_t shard) {
        harvests[shard] = run_shard(overlay, effective, shard);
      },
      /*grain=*/1);
  const double shards_millis = elapsed_millis(shards_start);

  // Harvest in shard-index order; the order only matters for the node_id
  // union's bucket history, but "always index order" is what makes the
  // merged products trivially jobs-independent.
  const auto merge_start = Clock::now();
  ShardedCrawlResult result;
  result.dht_peers = overlay->peer_count();
  result.dht_addresses = harvests.front().dht_addresses;
  std::unordered_set<dht::NodeId> node_ids;
  for (ShardHarvest& harvest : harvests) {
    add_stats(result.stats, harvest.stats);
    add_faults(result.fault_stats, harvest.fault_stats);
    result.transport_fault_request_drops +=
        harvest.transport_fault_request_drops;
    result.transport_fault_response_drops +=
        harvest.transport_fault_response_drops;
    result.build_millis += harvest.build_millis;
    result.events_millis += harvest.events_millis;
    // Partitions are disjoint, so no address appears in two shards and the
    // insert below never collides.
    if (result.evidence.empty()) {
      result.evidence = std::move(harvest.evidence);
    } else {
      result.evidence.insert(
          std::make_move_iterator(harvest.evidence.begin()),
          std::make_move_iterator(harvest.evidence.end()));
    }
    node_ids.insert(harvest.node_ids.begin(), harvest.node_ids.end());
  }
  result.distinct_node_ids = node_ids.size();

  result.nated.reserve(result.evidence.size() / 8);
  for (const auto& [address, evidence] : result.evidence) {
    if (evidence.is_nated()) {
      result.nated.emplace_back(address, evidence.max_concurrent_users);
    }
  }
  std::sort(result.nated.begin(), result.nated.end());
  result.overlay_millis = overlay_millis;
  result.shards_millis = shards_millis;
  result.merge_millis = elapsed_millis(merge_start);
  return result;
}

}  // namespace reuse::crawler
