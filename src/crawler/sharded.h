// Sharded crawl execution: the parallel form of the §3.1 crawler.
//
// A DHT crawl is a discrete-event simulation — one event queue, one clock —
// so it cannot be split across threads without breaking determinism. The
// sharded crawl sidesteps that by partitioning the *crawler*, not the
// queue: the DHT overlay is built once (dht::DhtOverlay, immutable after
// the build), and K independent simulations each get their own event
// queue, a replica of that overlay holding only the state churn and the
// transport mutate, and a crawler restricted to the hash-partition i of K
// of the IPv4 space (the multi-vantage partitioning from
// crawler/vantage.h). Each shard keeps many bt_ping probes in flight inside
// its own queue exactly as the single crawler does; shards never
// communicate and only read the shared overlay, so they run on pool
// workers concurrently.
//
// Determinism contract: the shard count is configuration (part of the
// scenario fingerprint), not a function of --jobs. Every jobs value runs
// the *same* K shard simulations — serially on one thread or spread over
// the pool — and the harvest merges per-shard results in shard-index
// order into structures keyed by address (partitions are disjoint, so the
// union is conflict-free). Results are therefore byte-identical for every
// jobs value, including under fault injection: each shard owns a private
// FaultInjector (the burst generator is stateful and single-threaded by
// contract), and the per-shard ledgers are summed into the merged result
// for exact reconciliation against consumer-side counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "crawler/crawler.h"
#include "dht/network.h"
#include "internet/world.h"
#include "netbase/thread_pool.h"
#include "simnet/faults.h"

namespace reuse::crawler {

struct ShardedCrawlConfig {
  /// Per-shard crawler configuration. The partition fields and the seed are
  /// overwritten per shard (partition i of shard_count, seed salted by the
  /// shard index as in crawler/vantage.h); everything else applies as-is.
  CrawlerConfig base;
  /// Overlay configuration. The overlay is built once from it and every
  /// shard replicates that one build, so all replicas evolve identically
  /// and shard 0's network-side numbers (peer/address counts) describe them
  /// all.
  dht::DhtNetworkConfig dht;
  /// Crawl window; each shard's queue runs to window.end plus drain slack.
  net::TimeWindow window;
  /// Number of independent shard simulations. Configuration, not a thread
  /// count: every jobs value runs exactly this many shards, so the merged
  /// products are identical whether they ran serially or in parallel.
  std::size_t shard_count = 8;
  /// Fault schedule. Each shard constructs a private injector over these
  /// episodes with the plan seed salted by shard index (independent burst
  /// streams); an empty plan injects nothing.
  sim::FaultPlan faults;
};

/// Index-ordered merge of the per-shard harvests.
struct ShardedCrawlResult {
  CrawlStats stats;  ///< component-wise sums over shards
  /// Disjoint union: shard i only contacts partition-i addresses.
  std::unordered_map<net::Ipv4Address, IpEvidence> evidence;
  /// NATed roster recomputed from the merged evidence, sorted by address
  /// (canonical order independent of shard scheduling).
  std::vector<std::pair<net::Ipv4Address, std::size_t>> nated;
  /// Union of the per-shard node_id sets (replicas host the same peers, so
  /// per-shard counts overlap and must not be summed).
  std::size_t distinct_node_ids = 0;
  std::size_t dht_peers = 0;      ///< the overlay's
  std::size_t dht_addresses = 0;  ///< shard 0's replica, after churn
  std::uint64_t transport_fault_request_drops = 0;   ///< summed over shards
  std::uint64_t transport_fault_response_drops = 0;  ///< summed over shards
  /// Summed per-shard injector ledgers; reconciles exactly against the
  /// consumer-side counters in `stats` (see analysis/degradation.h).
  sim::FaultStats fault_stats;
  // Sub-stage attribution. overlay/shards/merge are caller-side wall-clock
  // and partition the stage: their sum is (within measurement noise) the
  // whole run_sharded_crawl call. build/events are each shard thread's CPU
  // time (CLOCK_THREAD_CPUTIME_ID) summed across shards: they describe
  // where the work went inside shards_millis, never elapsed time, and do
  // not grow when more pool workers than cores wait for a CPU.
  double overlay_millis = 0.0;  ///< wall: the one overlay build
  double shards_millis = 0.0;   ///< wall: the parallel per-shard region
  double build_millis = 0.0;  ///< CPU: replica set-up, injector and churn
  double events_millis = 0.0;  ///< CPU: event-queue execution (the crawl)
  double merge_millis = 0.0;   ///< wall: index-ordered harvest merging
};

/// Runs the K shard simulations — on `pool` when given, else serially —
/// and merges their harvests in shard-index order. Byte-identical products
/// for every pool size (see the determinism contract above).
[[nodiscard]] ShardedCrawlResult run_sharded_crawl(
    const inet::World& world, const ShardedCrawlConfig& config,
    net::ThreadPool* pool);

}  // namespace reuse::crawler
