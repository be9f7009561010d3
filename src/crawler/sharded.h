// Sharded crawl execution: the parallel, multi-vantage form of the §3.1
// crawler.
//
// A DHT crawl is a discrete-event simulation — one event queue, one clock —
// so it cannot be split across threads without breaking determinism. The
// sharded crawl sidesteps that by partitioning the *crawler*, not the
// queue: the DHT overlay is built once (dht::DhtOverlay, immutable after
// the build), and K independent simulations each get their own event
// queue, a replica of that overlay holding only the state churn and the
// transport mutate, and a crawler restricted to the hash-partition i of K
// of the IPv4 space. That is the paper's suggested improvement — crawling
// from several vantage points so each network carries ~1/K of the probe
// traffic and no address is probed twice. Each shard keeps many bt_ping
// probes in flight inside its own queue exactly as the single crawler
// does; shards never communicate and only read the shared overlay, so they
// run on pool workers concurrently.
//
// The sharded crawl owns everything about its partitioning: the per-shard
// crawler configs, the private per-shard fault injectors whose ledgers it
// absorbs into the caller's injector, and the timing of its own sub-stages.
//
// Determinism contract: the shard count is configuration (part of the
// scenario fingerprint), not a function of --jobs. Every jobs value runs
// the *same* K shard simulations — serially on one thread or spread over
// the pool — and the harvest merges per-shard results in shard-index
// order into structures keyed by address (partitions are disjoint, so the
// union is conflict-free). Results are therefore byte-identical for every
// jobs value, including under fault injection: each shard owns a private
// FaultInjector (the burst generator is stateful and single-threaded by
// contract), and the per-shard ledgers are summed into the caller's
// injector for exact reconciliation against consumer-side counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "crawler/crawler.h"
#include "dht/network.h"
#include "internet/world.h"
#include "netbase/stage_timer.h"
#include "netbase/thread_pool.h"
#include "simnet/faults.h"

namespace reuse::crawler {

struct ShardedCrawlConfig {
  /// Per-shard crawler configuration. The partition fields and the seed are
  /// overwritten per shard (partition i of shard_count, seed salted by the
  /// shard index); everything else applies as-is.
  CrawlerConfig base;
  /// Overlay configuration. The overlay is built once from it and every
  /// shard replicates that one build, so all replicas evolve identically
  /// and shard 0's network-side numbers (peer/address counts) describe them
  /// all.
  dht::DhtNetworkConfig dht;
  /// Crawl window; each shard's queue runs to window.end plus drain slack.
  net::TimeWindow window;
  /// Number of independent shard simulations (vantage points).
  /// Configuration, not a thread count: every jobs value runs exactly this
  /// many shards, so the merged products are identical whether they ran
  /// serially or in parallel.
  std::size_t shard_count = 8;
};

/// A finished crawl as plain data (the crawlers die with their event
/// queues): the shard harvests merged in shard-index order.
struct CrawlOutput {
  CrawlStats stats;  ///< component-wise sums over shards
  /// Disjoint union: shard i only contacts partition-i addresses.
  std::unordered_map<net::Ipv4Address, IpEvidence> evidence;
  /// NATed roster recomputed from the merged evidence, sorted by address
  /// (canonical order independent of shard scheduling).
  std::vector<std::pair<net::Ipv4Address, std::size_t>> nated;
  std::unordered_set<net::Ipv4Address> nated_set;
  /// Union of the per-shard node_id sets (replicas host the same peers, so
  /// per-shard counts overlap and must not be summed).
  std::size_t distinct_node_ids = 0;
  std::size_t dht_peers = 0;      ///< the overlay's
  std::size_t dht_addresses = 0;  ///< shard 0's replica, after churn
  /// Datagrams consumed by fault episodes (TransportStats counters summed
  /// over shards, carried out of the event-queue scope for the degradation
  /// report).
  std::uint64_t transport_fault_request_drops = 0;
  std::uint64_t transport_fault_response_drops = 0;
};

/// Runs the K shard simulations — on `pool` when given, else serially —
/// and merges their harvests in shard-index order. Byte-identical products
/// for every pool size (see the determinism contract above).
///
/// `faults` (optional) supplies the fault schedule: each shard injects from
/// a private injector over its plan, with the plan seed salted by shard
/// index (independent burst streams), and the shard ledgers are absorbed
/// into `faults`, so its stats() span the crawl. A null or empty-plan
/// injector injects nothing.
///
/// `stage_times` (optional) receives the crawl's sub-stages. crawl.overlay
/// (the overlay's build and its release), crawl.shards and crawl.merge are
/// wall-clock on the calling thread and partition the call. crawl.build
/// (replica set-up, injector, churn) and crawl.events (event-queue
/// execution) are each shard thread's CPU time, summed over shards: they
/// say where the work inside crawl.shards went, not how long it took, and
/// do not grow while pool workers wait for a core.
[[nodiscard]] CrawlOutput run_sharded_crawl(const inet::World& world,
                                            const ShardedCrawlConfig& config,
                                            sim::FaultInjector* faults,
                                            net::ThreadPool* pool,
                                            net::StageTimer* stage_times);

}  // namespace reuse::crawler
