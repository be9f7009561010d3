// The paper's BitTorrent NAT-detection crawler (Section 3.1).
//
// Protocol: starting from the bootstrap node, issue get_nodes in discovery
// order; every reply contributes (IP, port, node_id, version). When an IP
// accumulates two or more ports, verify it by sending bt_ping to *all* known
// ports and counting concurrent responses: >= 2 replies with distinct
// node_ids AND distinct ports mean multiple live BitTorrent clients share
// the address — a NATed (reused) address. A single live reply means the
// extra ports were stale (the client rebound), so the IP is NOT flagged.
//
// Operational constraints reproduced from the paper: after contacting all
// discovered ports of an IP the crawler leaves that IP alone for 20 minutes;
// multi-port IPs are re-pinged every hour (UDP loss compensation and users
// online at different times); outbound traffic is rate-limited; and the
// probed space can be restricted to blocklisted /24s.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dht/messages.h"
#include "dht/network.h"
#include "netbase/ipv4.h"
#include "netbase/prefix_trie.h"
#include "netbase/rng.h"
#include "netbase/sim_time.h"
#include "simnet/event_queue.h"

namespace reuse::crawler {

struct CrawlerConfig {
  /// Do not re-contact an IP within this span of finishing a burst to it.
  net::Duration ip_cooldown = net::Duration::minutes(20);
  /// Re-verify every multi-port IP this often.
  net::Duration reping_interval = net::Duration::hours(1);
  /// How long a verification round waits to collect ping replies.
  net::Duration verification_window = net::Duration::seconds(90);
  /// Outbound rate limit, messages per second.
  std::size_t messages_per_second = 400;
  /// get_nodes queries issued per endpoint (distinct random targets reveal
  /// different corners of the peer's routing table).
  std::size_t get_nodes_per_endpoint = 3;
  /// When true, only addresses inside `restrict_to` are contacted.
  bool restricted = false;
  net::PrefixSet restrict_to;
  /// Multi-vantage partitioning: this crawler only contacts addresses whose
  /// hash falls in its partition (see crawler/sharded.h). 1/0 = everything.
  std::size_t partition_count = 1;
  std::size_t partition_index = 0;
  /// Bootstrap watchdog: while no get_nodes response has ever arrived, the
  /// bootstrap is re-queued with exponential backoff (initial delay doubled
  /// each attempt, plus up to 25% jitter) at most this many times. Outages
  /// of the front door otherwise starve the whole crawl.
  std::size_t bootstrap_max_retries = 6;
  net::Duration bootstrap_retry_initial = net::Duration::seconds(30);
  /// A verification round that ends with zero ping replies (the IP was
  /// previously responsive — silence suggests an outage, not absence) is
  /// re-queued at most this many times per address; the hourly re-ping
  /// covers the long tail.
  std::size_t verification_retry_limit = 2;
  std::uint64_t seed = 3;
};

struct CrawlStats {
  std::uint64_t get_nodes_sent = 0;
  std::uint64_t get_nodes_responses = 0;
  std::uint64_t pings_sent = 0;
  std::uint64_t ping_responses = 0;
  std::uint64_t endpoints_discovered = 0;
  std::uint64_t endpoints_skipped_restricted = 0;
  std::uint64_t verification_rounds = 0;
  // Degradation accounting (all zero on a healthy crawl):
  std::uint64_t bootstrap_retries = 0;     ///< watchdog re-queues of bootstrap
  std::uint64_t bootstrap_recoveries = 0;  ///< first response after a retry
  std::uint64_t verification_retries = 0;  ///< zero-reply rounds re-queued
  std::uint64_t verification_recoveries = 0;  ///< retried IPs that replied

  [[nodiscard]] double ping_response_rate() const {
    return pings_sent == 0 ? 0.0
                           : static_cast<double>(ping_responses) /
                                 static_cast<double>(pings_sent);
  }
};

/// Everything the crawler learned about one IP address.
struct IpEvidence {
  std::unordered_set<std::uint16_t> ports;          ///< every port ever seen
  std::size_t max_concurrent_users = 0;             ///< best verified lower bound
  std::uint32_t verification_rounds = 0;
  net::SimTime first_seen;
  net::SimTime last_seen;

  /// The paper's NAT criterion: at least two concurrent responders with
  /// distinct node_ids on distinct ports.
  [[nodiscard]] bool is_nated() const { return max_concurrent_users >= 2; }
};

class Crawler {
 public:
  Crawler(dht::DhtNetwork::DhtTransport& transport, sim::EventQueue& events,
          net::Endpoint bootstrap, CrawlerConfig config);

  Crawler(const Crawler&) = delete;
  Crawler& operator=(const Crawler&) = delete;

  /// Schedules the crawl over `window` onto the event queue. The caller then
  /// drives the queue (events.run_until(window.end) or run_all()).
  void start(net::TimeWindow window);

  [[nodiscard]] const CrawlStats& stats() const { return stats_; }

  /// All IPs observed, with their evidence.
  [[nodiscard]] const std::unordered_map<net::Ipv4Address, IpEvidence>&
  discovered() const {
    return evidence_;
  }

  /// Addresses satisfying the NAT criterion, with the verified lower bound
  /// on concurrent users.
  [[nodiscard]] std::vector<std::pair<net::Ipv4Address, std::size_t>> nated()
      const;

  /// Distinct node_ids observed across all replies.
  [[nodiscard]] std::size_t distinct_node_ids() const {
    return node_ids_seen_.size();
  }

  /// The node_ids themselves. The sharded crawl (crawler/sharded.h) needs
  /// the set, not the count: its shards crawl identical overlay replicas,
  /// so per-shard counts overlap and only a union is meaningful.
  [[nodiscard]] const std::unordered_set<dht::NodeId>& node_ids() const {
    return node_ids_seen_;
  }

 private:
  struct PendingGetNodes {
    net::Endpoint endpoint;
    std::size_t remaining_queries;
  };

  /// One bt_ping verification round for an IP: replies collected until the
  /// round closes, then evaluated.
  struct VerificationRound {
    std::unordered_set<std::uint16_t> responding_ports;
    std::unordered_set<dht::NodeId> responding_ids;
  };

  void dispatch_tick();
  void schedule_next_tick();
  void rotate_cooling_discovery(std::size_t budget, std::int64_t ticks);
  void bootstrap_watchdog(net::Duration delay);
  void send_get_nodes(const net::Endpoint& endpoint);
  void on_get_nodes_response(const net::Endpoint& from,
                             const dht::DhtResponse& response);
  void learn_endpoint(const net::Endpoint& endpoint);
  void begin_verification(net::Ipv4Address address);
  void close_verification(net::Ipv4Address address);
  void schedule_reping();
  [[nodiscard]] bool allowed(net::Ipv4Address address) const;
  [[nodiscard]] bool cooled_down(net::Ipv4Address address) const;
  void touch(net::Ipv4Address address);

  dht::DhtNetwork::DhtTransport& transport_;
  sim::EventQueue& events_;
  net::Endpoint bootstrap_;
  CrawlerConfig config_;
  net::Rng rng_;
  /// Backoff jitter comes from its own stream so retries never perturb the
  /// main generator (fault-free runs stay byte-identical).
  net::Rng retry_rng_;
  net::TimeWindow window_{};
  bool running_ = false;
  std::size_t bootstrap_attempts_ = 0;
  bool bootstrap_recovered_ = false;

  std::deque<PendingGetNodes> get_nodes_queue_;
  std::deque<net::Ipv4Address> verify_queue_;
  std::unordered_set<net::Endpoint> seen_endpoints_;
  std::unordered_map<net::Ipv4Address, IpEvidence> evidence_;
  std::unordered_map<net::Ipv4Address, net::SimTime> next_contact_ok_;
  std::unordered_map<net::Ipv4Address, VerificationRound> open_rounds_;
  std::unordered_set<net::Ipv4Address> queued_for_verify_;
  /// Zero-reply re-queues spent per address; reset on a replying round.
  std::unordered_map<net::Ipv4Address, std::uint32_t> verify_retries_;
  std::unordered_set<dht::NodeId> node_ids_seen_;
  CrawlStats stats_;
};

}  // namespace reuse::crawler
