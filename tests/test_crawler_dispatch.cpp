// Equivalence proof for the crawler's dispatcher. Crawler::dispatch_tick skips
// the seconds in which it could only rotate its discovery queue, and applies
// those rotations arithmetically. The oracle below is the dispatcher it
// replaced: a tick every simulated second that spins the queue one entry per
// unit of budget. Everything else in the oracle is the crawler as it was, so
// each row crawls the same overlay twice and requires the same stats,
// evidence, node ids, transport counters and fault ledger. The rows cover
// what the skip must respect: restriction and partitioning, a lost first
// bootstrap query (the watchdog fires inside a skippable stretch),
// verification spending part of a tick's budget, the bootstrap queued twice
// in a row, an outage plus loss bursts, and a budget smaller than the queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "crawler/crawler.h"
#include "dht/network.h"
#include "internet/world.h"
#include "simnet/event_queue.h"
#include "simnet/faults.h"

namespace reuse::crawler {
namespace {

// --- the oracle: the every-second dispatcher ---------------------------------

class EverySecondCrawler {
 public:
  EverySecondCrawler(dht::DhtNetwork::DhtTransport& transport,
                     sim::EventQueue& events, net::Endpoint bootstrap,
                     CrawlerConfig config)
      : transport_(transport),
        events_(events),
        bootstrap_(bootstrap),
        config_(std::move(config)),
        rng_(config_.seed),
        retry_rng_(config_.seed ^ 0x8e774aULL) {}

  void start(net::TimeWindow window) {
    events_.schedule_at(window.begin, [this] {
      running_ = true;
      get_nodes_queue_.push_back(
          Pending{bootstrap_, config_.get_nodes_per_endpoint});
      seen_endpoints_.insert(bootstrap_);
      dispatch_tick();
      schedule_reping();
      events_.schedule_after(config_.bootstrap_retry_initial, [this] {
        bootstrap_watchdog(config_.bootstrap_retry_initial);
      });
    });
    events_.schedule_at(window.end, [this] { running_ = false; });
  }

  [[nodiscard]] const CrawlStats& stats() const { return stats_; }
  [[nodiscard]] const std::unordered_map<net::Ipv4Address, IpEvidence>&
  discovered() const {
    return evidence_;
  }
  [[nodiscard]] const std::unordered_set<dht::NodeId>& node_ids() const {
    return node_ids_seen_;
  }

 private:
  struct Pending {
    net::Endpoint endpoint;
    std::size_t remaining_queries;
  };
  struct Round {
    std::unordered_set<std::uint16_t> ports;
    std::unordered_set<dht::NodeId> ids;
  };

  void dispatch_tick() {
    if (!running_) return;
    std::size_t budget = config_.messages_per_second;
    std::size_t requeued = 0;
    while (budget > 0 && requeued < verify_queue_.size()) {
      const net::Ipv4Address address = verify_queue_.front();
      verify_queue_.pop_front();
      if (!cooled_down(address)) {
        verify_queue_.push_back(address);
        ++requeued;
        continue;
      }
      queued_for_verify_.erase(address);
      const std::size_t ports = evidence_[address].ports.size();
      if (ports > budget) {
        verify_queue_.push_front(address);
        queued_for_verify_.insert(address);
        break;
      }
      begin_verification(address);
      budget -= ports;
    }
    while (budget > 0 && !get_nodes_queue_.empty()) {
      Pending pending = get_nodes_queue_.front();
      get_nodes_queue_.pop_front();
      if (!cooled_down(pending.endpoint.address)) {
        get_nodes_queue_.push_back(pending);
        if (--budget == 0) break;
        if (get_nodes_queue_.front().endpoint == pending.endpoint) break;
        continue;
      }
      send_get_nodes(pending.endpoint);
      touch(pending.endpoint.address);
      --budget;
      if (--pending.remaining_queries > 0) get_nodes_queue_.push_back(pending);
    }
    events_.schedule_after(net::Duration::seconds(1),
                           [this] { dispatch_tick(); });
  }

  void bootstrap_watchdog(net::Duration delay) {
    if (!running_ || stats_.get_nodes_responses > 0) return;
    if (bootstrap_attempts_ >= config_.bootstrap_max_retries) return;
    ++bootstrap_attempts_;
    ++stats_.bootstrap_retries;
    next_contact_ok_.erase(bootstrap_.address);
    get_nodes_queue_.push_front(
        Pending{bootstrap_, config_.get_nodes_per_endpoint});
    const std::int64_t base = delay.count() * 2;
    const net::Duration next(
        base + static_cast<std::int64_t>(retry_rng_.uniform(
                   static_cast<std::uint64_t>(base / 4 + 1))));
    events_.schedule_after(next, [this, next] { bootstrap_watchdog(next); });
  }

  [[nodiscard]] bool allowed(net::Ipv4Address address) const {
    if (address == bootstrap_.address) return true;
    if (config_.partition_count > 1 &&
        std::hash<net::Ipv4Address>{}(address) % config_.partition_count !=
            config_.partition_index) {
      return false;
    }
    return !config_.restricted || config_.restrict_to.contains_address(address);
  }

  [[nodiscard]] bool cooled_down(net::Ipv4Address address) const {
    const auto it = next_contact_ok_.find(address);
    return it == next_contact_ok_.end() || events_.now() >= it->second;
  }

  void touch(net::Ipv4Address address) {
    next_contact_ok_[address] = events_.now() + config_.ip_cooldown;
  }

  void send_get_nodes(const net::Endpoint& endpoint) {
    ++stats_.get_nodes_sent;
    std::array<std::uint32_t, 5> words{};
    for (auto& w : words) w = static_cast<std::uint32_t>(rng_());
    transport_.send_request(
        net::Endpoint{}, endpoint, dht::GetNodesRequest{dht::NodeId(words)},
        [this](const net::Endpoint& from, const dht::DhtResponse& response) {
          on_get_nodes_response(from, response);
        });
  }

  void on_get_nodes_response(const net::Endpoint& from,
                             const dht::DhtResponse& response) {
    if (stats_.get_nodes_responses == 0 && stats_.bootstrap_retries > 0 &&
        !bootstrap_recovered_) {
      bootstrap_recovered_ = true;
      ++stats_.bootstrap_recoveries;
    }
    ++stats_.get_nodes_responses;
    node_ids_seen_.insert(response.responder_id);
    learn_endpoint(from);
    for (const dht::NodeContact& contact : response.neighbors) {
      if (!allowed(contact.endpoint.address)) {
        ++stats_.endpoints_skipped_restricted;
        continue;
      }
      if (seen_endpoints_.insert(contact.endpoint).second) {
        ++stats_.endpoints_discovered;
        get_nodes_queue_.push_back(
            Pending{contact.endpoint, config_.get_nodes_per_endpoint});
        learn_endpoint(contact.endpoint);
      }
    }
  }

  void queue_for_verify(net::Ipv4Address address) {
    if (!queued_for_verify_.contains(address) &&
        !open_rounds_.contains(address)) {
      verify_queue_.push_back(address);
      queued_for_verify_.insert(address);
    }
  }

  void learn_endpoint(const net::Endpoint& endpoint) {
    if (endpoint.address == bootstrap_.address) return;
    if (!allowed(endpoint.address)) return;
    IpEvidence& evidence = evidence_[endpoint.address];
    if (evidence.ports.empty()) evidence.first_seen = events_.now();
    evidence.last_seen = events_.now();
    evidence.ports.insert(endpoint.port);
    if (evidence.ports.size() >= 2) queue_for_verify(endpoint.address);
  }

  void begin_verification(net::Ipv4Address address) {
    IpEvidence& evidence = evidence_[address];
    open_rounds_.emplace(address, Round{});
    ++stats_.verification_rounds;
    ++evidence.verification_rounds;
    for (const std::uint16_t port : evidence.ports) {
      ++stats_.pings_sent;
      transport_.send_request(
          net::Endpoint{}, net::Endpoint{address, port}, dht::BtPingRequest{},
          [this, address](const net::Endpoint& from,
                          const dht::DhtResponse& response) {
            ++stats_.ping_responses;
            node_ids_seen_.insert(response.responder_id);
            const auto it = open_rounds_.find(address);
            if (it == open_rounds_.end()) return;
            it->second.ports.insert(from.port);
            it->second.ids.insert(response.responder_id);
          });
    }
    touch(address);
    events_.schedule_after(config_.verification_window,
                           [this, address] { close_verification(address); });
  }

  void close_verification(net::Ipv4Address address) {
    const auto it = open_rounds_.find(address);
    if (it == open_rounds_.end()) return;
    const std::size_t concurrent =
        std::min(it->second.ports.size(), it->second.ids.size());
    const bool got_replies = !it->second.ports.empty();
    IpEvidence& evidence = evidence_[address];
    evidence.max_concurrent_users =
        std::max(evidence.max_concurrent_users, concurrent);
    open_rounds_.erase(it);
    if (got_replies) {
      if (const auto retried = verify_retries_.find(address);
          retried != verify_retries_.end()) {
        ++stats_.verification_recoveries;
        verify_retries_.erase(retried);
      }
      return;
    }
    if (!running_) return;
    std::uint32_t& retries = verify_retries_[address];
    if (retries >= config_.verification_retry_limit) return;
    ++retries;
    ++stats_.verification_retries;
    queue_for_verify(address);
  }

  void schedule_reping() {
    if (!running_) return;
    events_.schedule_after(config_.reping_interval, [this] {
      if (!running_) return;
      for (const auto& [address, evidence] : evidence_) {
        if (evidence.ports.size() >= 2) queue_for_verify(address);
      }
      if (get_nodes_queue_.empty()) {
        get_nodes_queue_.push_back(
            Pending{bootstrap_, config_.get_nodes_per_endpoint});
      }
      schedule_reping();
    });
  }

  dht::DhtNetwork::DhtTransport& transport_;
  sim::EventQueue& events_;
  net::Endpoint bootstrap_;
  CrawlerConfig config_;
  net::Rng rng_;
  net::Rng retry_rng_;
  bool running_ = false;
  std::size_t bootstrap_attempts_ = 0;
  bool bootstrap_recovered_ = false;
  std::deque<Pending> get_nodes_queue_;
  std::deque<net::Ipv4Address> verify_queue_;
  std::unordered_set<net::Endpoint> seen_endpoints_;
  std::unordered_map<net::Ipv4Address, IpEvidence> evidence_;
  std::unordered_map<net::Ipv4Address, net::SimTime> next_contact_ok_;
  std::unordered_map<net::Ipv4Address, Round> open_rounds_;
  std::unordered_set<net::Ipv4Address> queued_for_verify_;
  std::unordered_map<net::Ipv4Address, std::uint32_t> verify_retries_;
  std::unordered_set<dht::NodeId> node_ids_seen_;
  CrawlStats stats_;
};

// --- one crawl, with either dispatcher ---------------------------------------

struct Row {
  std::string label;
  CrawlerConfig crawl;
  dht::DhtNetworkConfig dht;
  sim::FaultPlan faults;
  net::TimeWindow window{net::SimTime(0), net::SimTime(86400)};
};

struct Harvest {
  CrawlStats stats;
  std::unordered_map<net::Ipv4Address, IpEvidence> discovered;
  std::unordered_set<dht::NodeId> node_ids;
  sim::TransportStats transport;
  sim::FaultStats faults;
  std::uint64_t events_executed = 0;
};

template <typename CrawlerType>
Harvest crawl(const inet::World& world, const Row& row) {
  sim::EventQueue events;
  dht::DhtNetwork network(world, events, row.dht);
  std::optional<sim::FaultInjector> injector;
  if (!row.faults.empty()) {
    injector.emplace(row.faults);
    injector->begin_stage(sim::FaultStage::kCrawl);
    injector->designate_bootstrap(network.bootstrap_endpoint());
    network.transport().attach_faults(&*injector);
  }
  network.schedule_churn(row.window);
  CrawlerType crawler(network.transport(), events, network.bootstrap_endpoint(),
                      row.crawl);
  crawler.start(row.window);
  events.run_until(row.window.end + net::Duration::minutes(10));

  Harvest harvest;
  harvest.stats = crawler.stats();
  harvest.discovered = crawler.discovered();
  harvest.node_ids = crawler.node_ids();
  harvest.transport = network.transport().stats();
  if (injector.has_value()) harvest.faults = injector->stats();
  harvest.events_executed = events.executed();
  return harvest;
}

void expect_identical(const Harvest& oracle, const Harvest& fast) {
  const CrawlStats& a = oracle.stats;
  const CrawlStats& b = fast.stats;
  EXPECT_EQ(a.get_nodes_sent, b.get_nodes_sent);
  EXPECT_EQ(a.get_nodes_responses, b.get_nodes_responses);
  EXPECT_EQ(a.pings_sent, b.pings_sent);
  EXPECT_EQ(a.ping_responses, b.ping_responses);
  EXPECT_EQ(a.endpoints_discovered, b.endpoints_discovered);
  EXPECT_EQ(a.endpoints_skipped_restricted, b.endpoints_skipped_restricted);
  EXPECT_EQ(a.verification_rounds, b.verification_rounds);
  EXPECT_EQ(a.bootstrap_retries, b.bootstrap_retries);
  EXPECT_EQ(a.bootstrap_recoveries, b.bootstrap_recoveries);
  EXPECT_EQ(a.verification_retries, b.verification_retries);
  EXPECT_EQ(a.verification_recoveries, b.verification_recoveries);

  ASSERT_EQ(oracle.discovered.size(), fast.discovered.size());
  for (const auto& [address, evidence] : oracle.discovered) {
    const auto it = fast.discovered.find(address);
    ASSERT_NE(it, fast.discovered.end()) << address.to_string();
    EXPECT_EQ(evidence.ports, it->second.ports) << address.to_string();
    EXPECT_EQ(evidence.max_concurrent_users, it->second.max_concurrent_users)
        << address.to_string();
    EXPECT_EQ(evidence.verification_rounds, it->second.verification_rounds)
        << address.to_string();
    EXPECT_EQ(evidence.first_seen, it->second.first_seen)
        << address.to_string();
    EXPECT_EQ(evidence.last_seen, it->second.last_seen) << address.to_string();
  }
  EXPECT_EQ(oracle.node_ids, fast.node_ids);

  const sim::TransportStats& t = oracle.transport;
  const sim::TransportStats& u = fast.transport;
  EXPECT_EQ(t.requests_sent, u.requests_sent);
  EXPECT_EQ(t.requests_delivered, u.requests_delivered);
  EXPECT_EQ(t.requests_lost, u.requests_lost);
  EXPECT_EQ(t.requests_unroutable, u.requests_unroutable);
  EXPECT_EQ(t.responses_sent, u.responses_sent);
  EXPECT_EQ(t.responses_delivered, u.responses_delivered);
  EXPECT_EQ(t.responses_lost, u.responses_lost);
  EXPECT_EQ(t.requests_lost_fault, u.requests_lost_fault);
  EXPECT_EQ(t.responses_lost_fault, u.responses_lost_fault);
  EXPECT_EQ(oracle.faults, fast.faults);
}

const inet::World& small_world() {
  static const inet::World world([] {
    inet::WorldConfig config = inet::test_world_config(17);
    config.as_count = 30;
    return config;
  }());
  return world;
}

Row base_row(std::string label) {
  Row row;
  row.label = std::move(label);
  row.crawl.seed = 17 ^ 0xc4a3ULL;
  row.dht.seed = 17 ^ 0xd47ULL;
  return row;
}

/// Shard `index` of an eight-way sharded crawl, set up as run_sharded_crawl
/// sets its shards up. Most rows crawl one shard: its discovery queue stays
/// short and mostly cooling, which is where the skip does its work.
Row shard_row(std::string label, std::size_t index) {
  Row row = base_row(std::move(label));
  row.crawl.partition_count = 8;
  row.crawl.partition_index = index;
  row.crawl.seed ^= 0x9e3779b9ULL * (index + 1);
  return row;
}

/// Crawls `row` with both dispatchers and checks them against each other.
/// Returns the fast dispatcher's harvest for row-specific checks.
Harvest check_row(const Row& row) {
  SCOPED_TRACE(row.label);
  const Harvest oracle = crawl<EverySecondCrawler>(small_world(), row);
  const Harvest fast = crawl<Crawler>(small_world(), row);
  // A crawl that sent nothing would make every comparison vacuous.
  EXPECT_GT(oracle.stats.get_nodes_sent, 0u);
  expect_identical(oracle, fast);
  return fast;
}

sim::FaultPlan outage_and_bursts() {
  sim::FaultPlan plan;
  plan.seed = 77;
  plan.episodes.push_back(sim::FaultEpisode{
      sim::FaultKind::kBootstrapOutage,
      net::TimeWindow{net::SimTime(0), net::SimTime(1200)}, 1.0, 1});
  plan.episodes.push_back(sim::FaultEpisode{
      sim::FaultKind::kBurstLoss,
      net::TimeWindow{net::SimTime(20000), net::SimTime(30000)}, 0.5, 2});
  return plan;
}

TEST(CrawlerDispatch, UnrestrictedCrawlMatchesEverySecondDispatch) {
  Row row = base_row("unrestricted");
  row.window.end = net::SimTime(12 * 3600);
  const Harvest fast = check_row(row);
  EXPECT_GT(fast.stats.verification_rounds, 0u);
}

TEST(CrawlerDispatch, RestrictedCrawlMatchesEverySecondDispatch) {
  Row row = base_row("restricted");
  row.window.end = net::SimTime(12 * 3600);
  row.crawl.restricted = true;
  // Every other /24 that hosts a BitTorrent user with a fixed address.
  bool keep = false;
  for (const inet::UserId id : small_world().bittorrent_users()) {
    const inet::User& user = small_world().user(id);
    if (user.attachment == inet::AttachmentKind::kDynamic) continue;
    if ((keep = !keep)) {
      row.crawl.restrict_to.insert(
          net::Ipv4Prefix::slash24_of(user.fixed_address));
    }
  }
  const Harvest fast = check_row(row);
  EXPECT_GT(fast.stats.endpoints_skipped_restricted, 0u);
}

TEST(CrawlerDispatch, PartitionedShardMatchesEverySecondDispatch) {
  const Row row = shard_row("partitioned", 3);
  const Harvest fast = check_row(row);
  // Skipped seconds cost no event. The one-second tick chain alone ran one
  // event per second of the window; a shard's whole crawl now runs fewer.
  EXPECT_LT(fast.events_executed,
            static_cast<std::uint64_t>(row.window.length().count()));
}

TEST(CrawlerDispatch, LostFirstBootstrapQueryWakesForTheWatchdog) {
  // The first get_nodes dies in a one-second outage. With churn off nothing
  // else is pending, so the bootstrap's 20-minute cooldown would be one long
  // skip, and the watchdog's re-queue at 30 s has to cut it short.
  Row row = shard_row("lost first query", 1);
  row.dht.reboot_rate_per_day = 0.0;
  row.dht.dynamic_address_churn = false;
  row.faults.seed = 5;
  row.faults.episodes.push_back(sim::FaultEpisode{
      sim::FaultKind::kBootstrapOutage,
      net::TimeWindow{net::SimTime(0), net::SimTime(1)}, 1.0, 1});
  const Harvest fast = check_row(row);
  EXPECT_EQ(fast.faults.bootstrap_blackholes, 1u);
  EXPECT_GE(fast.stats.bootstrap_retries, 1u);
  EXPECT_EQ(fast.stats.bootstrap_recoveries, 1u);
}

TEST(CrawlerDispatch, VerificationSpendsPartOfTheBudgetFirst) {
  // Frequent re-pings and short cooldowns put verification bursts into
  // ticks whose discovery queue is all cooling, so the spin that follows
  // has only what verification left of the budget.
  Row row = shard_row("verification then cooling discovery", 5);
  row.crawl.reping_interval = net::Duration::minutes(7);
  row.crawl.ip_cooldown = net::Duration::minutes(5);
  row.crawl.messages_per_second = 41;
  const Harvest fast = check_row(row);
  EXPECT_GT(fast.stats.verification_rounds, 100u);
}

TEST(CrawlerDispatch, BootstrapQueuedTwiceInARow) {
  // A long outage keeps discovery dry: the watchdog pushes the bootstrap in
  // front of its own cooling entry, and the re-ping re-seeds an empty
  // queue, so the queue holds the same endpoint twice side by side.
  Row row = shard_row("adjacent duplicates", 6);
  row.faults.seed = 9;
  row.faults.episodes.push_back(sim::FaultEpisode{
      sim::FaultKind::kBootstrapOutage,
      net::TimeWindow{net::SimTime(0), net::SimTime(3 * 3600)}, 1.0, 1});
  const Harvest fast = check_row(row);
  EXPECT_GT(fast.stats.bootstrap_retries, 1u);
  EXPECT_GT(fast.faults.bootstrap_blackholes, 1u);
}

TEST(CrawlerDispatch, OutageAndBurstLossMatchEverySecondDispatch) {
  Row row = shard_row("outage and bursts", 0);
  row.faults = outage_and_bursts();
  const Harvest fast = check_row(row);
  EXPECT_GT(fast.faults.burst_request_drops + fast.faults.burst_response_drops,
            0u);
}

TEST(CrawlerDispatch, SmallBudgetMatchesEverySecondDispatch) {
  // A budget below the queue length: the spin stops on the budget, not on a
  // lap, and each skipped second rotates by the budget alone.
  Row row = shard_row("small budget", 2);
  row.crawl.messages_per_second = 3;
  check_row(row);
}

}  // namespace
}  // namespace reuse::crawler
