// Further crawler behaviour: time-dependent availability, late replies,
// window discipline, and rate limiting — the operational corners of §3.1.
#include <gtest/gtest.h>

#include "crawler/crawler.h"
#include "dht/messages.h"
#include "simnet/event_queue.h"
#include "simnet/transport.h"

namespace reuse::crawler {
namespace {

using dht::DhtRequest;
using dht::DhtResponse;
using dht::GetNodesRequest;
using dht::NodeContact;
using dht::NodeId;

net::Ipv4Address addr(std::uint32_t value) { return net::Ipv4Address(value); }

NodeId make_id(std::uint32_t tag) {
  return NodeId(std::array<std::uint32_t, 5>{tag, tag, tag, tag, tag});
}

sim::TransportConfig lossless() {
  sim::TransportConfig config;
  config.request_loss = 0.0;
  config.response_loss = 0.0;
  config.min_delay = net::Duration::seconds(1);
  config.max_delay = net::Duration::seconds(1);
  return config;
}

/// A peer whose availability follows a schedule: online iff
/// (hour / period) % 2 == phase.
struct ScheduledPeer {
  NodeId id;
  std::vector<NodeContact> neighbors;
  int period_hours = 12;
  int phase = 0;

  [[nodiscard]] bool online(net::SimTime now) const {
    const auto block = now.seconds() / (std::int64_t{period_hours} * 3600);
    return block % 2 == phase;
  }
};

class Harness {
 public:
  Harness() : transport_(events_, net::Rng(1), lossless()) {}

  void add(const net::Endpoint& endpoint, ScheduledPeer peer) {
    transport_.bind(endpoint, [this, peer = std::move(peer)](
                                  const net::Endpoint&, const DhtRequest& request)
                                  -> std::optional<DhtResponse> {
      if (!peer.online(events_.now())) return std::nullopt;
      DhtResponse response;
      response.responder_id = peer.id;
      if (std::holds_alternative<GetNodesRequest>(request)) {
        response.neighbors = peer.neighbors;
      }
      return response;
    });
  }

  sim::EventQueue events_;
  sim::Transport<DhtRequest, DhtResponse> transport_;
};

// Two clients behind one NAT that are online in alternating 12-hour blocks
// — never simultaneously. The paper's rule requires CONCURRENT responses, so
// the address must NOT be flagged, however many ports are known.
TEST(CrawlerSchedules, NonOverlappingUsersAreNotConcurrent) {
  Harness harness;
  const net::Endpoint bootstrap{addr(1), 6881};
  const net::Endpoint a{addr(10), 2000};
  const net::Endpoint b{addr(10), 3000};
  harness.add(bootstrap, {make_id(1), {{a, make_id(10)}, {b, make_id(11)}},
                          /*period=*/1000000, /*phase=*/0});  // always on
  harness.add(a, {make_id(10), {}, 12, 0});
  harness.add(b, {make_id(11), {}, 12, 1});

  CrawlerConfig config;
  config.seed = 5;
  Crawler crawler(harness.transport_, harness.events_, bootstrap, config);
  crawler.start({net::SimTime(0), net::SimTime(3 * 86400)});
  harness.events_.run_until(net::SimTime(3 * 86400) + net::Duration::minutes(5));

  ASSERT_TRUE(crawler.discovered().contains(addr(10)));
  const IpEvidence& evidence = crawler.discovered().at(addr(10));
  EXPECT_EQ(evidence.ports.size(), 2u);
  EXPECT_GT(evidence.verification_rounds, 10u);
  EXPECT_FALSE(evidence.is_nated()) << "non-concurrent users flagged as NAT";
}

// Two clients with partially overlapping schedules (8h-period phase 0 and a
// 24/7 one): hourly re-pings eventually catch both online together.
TEST(CrawlerSchedules, RepingsCatchOverlappingWindows) {
  Harness harness;
  const net::Endpoint bootstrap{addr(1), 6881};
  const net::Endpoint a{addr(10), 2000};
  const net::Endpoint b{addr(10), 3000};
  harness.add(bootstrap, {make_id(1), {{a, make_id(10)}, {b, make_id(11)}},
                          1000000, 0});
  harness.add(a, {make_id(10), {}, 8, 0});
  harness.add(b, {make_id(11), {}, 1000000, 0});  // always on

  CrawlerConfig config;
  config.seed = 5;
  Crawler crawler(harness.transport_, harness.events_, bootstrap, config);
  crawler.start({net::SimTime(0), net::SimTime(2 * 86400)});
  harness.events_.run_until(net::SimTime(2 * 86400) + net::Duration::minutes(5));

  const auto nated = crawler.nated();
  ASSERT_EQ(nated.size(), 1u);
  EXPECT_EQ(nated[0].second, 2u);
}

// The crawler must stop contacting peers once its window closes.
TEST(CrawlerSchedules, StopsAtWindowEnd) {
  Harness harness;
  const net::Endpoint bootstrap{addr(1), 6881};
  const net::Endpoint solo{addr(10), 2000};
  harness.add(bootstrap, {make_id(1), {{solo, make_id(10)}}, 1000000, 0});
  harness.add(solo, {make_id(10), {}, 1000000, 0});

  CrawlerConfig config;
  config.seed = 5;
  Crawler crawler(harness.transport_, harness.events_, bootstrap, config);
  crawler.start({net::SimTime(0), net::SimTime(3600)});
  harness.events_.run_until(net::SimTime(3600) + net::Duration::minutes(2));
  const std::uint64_t sent_at_close =
      crawler.stats().get_nodes_sent + crawler.stats().pings_sent;
  // Let simulated time roll on; nothing further may be sent.
  harness.events_.run_until(net::SimTime(86400));
  EXPECT_EQ(crawler.stats().get_nodes_sent + crawler.stats().pings_sent,
            sent_at_close);
}

// Outbound volume respects the per-second budget.
TEST(CrawlerSchedules, RateLimitBoundsTraffic) {
  Harness harness;
  const net::Endpoint bootstrap{addr(1), 6881};
  // A clique of 40 peers so the discovery queue stays busy.
  std::vector<NodeContact> contacts;
  for (std::uint32_t i = 0; i < 40; ++i) {
    contacts.push_back(
        {net::Endpoint{addr(100 + i), 2000}, make_id(100 + i)});
  }
  harness.add(bootstrap, {make_id(1), contacts, 1000000, 0});
  for (std::uint32_t i = 0; i < 40; ++i) {
    harness.add({addr(100 + i), 2000}, {make_id(100 + i), contacts, 1000000, 0});
  }

  CrawlerConfig config;
  config.seed = 5;
  config.messages_per_second = 3;
  const std::int64_t seconds = 600;
  Crawler crawler(harness.transport_, harness.events_, bootstrap, config);
  crawler.start({net::SimTime(0), net::SimTime(seconds)});
  harness.events_.run_until(net::SimTime(seconds) + net::Duration::minutes(2));
  EXPECT_LE(crawler.stats().get_nodes_sent + crawler.stats().pings_sent,
            static_cast<std::uint64_t>(seconds) * 3);
}

// A reply that arrives after its verification round closed must not crash or
// corrupt counts (it is simply dropped from round accounting).
TEST(CrawlerSchedules, LateRepliesAreIgnoredSafely) {
  sim::EventQueue events;
  sim::TransportConfig slow;
  slow.request_loss = 0.0;
  slow.response_loss = 0.0;
  slow.min_delay = net::Duration::seconds(200);  // beyond the 90 s window
  slow.max_delay = net::Duration::seconds(220);
  sim::Transport<DhtRequest, DhtResponse> transport(events, net::Rng(2), slow);
  const net::Endpoint bootstrap{addr(1), 6881};
  const net::Endpoint a{addr(10), 2000};
  const net::Endpoint b{addr(10), 3000};
  auto bind = [&](const net::Endpoint& endpoint, NodeId id,
                  std::vector<NodeContact> neighbors) {
    transport.bind(endpoint, [id, neighbors](const net::Endpoint&,
                                             const DhtRequest& request)
                                 -> std::optional<DhtResponse> {
      DhtResponse response;
      response.responder_id = id;
      if (std::holds_alternative<GetNodesRequest>(request)) {
        response.neighbors = neighbors;
      }
      return response;
    });
  };
  bind(bootstrap, make_id(1), {{a, make_id(10)}, {b, make_id(11)}});
  bind(a, make_id(10), {});
  bind(b, make_id(11), {});

  CrawlerConfig config;
  config.seed = 5;
  Crawler crawler(transport, events, bootstrap, config);
  crawler.start({net::SimTime(0), net::SimTime(86400)});
  events.run_until(net::SimTime(86400) + net::Duration::minutes(10));
  // Replies always arrive ~400 s after the ping, i.e. after every round has
  // closed: the IP can never be verified even though both clients are live.
  EXPECT_TRUE(crawler.nated().empty());
  EXPECT_GT(crawler.stats().ping_responses, 0u);
}

}  // namespace
}  // namespace reuse::crawler
