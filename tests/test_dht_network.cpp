#include "dht/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <unordered_set>

namespace reuse::dht {
namespace {

inet::WorldConfig small_world_config() {
  auto config = inet::test_world_config(9);
  config.as_count = 25;
  return config;
}

class DhtNetworkTest : public ::testing::Test {
 protected:
  DhtNetworkTest()
      : world_(small_world_config()), network_(world_, events_, config()) {}

  static DhtNetworkConfig config() {
    DhtNetworkConfig config;
    config.seed = 77;
    return config;
  }

  inet::World world_;
  sim::EventQueue events_;
  DhtNetwork network_;
};

TEST_F(DhtNetworkTest, OnePeerPerBittorrentUser) {
  EXPECT_EQ(network_.peer_count(), world_.bittorrent_users().size());
}

TEST_F(DhtNetworkTest, AllCurrentEndpointsAreBound) {
  for (std::size_t i = 0; i <= network_.peer_count(); ++i) {
    EXPECT_TRUE(network_.transport().is_bound(network_.endpoint_of(i)))
        << "peer " << i;
  }
}

TEST_F(DhtNetworkTest, EndpointsMatchUserAttachment) {
  for (std::size_t i = 1; i <= network_.peer_count(); ++i) {
    const inet::User& user = world_.user(network_.overlay().peer_at(i).user());
    const net::Endpoint& endpoint = network_.endpoint_of(i);
    switch (user.attachment) {
      case inet::AttachmentKind::kStatic:
      case inet::AttachmentKind::kHomeNat:
      case inet::AttachmentKind::kCgn:
        EXPECT_EQ(endpoint.address, user.fixed_address);
        break;
      case inet::AttachmentKind::kDynamic:
        EXPECT_EQ(world_.role_of(endpoint.address),
                  inet::PrefixRole::kDynamicPool);
        break;
    }
  }
}

TEST_F(DhtNetworkTest, NatMembersShareAddressWithDistinctPorts) {
  std::unordered_map<net::Ipv4Address, std::unordered_set<std::uint16_t>> seen;
  for (std::size_t i = 1; i <= network_.peer_count(); ++i) {
    const net::Endpoint& endpoint = network_.endpoint_of(i);
    const auto [it, inserted] = seen[endpoint.address].insert(endpoint.port);
    EXPECT_TRUE(inserted) << "duplicate endpoint " << to_string(endpoint);
  }
}

TEST_F(DhtNetworkTest, DynamicPeersHaveExclusiveAddresses) {
  std::unordered_set<net::Ipv4Address> dynamic_addresses;
  for (std::size_t i = 1; i <= network_.peer_count(); ++i) {
    const DhtPeer& peer = network_.overlay().peer_at(i);
    const net::Ipv4Address address = network_.endpoint_of(i).address;
    if (world_.user(peer.user()).attachment == inet::AttachmentKind::kDynamic) {
      EXPECT_TRUE(dynamic_addresses.insert(address).second)
          << "two subscribers hold " << address.to_string();
    }
  }
}

TEST_F(DhtNetworkTest, RoutingTablesAreSeeded) {
  std::size_t with_contacts = 0;
  for (std::size_t i = 1; i <= network_.peer_count(); ++i) {
    with_contacts += network_.overlay().peer_at(i).table().size() > 0;
  }
  EXPECT_GT(with_contacts, network_.peer_count() * 9 / 10);
  EXPECT_GT(network_.overlay().peer_at(0).table().size(), 40u);
}

TEST_F(DhtNetworkTest, BootstrapAnswersGetNodes) {
  bool answered = false;
  network_.transport().send_request(
      net::Endpoint{}, network_.bootstrap_endpoint(),
      GetNodesRequest{NodeId{}},
      [&](const net::Endpoint&, const DhtResponse& response) {
        answered = true;
        EXPECT_EQ(response.neighbors.size(), kNeighborsPerReply);
      });
  // Retry a few times: the transport may drop datagrams.
  for (int i = 0; i < 20 && !answered; ++i) {
    network_.transport().send_request(
        net::Endpoint{}, network_.bootstrap_endpoint(),
        GetNodesRequest{NodeId{}},
        [&](const net::Endpoint&, const DhtResponse& response) {
          answered = true;
          EXPECT_FALSE(response.neighbors.empty());
        });
    events_.run_all();
  }
  EXPECT_TRUE(answered);
}

TEST_F(DhtNetworkTest, ChurnChangesIdsAndEndpoints) {
  const std::uint64_t ids_before = network_.total_node_ids_used();
  network_.schedule_churn({net::SimTime(0), net::SimTime(10 * 86400)});
  events_.run_until(net::SimTime(10 * 86400));
  const auto& churn = network_.churn_stats();
  EXPECT_GT(churn.reboots, 0u);
  EXPECT_GT(churn.port_changes, 0u);
  EXPECT_GT(churn.address_changes, 0u);
  EXPECT_EQ(network_.total_node_ids_used(), ids_before + churn.reboots);
  // After churn every *current* endpoint must still be bound, and dynamic
  // exclusivity must be preserved.
  std::unordered_set<net::Ipv4Address> dynamic_addresses;
  for (std::size_t i = 1; i <= network_.peer_count(); ++i) {
    const net::Endpoint& endpoint = network_.endpoint_of(i);
    EXPECT_TRUE(network_.transport().is_bound(endpoint));
    const inet::UserId user = network_.overlay().peer_at(i).user();
    if (world_.user(user).attachment == inet::AttachmentKind::kDynamic) {
      EXPECT_TRUE(dynamic_addresses.insert(endpoint.address).second);
    }
  }
}

TEST_F(DhtNetworkTest, PeersAnswerOnlyWhenOnline) {
  // An always-offline instant does not exist for always-on peers, but duty
  // peers must refuse when offline; probe the handler contract directly.
  for (std::size_t i = 1; i <= std::min<std::size_t>(network_.peer_count(), 200);
       ++i) {
    const DhtPeer& peer = network_.overlay().peer_at(i);
    for (int hour = 0; hour < 48; ++hour) {
      const net::SimTime t(hour * 3600);
      const auto response = peer.handle(BtPingRequest{}, t);
      EXPECT_EQ(response.has_value(), peer.online(t));
      if (response) {
        EXPECT_EQ(response->responder_id, peer.id());
      }
    }
  }
}

TEST_F(DhtNetworkTest, DistinctAddressesCountsUniquePublicIps) {
  std::unordered_set<net::Ipv4Address> addresses;
  for (std::size_t i = 1; i <= network_.peer_count(); ++i) {
    addresses.insert(network_.endpoint_of(i).address);
  }
  EXPECT_EQ(network_.distinct_addresses(), addresses.size());
  EXPECT_LE(addresses.size(), network_.peer_count());
}

TEST_F(DhtNetworkTest, ReplicasOfOneOverlayEvolveAlikeAndLeaveItUntouched) {
  const auto overlay = std::make_shared<const DhtOverlay>(world_, config());
  sim::EventQueue events_a;
  sim::EventQueue events_b;
  DhtNetwork a(overlay, events_a);
  DhtNetwork b(overlay, events_b);
  const net::TimeWindow window{net::SimTime(0), net::SimTime(3 * 86400)};
  for (DhtNetwork* network : {&a, &b, &network_}) {
    network->schedule_churn(window);
  }
  events_a.run_until(window.end);
  events_b.run_until(window.end);
  events_.run_until(window.end);

  // Both replicas, and the one-shot network built from the same config,
  // churn identically.
  ASSERT_GT(a.churn_stats().address_changes, 0u);
  for (const DhtNetwork* other : {&b, &network_}) {
    EXPECT_EQ(a.churn_stats().reboots, other->churn_stats().reboots);
    EXPECT_EQ(a.churn_stats().port_changes, other->churn_stats().port_changes);
    EXPECT_EQ(a.churn_stats().address_changes,
              other->churn_stats().address_changes);
    for (std::size_t i = 0; i <= a.peer_count(); ++i) {
      EXPECT_EQ(a.endpoint_of(i), other->endpoint_of(i)) << "peer " << i;
      EXPECT_EQ(a.node_id_of(i), other->node_id_of(i)) << "peer " << i;
    }
  }

  // The shared overlay still reads exactly as a fresh build does.
  const DhtOverlay fresh(world_, config());
  ASSERT_EQ(overlay->peer_count(), fresh.peer_count());
  std::size_t moved = 0;
  for (std::size_t i = 0; i <= fresh.peer_count(); ++i) {
    const DhtPeer& shared = overlay->peer_at(i);
    EXPECT_EQ(shared.endpoint(), fresh.peer_at(i).endpoint()) << "peer " << i;
    EXPECT_EQ(shared.id(), fresh.peer_at(i).id()) << "peer " << i;
    EXPECT_EQ(shared.table().all_contacts(),
              fresh.peer_at(i).table().all_contacts())
        << "peer " << i;
    moved += shared.endpoint() != a.endpoint_of(i);
  }
  EXPECT_GT(moved, 0u);
}

}  // namespace
}  // namespace reuse::dht
