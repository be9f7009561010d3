// Focused DhtPeer unit tests (behaviour contracts the network tests only
// exercise in aggregate).
#include "dht/peer.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "netbase/rng.h"

namespace reuse::dht {
namespace {

net::Endpoint ep(std::uint32_t host, std::uint16_t port) {
  return net::Endpoint{net::Ipv4Address(host), port};
}

PeerBehavior always_on() {
  PeerBehavior behavior;
  behavior.always_on_fraction = 1.0;
  return behavior;
}

PeerBehavior never_always_on() {
  PeerBehavior behavior;
  behavior.always_on_fraction = 0.0;
  behavior.duty_min = 0.25;
  behavior.duty_max = 0.5;
  return behavior;
}

TEST(DhtPeer, ConstructionIsDeterministicPerSeed) {
  const DhtPeer a(1, 42, ep(1, 1000), always_on());
  const DhtPeer b(1, 42, ep(1, 1000), always_on());
  const DhtPeer c(1, 43, ep(1, 1000), always_on());
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.version(), b.version());
  EXPECT_NE(a.id(), c.id());
}

TEST(DhtPeer, AlwaysOnPeersAnswerAtAnyTime) {
  const DhtPeer peer(1, 7, ep(1, 1000), always_on());
  for (int hour = 0; hour < 72; hour += 5) {
    EXPECT_TRUE(peer.online(net::SimTime(hour * 3600)));
    const auto response = peer.handle(BtPingRequest{}, net::SimTime(hour * 3600));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->responder_id, peer.id());
    EXPECT_TRUE(response->neighbors.empty());  // pings carry no neighbours
  }
}

TEST(DhtPeer, DutyCyclePeersAreSometimesOffline) {
  // With duty in [0.25, 0.5], every peer must be offline for most of a day.
  int online_hours = 0;
  const DhtPeer peer(1, 99, ep(1, 1000), never_always_on());
  for (int hour = 0; hour < 24; ++hour) {
    online_hours += peer.online(net::SimTime(hour * 3600));
    if (!peer.online(net::SimTime(hour * 3600))) {
      EXPECT_FALSE(peer.handle(BtPingRequest{}, net::SimTime(hour * 3600)));
    }
  }
  EXPECT_GT(online_hours, 0);
  EXPECT_LT(online_hours, 16);
}

TEST(DhtPeer, OnlinePatternRepeatsDaily) {
  const DhtPeer peer(1, 17, ep(1, 1000), never_always_on());
  for (int hour = 0; hour < 24; ++hour) {
    EXPECT_EQ(peer.online(net::SimTime(hour * 3600)),
              peer.online(net::SimTime((hour + 24) * 3600)))
        << "hour " << hour;
  }
}

TEST(DhtPeer, RebootRegeneratesNodeIdAndCountsIds) {
  // DhtNetwork::reboot_peer draws a nonce and takes reboot_id(nonce) as the
  // peer's new node_id: every nonce must give a fresh id.
  const DhtPeer peer(1, 7, ep(1, 1000), always_on());
  std::unordered_set<NodeId> ids;
  for (std::uint64_t nonce = 1; nonce <= 20; ++nonce) {
    const NodeId id = peer.reboot_id(nonce);
    EXPECT_NE(id, peer.id()) << "nonce " << nonce << " gave the boot id";
    EXPECT_TRUE(ids.insert(id).second) << "nonce " << nonce << " reused an id";
  }
  EXPECT_EQ(ids.size(), 20u);
}

TEST(DhtPeer, GetNodesReturnsUpToEightClosest) {
  DhtPeer peer(1, 7, ep(1, 1000), always_on());
  net::Rng rng(3);
  for (std::uint32_t i = 0; i < 30; ++i) {
    std::array<std::uint32_t, 5> words{};
    for (auto& w : words) w = static_cast<std::uint32_t>(rng());
    peer.table().insert({ep(100 + i, 2000), NodeId(words)});
  }
  const auto response =
      peer.handle(GetNodesRequest{NodeId{}}, net::SimTime(0));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->neighbors.size(), kNeighborsPerReply);
}

TEST(DhtPeer, VersionIsARealClientTag) {
  const DhtPeer peer(1, 7, ep(1, 1000), always_on());
  EXPECT_FALSE(peer.version().empty());
  EXPECT_LE(peer.version().size(), 8u);
}

}  // namespace
}  // namespace reuse::dht
