// A simulated BitTorrent DHT peer.
//
// Each peer belongs to one World user, holds a node_id derived from its
// private address + a per-boot nonce, answers get_nodes/bt_ping while its
// user is online, and churns: reboots regenerate the node_id (as the paper
// notes real clients do), often with a new port.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dht/messages.h"
#include "dht/node_id.h"
#include "dht/routing_table.h"
#include "internet/types.h"
#include "netbase/ipv4.h"
#include "netbase/sim_time.h"

namespace reuse::dht {

struct PeerBehavior {
  /// Fraction of peers that are effectively always online (seedboxes,
  /// long-running clients).
  double always_on_fraction = 0.55;
  /// Daily online duty cycle for the remaining peers, drawn uniformly.
  double duty_min = 0.3;
  double duty_max = 0.75;
};

class DhtPeer {
 public:
  DhtPeer(inet::UserId user, std::uint64_t seed, net::Endpoint endpoint,
          const PeerBehavior& behavior);

  [[nodiscard]] inet::UserId user() const { return user_; }
  [[nodiscard]] const NodeId& id() const { return id_; }
  [[nodiscard]] const net::Endpoint& endpoint() const { return endpoint_; }
  [[nodiscard]] const std::string& version() const { return version_; }
  [[nodiscard]] RoutingTable& table() { return table_; }
  [[nodiscard]] const RoutingTable& table() const { return table_; }

  /// Whether the user's machine (and client) is up at `t`. Deterministic in
  /// (seed, t): always-on peers are always up; others follow a daily window.
  [[nodiscard]] bool online(net::SimTime t) const;

  /// Protocol handler. Returns nothing while offline — over UDP, silence.
  [[nodiscard]] std::optional<DhtResponse> handle(const DhtRequest& request,
                                                  net::SimTime now) const {
    return handle_as(id_, request, now);
  }
  /// The same handler answering as node `id`: a simulation of a shared
  /// overlay keeps each peer's current node_id itself (dht/network.h).
  [[nodiscard]] std::optional<DhtResponse> handle_as(
      const NodeId& id, const DhtRequest& request, net::SimTime now) const;

  /// The node_id a reboot with `nonce` derives. A simulation keeps the
  /// current id (and endpoint) itself: DhtNetwork::reboot_peer.
  [[nodiscard]] NodeId reboot_id(std::uint64_t nonce) const {
    return NodeId::derive(private_address_, nonce);
  }

 private:
  inet::UserId user_;
  std::uint32_t private_address_;
  net::Endpoint endpoint_;
  NodeId id_;
  std::string version_;
  RoutingTable table_;
  bool always_on_;
  double duty_fraction_;
  double duty_phase_;
};

}  // namespace reuse::dht
