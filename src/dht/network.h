// The assembled BitTorrent DHT overlay, split into what a crawl shares and
// what each simulation of it mutates.
//
// DhtOverlay is the build: one DhtPeer per BitTorrent user of the World,
// public endpoints assigned through the appropriate sharing mechanism
// (direct, home NAT, CGN port multiplexing, dynamic lease), and routing
// tables seeded from a random contact graph that includes *stale* endpoints
// (old ports leaked into other peers' tables — the false-NAT signal the
// paper's ping verification must reject). It is immutable once built, so any
// number of simulations may read it at once.
//
// DhtNetwork is one simulation of an overlay: it owns only what churn and
// the transport change — current endpoints and node_ids, NAT bindings, pool
// occupancy, transport bindings and the generator — starting from the
// overlay's post-build copies, and drives churn: reboots regenerate node_ids
// and usually ports; dynamic subscribers move to new addresses on their
// pool's lease timescale. Replicas of one overlay evolve identically, so the
// sharded crawl (crawler/sharded.h) builds the overlay once and hands each
// shard a replica.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dht/peer.h"
#include "internet/world.h"
#include "netbase/rng.h"
#include "simnet/event_queue.h"
#include "simnet/nat.h"
#include "simnet/transport.h"

namespace reuse::dht {

struct DhtNetworkConfig {
  std::uint64_t seed = 2;
  /// Contacts seeded into each peer's routing table (subject to k-bucket
  /// capacity limits).
  std::size_t contacts_per_peer = 32;
  /// Fraction of peers that changed ports before the crawl, leaving an old
  /// endpoint in circulation.
  double stale_endpoint_fraction = 0.18;
  /// Of the links pointing at such a peer, the share using the old endpoint.
  double stale_link_share = 0.30;
  PeerBehavior behavior;
  sim::TransportConfig transport;
  /// Per-peer reboot rate; each reboot draws a fresh node_id.
  double reboot_rate_per_day = 0.08;
  /// Probability a reboot also changes the port / NAT mapping.
  double port_change_on_reboot = 0.9;
  /// Whether dynamic subscribers change address mid-crawl at their pool's
  /// lease rate.
  bool dynamic_address_churn = true;
  /// Bootstrap table size.
  std::size_t bootstrap_contacts = 400;
};

struct DhtChurnStats {
  std::uint64_t reboots = 0;
  std::uint64_t port_changes = 0;
  std::uint64_t address_changes = 0;
};

using NatDevices = std::unordered_map<net::Ipv4Address, sim::NatDevice>;
/// Addresses leased to peers, per dynamic pool index.
using PoolOccupancy =
    std::unordered_map<std::uint32_t, std::unordered_set<net::Ipv4Address>>;

/// The built overlay. Read-only after construction; replicas share it.
class DhtOverlay {
 public:
  DhtOverlay(const inet::World& world, const DhtNetworkConfig& config);

  DhtOverlay(const DhtOverlay&) = delete;
  DhtOverlay& operator=(const DhtOverlay&) = delete;

  [[nodiscard]] const inet::World& world() const { return world_; }
  [[nodiscard]] const DhtNetworkConfig& config() const { return config_; }

  [[nodiscard]] std::size_t peer_count() const { return peers_.size() - 1; }
  /// Peer by index as built: its static profile, routing table and initial
  /// endpoint and node_id. Index 0 is the bootstrap node.
  [[nodiscard]] const DhtPeer& peer_at(std::size_t index) const {
    return peers_[index];
  }
  [[nodiscard]] net::Endpoint bootstrap_endpoint() const {
    return peers_.front().endpoint();
  }

 private:
  friend class DhtNetwork;

  net::Endpoint assign_endpoint(const inet::User& user);

  const inet::World& world_;
  DhtNetworkConfig config_;
  net::Rng rng_;  ///< as the build left it; each replica continues a copy
  std::vector<DhtPeer> peers_;  ///< [0] = bootstrap
  NatDevices nat_devices_;
  PoolOccupancy pool_occupancy_;
};

/// One simulation of an overlay: its live endpoints, node_ids, NAT and pool
/// state, transport and churn. Replicas of the same overlay start identical
/// and, given the same churn window, evolve identically.
class DhtNetwork {
 public:
  using DhtTransport = sim::Transport<DhtRequest, DhtResponse>;

  /// One-shot form: builds a private overlay and simulates it.
  DhtNetwork(const inet::World& world, sim::EventQueue& events,
             const DhtNetworkConfig& config);
  /// A replica of a shared overlay, driven by `events`.
  DhtNetwork(std::shared_ptr<const DhtOverlay> overlay,
             sim::EventQueue& events);

  DhtNetwork(const DhtNetwork&) = delete;
  DhtNetwork& operator=(const DhtNetwork&) = delete;

  [[nodiscard]] DhtTransport& transport() { return transport_; }
  [[nodiscard]] const DhtTransport& transport() const { return transport_; }

  [[nodiscard]] const DhtOverlay& overlay() const { return *overlay_; }
  [[nodiscard]] net::Endpoint bootstrap_endpoint() const {
    return overlay_->bootstrap_endpoint();
  }
  [[nodiscard]] std::size_t peer_count() const {
    return overlay_->peer_count();
  }

  /// Peer `index`'s current endpoint and node_id (churn moves both).
  [[nodiscard]] const net::Endpoint& endpoint_of(std::size_t index) const {
    return live_[index].endpoint;
  }
  [[nodiscard]] const NodeId& node_id_of(std::size_t index) const {
    return live_[index].id;
  }

  /// Schedules reboot/address churn across the window. Call once, before
  /// running the crawl.
  void schedule_churn(net::TimeWindow window);

  /// Distinct node_ids ever used (grows with reboots) — the §4 crawl-stats
  /// denominator.
  [[nodiscard]] std::uint64_t total_node_ids_used() const {
    return peer_count() + churn_.reboots;
  }

  /// Distinct public addresses currently hosting at least one peer.
  [[nodiscard]] std::size_t distinct_addresses() const;

  [[nodiscard]] const DhtChurnStats& churn_stats() const { return churn_; }

 private:
  struct LivePeer {
    net::Endpoint endpoint;
    NodeId id;
  };

  void bind_peer(std::size_t index);
  void reboot_peer(std::size_t index);
  void move_dynamic_peer(std::size_t index);
  void schedule_reboots(std::size_t index, net::TimeWindow window);
  void schedule_moves(std::size_t index, net::TimeWindow window);

  std::shared_ptr<const DhtOverlay> overlay_;
  sim::EventQueue& events_;
  net::Rng rng_;
  DhtTransport transport_;
  std::vector<LivePeer> live_;  ///< by overlay peer index
  NatDevices nat_devices_;
  PoolOccupancy pool_occupancy_;
  DhtChurnStats churn_;
};

}  // namespace reuse::dht
