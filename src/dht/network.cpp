#include "dht/network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "internet/lease.h"

namespace reuse::dht {
namespace {

/// The bootstrap node lives outside the generated address space (the World
/// allocates upwards from 1.0.0.0 and never reaches this block).
const net::Endpoint kBootstrapEndpoint{
    net::Ipv4Address::from_octets(203, 0, 113, 1), 6881};

std::uint16_t draw_client_port(net::Rng& rng) {
  return static_cast<std::uint16_t>(1024 + rng.uniform(60000));
}

/// DHCP grants are exclusive: draw until we land on a free address. Pools
/// are provisioned with headroom (subscription ratio < 1), so this loop is
/// short.
net::Ipv4Address claim_pool_address(
    const inet::DynamicPoolInfo& pool,
    std::unordered_set<net::Ipv4Address>& occupied, net::Rng& rng) {
  for (int attempts = 0; attempts < 1024; ++attempts) {
    const net::Ipv4Address candidate = inet::draw_pool_address(pool, rng);
    if (occupied.insert(candidate).second) return candidate;
  }
  throw std::runtime_error("claim_pool_address: pool exhausted");
}

}  // namespace

DhtOverlay::DhtOverlay(const inet::World& world, const DhtNetworkConfig& config)
    : world_(world), config_(config), rng_(config.seed) {
  peers_.reserve(1 + world_.bittorrent_users().size());
  // Bootstrap node: user id 0, always online.
  PeerBehavior always_on;
  always_on.always_on_fraction = 1.0;
  peers_.emplace_back(inet::UserId{0}, rng_(), kBootstrapEndpoint, always_on);

  // One peer per BitTorrent user.
  for (const inet::UserId id : world_.bittorrent_users()) {
    const inet::User& user = world_.user(id);
    const net::Endpoint endpoint = assign_endpoint(user);
    peers_.emplace_back(id, user.seed, endpoint, config_.behavior);
  }

  // Stale endpoints: some peers changed ports before the crawl began; the
  // old endpoint still circulates in routing tables but answers nothing.
  std::vector<net::Endpoint> old_endpoints(peers_.size());
  std::vector<bool> has_old(peers_.size(), false);
  for (std::size_t i = 1; i < peers_.size(); ++i) {
    if (!rng_.bernoulli(config_.stale_endpoint_fraction)) continue;
    // Old ports are drawn from a range no live binding uses (NAT mappings
    // and fresh client ports all start at 1024), so stale entries are
    // guaranteed silent rather than accidentally hitting a neighbour.
    old_endpoints[i] = net::Endpoint{
        peers_[i].endpoint().address,
        static_cast<std::uint16_t>(512 + rng_.uniform(500))};
    has_old[i] = true;
  }

  // Random contact graph. Each peer learns `contacts_per_peer` random other
  // peers; links to a port-changed peer use the stale endpoint some of the
  // time.
  const std::size_t n = peers_.size();
  if (n > 2) {
    for (std::size_t i = 1; i < n; ++i) {
      for (std::size_t c = 0; c < config_.contacts_per_peer; ++c) {
        std::size_t j = 1 + rng_.uniform(n - 1);
        if (j == i) continue;
        const bool use_stale = has_old[j] && rng_.bernoulli(config_.stale_link_share);
        peers_[i].table().insert(NodeContact{
            use_stale ? old_endpoints[j] : peers_[j].endpoint(),
            peers_[j].id()});
      }
    }
    // Bootstrap learns a broad random sample (it answers the crawl's first
    // get_nodes, so it must open the graph).
    const std::size_t sample =
        std::min(config_.bootstrap_contacts, n - 1);
    for (const std::size_t j : rng_.sample_indices(n - 1, sample)) {
      peers_[0].table().insert(
          NodeContact{peers_[j + 1].endpoint(), peers_[j + 1].id()});
    }
  }
}

net::Endpoint DhtOverlay::assign_endpoint(const inet::User& user) {
  switch (user.attachment) {
    case inet::AttachmentKind::kStatic: {
      return net::Endpoint{user.fixed_address, draw_client_port(rng_)};
    }
    case inet::AttachmentKind::kHomeNat:
    case inet::AttachmentKind::kCgn: {
      auto [it, inserted] = nat_devices_.try_emplace(
          user.fixed_address, user.fixed_address,
          static_cast<std::uint16_t>(1024));
      return it->second.bind(user.id);
    }
    case inet::AttachmentKind::kDynamic: {
      const net::Ipv4Address address = claim_pool_address(
          world_.pool(user.pool_index), pool_occupancy_[user.pool_index], rng_);
      return net::Endpoint{address, draw_client_port(rng_)};
    }
  }
  throw std::logic_error("assign_endpoint: unknown attachment");
}

DhtNetwork::DhtNetwork(const inet::World& world, sim::EventQueue& events,
                       const DhtNetworkConfig& config)
    : DhtNetwork(std::make_shared<const DhtOverlay>(world, config), events) {}

DhtNetwork::DhtNetwork(std::shared_ptr<const DhtOverlay> overlay,
                       sim::EventQueue& events)
    : overlay_(std::move(overlay)),
      events_(events),
      rng_(overlay_->rng_),
      transport_(events, net::Rng(overlay_->config_.seed ^ 0x7a57ULL),
                 overlay_->config_.transport),
      nat_devices_(overlay_->nat_devices_),
      pool_occupancy_(overlay_->pool_occupancy_) {
  live_.reserve(overlay_->peers_.size());
  for (const DhtPeer& peer : overlay_->peers_) {
    live_.push_back(LivePeer{peer.endpoint(), peer.id()});
  }
  for (std::size_t i = 0; i < live_.size(); ++i) bind_peer(i);
}

void DhtNetwork::bind_peer(std::size_t index) {
  transport_.bind(
      live_[index].endpoint,
      [this, index](const net::Endpoint&, const DhtRequest& request) {
        return overlay_->peer_at(index).handle_as(live_[index].id, request,
                                                  events_.now());
      });
}

void DhtNetwork::schedule_churn(net::TimeWindow window) {
  const inet::World& world = overlay_->world();
  for (std::size_t i = 1; i < live_.size(); ++i) {
    schedule_reboots(i, window);
    const inet::User& user = world.user(overlay_->peer_at(i).user());
    if (overlay_->config().dynamic_address_churn &&
        user.attachment == inet::AttachmentKind::kDynamic) {
      schedule_moves(i, window);
    }
  }
}

void DhtNetwork::schedule_reboots(std::size_t index, net::TimeWindow window) {
  const double rate = overlay_->config().reboot_rate_per_day;
  if (rate <= 0.0) return;
  const double mean_gap_seconds = 86400.0 / rate;
  net::SimTime t = window.begin;
  for (;;) {
    t = t + net::Duration(static_cast<std::int64_t>(
            std::max(1.0, rng_.exponential(mean_gap_seconds))));
    if (t >= window.end) break;
    events_.schedule_at(t, [this, index] { reboot_peer(index); });
  }
}

void DhtNetwork::schedule_moves(std::size_t index, net::TimeWindow window) {
  const inet::World& world = overlay_->world();
  const inet::User& user = world.user(overlay_->peer_at(index).user());
  const inet::DynamicPoolInfo& pool = world.pool(user.pool_index);
  net::SimTime t = window.begin;
  for (;;) {
    t = t + net::Duration(static_cast<std::int64_t>(
            std::max(60.0, rng_.exponential(pool.mean_lease_seconds))));
    if (t >= window.end) break;
    events_.schedule_at(t, [this, index] { move_dynamic_peer(index); });
  }
}

void DhtNetwork::reboot_peer(std::size_t index) {
  const DhtPeer& peer = overlay_->peer_at(index);
  LivePeer& live = live_[index];
  live.id = peer.reboot_id(rng_());
  ++churn_.reboots;
  if (!rng_.bernoulli(overlay_->config().port_change_on_reboot)) return;
  ++churn_.port_changes;
  transport_.unbind(live.endpoint);
  const inet::User& user = overlay_->world().user(peer.user());
  switch (user.attachment) {
    case inet::AttachmentKind::kHomeNat:
    case inet::AttachmentKind::kCgn:
      live.endpoint =
          nat_devices_.find(user.fixed_address)->second.bind(user.id);
      break;
    case inet::AttachmentKind::kStatic:
    case inet::AttachmentKind::kDynamic:
      live.endpoint.port = draw_client_port(rng_);
      break;
  }
  bind_peer(index);
}

void DhtNetwork::move_dynamic_peer(std::size_t index) {
  const inet::World& world = overlay_->world();
  const inet::User& user = world.user(overlay_->peer_at(index).user());
  LivePeer& live = live_[index];
  ++churn_.address_changes;
  transport_.unbind(live.endpoint);
  std::unordered_set<net::Ipv4Address>& occupied =
      pool_occupancy_[user.pool_index];
  occupied.erase(live.endpoint.address);
  live.endpoint.address =
      claim_pool_address(world.pool(user.pool_index), occupied, rng_);
  live.endpoint.port = draw_client_port(rng_);
  bind_peer(index);
}

std::size_t DhtNetwork::distinct_addresses() const {
  std::unordered_set<net::Ipv4Address> addresses;
  for (std::size_t i = 1; i < live_.size(); ++i) {
    addresses.insert(live_[i].endpoint.address);
  }
  return addresses.size();
}

}  // namespace reuse::dht
