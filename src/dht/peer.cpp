#include "dht/peer.h"

#include <cmath>

#include "netbase/rng.h"

namespace reuse::dht {
namespace {

const char* const kClientVersions[] = {"UT355", "UT360", "LT110", "LT120",
                                       "qB445", "qB460", "TR300", "DE210"};

}  // namespace

DhtPeer::DhtPeer(inet::UserId user, std::uint64_t seed, net::Endpoint endpoint,
                 const PeerBehavior& behavior)
    : user_(user), endpoint_(endpoint), id_(), table_(NodeId{}) {
  net::Rng rng(seed);
  // The private (pre-NAT) address feeds node_id derivation, per the paper.
  private_address_ = static_cast<std::uint32_t>(rng());
  id_ = NodeId::derive(private_address_, rng());
  table_ = RoutingTable(id_);
  version_ = kClientVersions[rng.uniform(std::size(kClientVersions))];
  always_on_ = rng.bernoulli(behavior.always_on_fraction);
  duty_fraction_ = rng.uniform_real(behavior.duty_min, behavior.duty_max);
  duty_phase_ = rng.uniform_real();
}

bool DhtPeer::online(net::SimTime t) const {
  if (always_on_) return true;
  const double day_position =
      std::fmod(static_cast<double>(t.seconds()) / 86400.0 + duty_phase_, 1.0);
  return day_position < duty_fraction_;
}

std::optional<DhtResponse> DhtPeer::handle_as(const NodeId& id,
                                              const DhtRequest& request,
                                              net::SimTime now) const {
  if (!online(now)) return std::nullopt;
  DhtResponse response;
  response.responder_id = id;
  response.version = version_;
  if (const auto* get_nodes = std::get_if<GetNodesRequest>(&request)) {
    response.neighbors = table_.closest(get_nodes->target, kNeighborsPerReply);
  }
  return response;
}

}  // namespace reuse::dht
