#include "internet/ping_model.h"

#include <algorithm>

namespace reuse::inet {
namespace {

constexpr std::uint64_t kAddressMultiplier = 0x9e3779b97f4a7c15ULL;

// Every draw is splitmix64 of `address_key(seed, address) ^ salt *
// AddressPing::kSlotMultiplier`: a stateless mix that gives an independent
// uniform draw per (seed, address, salt), where the salt is a fixed
// per-address salt or a time slot.
std::uint64_t address_key(std::uint64_t seed, net::Ipv4Address address) {
  return seed ^ (std::uint64_t{address.value()} * kAddressMultiplier);
}

double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

bool AddressPing::at(net::SimTime t) const {
  switch (kind_) {
    case Kind::kSilent:
      return false;
    case Kind::kAlwaysUp:
      return true;
    case Kind::kHourly:
      return hourly_at(static_cast<std::uint64_t>(t.seconds() / 3600));
    case Kind::kDiurnal:
      return diurnal_at(static_cast<double>(t.seconds()) / 86400.0);
    case Kind::kLease:
      return leased_at(lease_slot(t.seconds()));
  }
  return false;
}

AddressPing PingModel::resolve(net::Ipv4Address address) const {
  AddressPing ping;
  const PrefixRecord* record = world_.prefix_record(address);
  if (record == nullptr || record->role == PrefixRole::kUnused) return ping;
  const AsInfo* as_info = world_.find_as(record->asn);
  if (as_info != nullptr && as_info->filters_icmp) return ping;

  const std::uint64_t key = address_key(seed_, address);
  auto state = [&](std::uint64_t salt) {
    return key ^ (salt * AddressPing::kSlotMultiplier);
  };
  // The per-address draws: a Bernoulli trial, or a uniform [0, 1) parameter.
  auto drawn = [&](std::uint64_t salt, double probability) {
    return AddressPing::below(state(salt),
                              net::Rng::bernoulli_threshold(probability));
  };
  auto unit_hash = [&](std::uint64_t salt) {
    std::uint64_t s = state(salt);
    return to_unit(net::splitmix64(s));
  };
  auto hourly = [&](std::uint64_t salt, double probability) {
    ping.kind_ = AddressPing::Kind::kHourly;
    ping.key_ = key;
    ping.salt_ = salt;
    ping.threshold_ = net::Rng::bernoulli_threshold(probability);
  };

  switch (record->role) {
    case PrefixRole::kServerHosting:
      // A server exists at this offset with probability density/256; servers
      // answer nearly always.
      if (drawn(1, static_cast<double>(record->density) / 256.0)) {
        hourly(2, 0.98);
      }
      break;
    case PrefixRole::kStaticResidential:
      if (!world_.is_static_occupied(address)) break;
      // 30% of residential hosts are always-on; the rest follow a diurnal
      // duty cycle with a per-host online fraction.
      if (drawn(3, 0.30)) {
        ping.kind_ = AddressPing::Kind::kAlwaysUp;
        break;
      }
      ping.kind_ = AddressPing::Kind::kDiurnal;
      ping.online_fraction_ = 0.2 + 0.5 * unit_hash(4);
      ping.phase_ = unit_hash(5);
      break;
    case PrefixRole::kHomeNatResidential:
      // The CPE answers pings on behalf of the household — a middlebox reply,
      // one of the census's documented confusions.
      if (world_.nat_group_fanout(address)) hourly(6, 0.95);
      break;
    case PrefixRole::kCgnPool:
      // The carrier NAT itself replies: looks like a rock-stable host even
      // though dozens of users churn behind it.
      hourly(7, 0.99);
      break;
    case PrefixRole::kDynamicPool: {
      // The address answers only while leased to an online subscriber. The
      // occupied/idle pattern flips on the pool's lease timescale, which is
      // what gives dynamic blocks their high volatility signature.
      const DynamicPoolInfo& pool = world_.pool(record->pool_index);
      ping.kind_ = AddressPing::Kind::kLease;
      ping.lease_seconds_ = std::max(60.0, pool.mean_lease_seconds);
      ping.key_ = address_key(seed_ ^ 0xd1eaf, address);
      ping.threshold_ = net::Rng::bernoulli_threshold(
          world_.config().dynamic_subscription_ratio);
      // Leaseholder online?
      ping.online_key_ = address_key(seed_ ^ 0x0111eULL, address);
      ping.online_threshold_ = net::Rng::bernoulli_threshold(0.7);
      break;
    }
    case PrefixRole::kUnused:
      break;
  }
  return ping;
}

}  // namespace reuse::inet
