// Deterministic ICMP responsiveness model for the census baseline.
//
// Cai et al.'s technique pings sampled addresses on a schedule and infers
// dynamics from response patterns. The paper calls out that approach's
// failure modes — middleboxes answering on behalf of hosts, ASes filtering
// ICMP — and this model reproduces them so the Figure 6 comparison shows the
// same strengths and weaknesses. Responses are a pure function of (seed,
// address, time), so any probing schedule observes a consistent world.
//
// The model is resolved once per address: `PingModel::resolve` does the
// prefix lookup, the ICMP-filter and occupancy checks and the per-address
// hashes, and returns an `AddressPing` that answers for any probe time.
// `responds(address, t)` is that resolution evaluated at `t`.
#pragma once

#include <cmath>
#include <cstdint>

#include "internet/world.h"
#include "netbase/ipv4.h"
#include "netbase/rng.h"
#include "netbase/sim_time.h"

namespace reuse::inet {

/// One address's ping behaviour with everything that does not depend on the
/// probe time already done. Every draw is `(splitmix >> 11) < threshold`
/// with `threshold = net::Rng::bernoulli_threshold(p)`, which is bit-equal
/// to comparing the draw's 53-bit unit double against p.
class AddressPing {
 public:
  enum class Kind : std::uint8_t {
    kSilent,    ///< unassigned, unused, ICMP-filtered or unoccupied
    kAlwaysUp,  ///< an always-on residential host
    kHourly,    ///< server, home-NAT CPE or CGN: one draw per hour
    kDiurnal,   ///< a residential host on a daily duty cycle
    kLease,     ///< a dynamic-pool address: up while leased to an online user
  };

  [[nodiscard]] Kind kind() const { return kind_; }

  /// Would an ICMP echo at `t` get a reply?
  [[nodiscard]] bool at(net::SimTime t) const;

  /// kHourly: the draw for hour `t.seconds() / 3600`.
  [[nodiscard]] bool hourly_at(std::uint64_t hour) const {
    return below(key_ ^ ((salt_ + hour) * kSlotMultiplier), threshold_);
  }

  /// kDiurnal: the duty cycle at `days = t.seconds() / 86400.0`.
  [[nodiscard]] bool diurnal_at(double days) const {
    return std::fmod(days + phase_, 1.0) < online_fraction_;
  }

  /// kLease: the lease slot a probe at `seconds` falls in.
  [[nodiscard]] std::uint64_t lease_slot(std::int64_t seconds) const {
    return static_cast<std::uint64_t>(static_cast<double>(seconds) /
                                      lease_seconds_);
  }

  /// kLease: is the slot's address leased to a subscriber who is online?
  [[nodiscard]] bool leased_at(std::uint64_t slot) const {
    return below(key_ ^ (slot * kSlotMultiplier), threshold_) &&
           below(online_key_ ^ ((slot * 31 + 7) * kSlotMultiplier),
                 online_threshold_);
  }

 private:
  friend class PingModel;

  static constexpr std::uint64_t kSlotMultiplier = 0xc2b2ae3d27d4eb4fULL;

  static bool below(std::uint64_t state, std::uint64_t threshold) {
    return (net::splitmix64(state) >> 11) < threshold;
  }

  Kind kind_ = Kind::kSilent;
  /// kHourly: the draw's per-address hash state; kLease: the occupancy
  /// draw's.
  std::uint64_t key_ = 0;
  std::uint64_t salt_ = 0;  ///< kHourly: added to the hour index
  /// kHourly: the answer threshold; kLease: the occupancy threshold.
  std::uint64_t threshold_ = 0;
  std::uint64_t online_key_ = 0;        ///< kLease: the online draw's state
  std::uint64_t online_threshold_ = 0;  ///< kLease
  double lease_seconds_ = 60.0;         ///< kLease: mean lease, >= 60 s
  double online_fraction_ = 0.0;        ///< kDiurnal
  double phase_ = 0.0;                  ///< kDiurnal
};

class PingModel {
 public:
  PingModel(const World& world, std::uint64_t seed)
      : world_(world), seed_(seed) {}

  /// Everything about `address` that does not depend on the probe time.
  [[nodiscard]] AddressPing resolve(net::Ipv4Address address) const;

  /// Would an ICMP echo to `address` at time `t` get a reply?
  [[nodiscard]] bool responds(net::Ipv4Address address, net::SimTime t) const {
    return resolve(address).at(t);
  }

 private:
  const World& world_;
  std::uint64_t seed_;
};

}  // namespace reuse::inet
