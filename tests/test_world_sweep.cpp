// Parameterised world-generation sweep: the structural invariants must hold
// across the configuration space, not just the default test world.
#include <gtest/gtest.h>

#include <unordered_set>

#include "internet/world.h"

namespace reuse::inet {
namespace {

struct SweepCase {
  const char* name;
  WorldConfig config;
};

// gtest would otherwise print the raw bytes of the case, whose first word is
// the address of `name`; that address moves with ASLR on every run, so the
// discovered ctest names would change with each rebuild.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

WorldConfig base(std::uint64_t seed) {
  WorldConfig config = test_world_config(seed);
  config.as_count = 30;
  return config;
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  {
    SweepCase c{"default", base(1)};
    cases.push_back(c);
  }
  {
    SweepCase c{"no_cgn", base(2)};
    c.config.cgn_as_fraction = 0.0;
    cases.push_back(c);
  }
  {
    SweepCase c{"all_cgn", base(3)};
    c.config.cgn_as_fraction = 1.0;
    cases.push_back(c);
  }
  {
    SweepCase c{"no_dynamic", base(4)};
    c.config.dynamic_as_fraction = 0.0;
    cases.push_back(c);
  }
  {
    SweepCase c{"all_dynamic", base(5)};
    c.config.dynamic_as_fraction = 1.0;
    cases.push_back(c);
  }
  {
    SweepCase c{"bt_everywhere", base(6)};
    c.config.bt_blocked_as_fraction = 0.0;
    c.config.bt_adoption_min = 0.4;
    c.config.bt_adoption_max = 0.6;
    cases.push_back(c);
  }
  {
    SweepCase c{"bt_nowhere", base(7)};
    c.config.bt_blocked_as_fraction = 1.0;
    cases.push_back(c);
  }
  {
    SweepCase c{"dense_households", base(8)};
    c.config.home_nat_extra_member_p = 0.7;
    cases.push_back(c);
  }
  {
    SweepCase c{"sparse_static", base(9)};
    c.config.static_occupancy = 0.1;
    cases.push_back(c);
  }
  {
    SweepCase c{"heavy_infection", base(10)};
    c.config.infection_rate_base = 0.2;
    c.config.infection_rate_p2p = 0.4;
    cases.push_back(c);
  }
  return cases;
}

class WorldSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(WorldSweep, StructuralInvariantsHold) {
  const World world(GetParam().config);

  // 1. Every user id resolves, addresses sit in the right role, NAT ground
  //    truth is consistent.
  std::size_t bt = 0;
  for (const User& user : world.users()) {
    bt += user.uses_bittorrent;
    if (user.attachment == AttachmentKind::kDynamic) {
      EXPECT_LT(user.pool_index, world.pools().size());
    } else {
      EXPECT_EQ(world.asn_of(user.fixed_address), user.asn);
    }
  }
  EXPECT_EQ(bt, world.bittorrent_users().size());

  // 2. NAT fan-outs match group membership; carrier groups are >= 2.
  for (const NatGroup& group : world.nat_groups()) {
    EXPECT_EQ(world.users_behind(group.public_address), group.members.size());
    if (group.carrier_grade) {
      EXPECT_GE(group.members.size(), 2u);
    }
  }

  // 3. Prefix roles partition the space: no prefix appears in two ASes.
  std::unordered_set<std::uint32_t> seen_prefixes;
  for (const AsInfo& as_info : world.ases()) {
    for (const net::Ipv4Prefix& prefix : as_info.prefixes) {
      EXPECT_TRUE(seen_prefixes.insert(prefix.network().value()).second)
          << prefix.to_string() << " allocated twice";
    }
  }

  // 4. Pool subscribers never exceed pool capacity.
  for (const DynamicPoolInfo& pool : world.pools()) {
    EXPECT_LE(pool.subscribers.size(), pool.prefixes.size() * 256);
  }

  // 5. Config toggles have the expected gross effect.
  const WorldConfig& config = GetParam().config;
  if (config.dynamic_as_fraction == 0.0) {
    // Only the flagship AS (forced dynamic) may own pools.
    for (const DynamicPoolInfo& pool : world.pools()) {
      EXPECT_EQ(pool.asn, 4134u);
    }
  }
  if (config.bt_blocked_as_fraction >= 1.0) {
    EXPECT_TRUE(world.bittorrent_users().empty());
  }
  if (config.cgn_as_fraction >= 1.0) {
    bool any_carrier = false;
    for (const NatGroup& group : world.nat_groups()) {
      any_carrier |= group.carrier_grade;
    }
    EXPECT_TRUE(any_carrier);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, WorldSweep, ::testing::ValuesIn(sweep_cases()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace reuse::inet
