#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "dht/node_id.h"
#include "dht/routing_table.h"
#include "netbase/rng.h"

namespace reuse::dht {
namespace {

NodeId random_id(net::Rng& rng) {
  std::array<std::uint32_t, 5> words{};
  for (auto& w : words) w = static_cast<std::uint32_t>(rng());
  return NodeId(words);
}

TEST(NodeId, DeriveIsDeterministic) {
  EXPECT_EQ(NodeId::derive(1, 2), NodeId::derive(1, 2));
  EXPECT_NE(NodeId::derive(1, 2), NodeId::derive(1, 3));
  EXPECT_NE(NodeId::derive(1, 2), NodeId::derive(2, 2));
}

TEST(NodeId, RebootNonceChangesId) {
  // The paper's caveat: node_ids regenerate per boot, so two boots of the
  // same host yield different ids.
  std::unordered_set<NodeId> ids;
  for (std::uint64_t nonce = 0; nonce < 100; ++nonce) {
    ids.insert(NodeId::derive(0x0A000001, nonce));
  }
  EXPECT_EQ(ids.size(), 100u);
}

TEST(NodeId, DistanceIsSymmetricAndZeroOnSelf) {
  net::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const NodeId a = random_id(rng);
    const NodeId b = random_id(rng);
    EXPECT_EQ(a.distance_to(b), b.distance_to(a));
    const auto self = a.distance_to(a);
    for (const std::uint32_t word : self) EXPECT_EQ(word, 0u);
  }
}

TEST(NodeId, BucketIndexMatchesHighestDifferingBit) {
  const NodeId zero(std::array<std::uint32_t, 5>{0, 0, 0, 0, 0});
  const NodeId top(std::array<std::uint32_t, 5>{0x80000000u, 0, 0, 0, 0});
  EXPECT_EQ(zero.bucket_index(top), 159);
  const NodeId bottom(std::array<std::uint32_t, 5>{0, 0, 0, 0, 1});
  EXPECT_EQ(zero.bucket_index(bottom), 0);
  EXPECT_EQ(zero.bucket_index(zero), -1);
  const NodeId mid(std::array<std::uint32_t, 5>{0, 1, 0, 0, 0});
  EXPECT_EQ(zero.bucket_index(mid), 96);
}

TEST(NodeId, HexRendering) {
  const NodeId id(std::array<std::uint32_t, 5>{0xDEADBEEFu, 1, 2, 3, 4});
  EXPECT_EQ(id.to_hex(),
            "deadbeef00000001000000020000000300000004");
}

TEST(RoutingTable, InsertRespectsBucketCapacity) {
  // Ids differing from own in the SAME top bit all land in one bucket; only
  // kBucketCapacity survive.
  const NodeId own(std::array<std::uint32_t, 5>{0, 0, 0, 0, 0});
  RoutingTable table(own);
  net::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    std::array<std::uint32_t, 5> words{};
    words[0] = 0x80000000u | static_cast<std::uint32_t>(rng());
    for (std::size_t w = 1; w < 5; ++w) {
      words[w] = static_cast<std::uint32_t>(rng());
    }
    table.insert(NodeContact{net::Endpoint{net::Ipv4Address(i), 1}, NodeId(words)});
  }
  EXPECT_EQ(table.size(), RoutingTable::kBucketCapacity);
}

TEST(RoutingTable, IgnoresSelfAndDuplicates) {
  net::Rng rng(3);
  const NodeId own = random_id(rng);
  RoutingTable table(own);
  table.insert(NodeContact{net::Endpoint{net::Ipv4Address(1), 1}, own});
  EXPECT_EQ(table.size(), 0u);
  const NodeId other = random_id(rng);
  table.insert(NodeContact{net::Endpoint{net::Ipv4Address(1), 1}, other});
  table.insert(NodeContact{net::Endpoint{net::Ipv4Address(2), 2}, other});
  EXPECT_EQ(table.size(), 1u);
  // The first endpoint wins for plain insert.
  EXPECT_EQ(table.all_contacts().front().endpoint.port, 1);
}

// Property sweep: closest() agrees with an exact sort over all contacts.
class RoutingTableClosest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingTableClosest, MatchesBruteForce) {
  net::Rng rng(GetParam());
  const NodeId own = random_id(rng);
  RoutingTable table(own);
  std::vector<NodeContact> inserted;
  for (int i = 0; i < 200; ++i) {
    const NodeContact contact{
        net::Endpoint{net::Ipv4Address(static_cast<std::uint32_t>(i)), 1},
        random_id(rng)};
    const std::size_t before = table.size();
    table.insert(contact);
    if (table.size() > before) inserted.push_back(contact);
  }
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId target = random_id(rng);
    auto expected = inserted;
    std::sort(expected.begin(), expected.end(),
              [&](const NodeContact& a, const NodeContact& b) {
                return closer_to(target, a.id, b.id);
              });
    const auto actual = table.closest(target, 8);
    ASSERT_EQ(actual.size(), std::min<std::size_t>(8, expected.size()));
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id) << "rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingTableClosest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RoutingTable, ClosestOnEmptyTableIsEmpty) {
  net::Rng rng(6);
  RoutingTable table(random_id(rng));
  EXPECT_TRUE(table.closest(random_id(rng), 8).empty());
}

}  // namespace
}  // namespace reuse::dht
