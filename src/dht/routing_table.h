// Kademlia-style k-bucket routing table.
//
// Peers answer get_nodes from this structure: the k contacts XOR-closest to
// the requested target. Bucket capacities bound memory per peer and give the
// lookup the logarithmic structure real DHT crawls exploit. Storage is a
// single flat vector (tables hold a few dozen contacts at simulation scale),
// with per-bucket occupancy counters enforcing the k-bucket policy.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dht/messages.h"
#include "dht/node_id.h"

namespace reuse::dht {

class RoutingTable {
 public:
  static constexpr std::size_t kBucketCapacity = 8;
  static constexpr int kBucketCount = 160;

  explicit RoutingTable(NodeId own_id) : own_id_(own_id) {}

  /// Inserts a contact; a full bucket drops the newcomer (the classic
  /// "old contacts are good contacts" policy, which is also what keeps stale
  /// entries alive in real tables). Duplicate ids are ignored.
  void insert(const NodeContact& contact);

  /// The up-to `count` contacts closest to `target` by XOR distance.
  [[nodiscard]] std::vector<NodeContact> closest(const NodeId& target,
                                                 std::size_t count) const;

  [[nodiscard]] std::size_t size() const { return contacts_.size(); }
  [[nodiscard]] const NodeId& own_id() const { return own_id_; }

  /// All contacts, unspecified order (test/diagnostic use).
  [[nodiscard]] const std::vector<NodeContact>& all_contacts() const {
    return contacts_;
  }

 private:
  [[nodiscard]] int bucket_for(const NodeId& id) const;

  NodeId own_id_;
  std::vector<NodeContact> contacts_;
  std::array<std::uint8_t, kBucketCount> bucket_sizes_{};
};

}  // namespace reuse::dht
