#include "dht/routing_table.h"

#include <algorithm>

namespace reuse::dht {

int RoutingTable::bucket_for(const NodeId& id) const {
  const int index = own_id_.bucket_index(id);
  return index < 0 ? 0 : index;
}

void RoutingTable::insert(const NodeContact& contact) {
  if (contact.id == own_id_) return;
  for (const NodeContact& existing : contacts_) {
    if (existing.id == contact.id) return;
  }
  auto& occupancy = bucket_sizes_[static_cast<std::size_t>(bucket_for(contact.id))];
  if (occupancy >= kBucketCapacity) return;
  ++occupancy;
  contacts_.push_back(contact);
}

std::vector<NodeContact> RoutingTable::closest(const NodeId& target,
                                               std::size_t count) const {
  std::vector<NodeContact> out = contacts_;
  const std::size_t keep = std::min(count, out.size());
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(keep),
                    out.end(),
                    [&target](const NodeContact& a, const NodeContact& b) {
                      return closer_to(target, a.id, b.id);
                    });
  out.resize(keep);
  return out;
}

}  // namespace reuse::dht
