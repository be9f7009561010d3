#include "blocklist/store.h"

#include <algorithm>
#include <tuple>

namespace reuse::blocklist {

namespace {

using Interval = net::IntervalSet::Interval;

/// Appends [begin, end) to `runs`, coalescing with the previous run when
/// they touch or overlap — but never across `base`, the index where the
/// current address's runs start. Input must arrive begin-sorted.
void append_run(std::vector<Interval>* runs, std::size_t base,
                std::int64_t begin, std::int64_t end) {
  if (runs->size() > base && runs->back().end >= begin) {
    runs->back().end = std::max(runs->back().end, end);
  } else {
    runs->push_back(Interval{begin, end});
  }
}

}  // namespace

void SnapshotStore::record(ListId list, net::Ipv4Address address,
                           std::int64_t day) {
  record_span(list, address, day, day + 1);
}

void SnapshotStore::record_span(ListId list, net::Ipv4Address address,
                                std::int64_t begin, std::int64_t end) {
  if (begin >= end) return;
  pending_.push_back(PendingListing{list, address.value(), begin, end});
  if (pending_.size() >= fold_threshold()) fold();
}

std::size_t SnapshotStore::fold_threshold() const {
  // Geometric: small stores fold in 64Ki batches; once the folded state
  // dominates, the pending buffer may grow to 1/8 of it before the next
  // O(folded) merge — bounded memory overhead, amortized-linear fold cost.
  return std::max<std::size_t>(std::size_t{1} << 16, listing_count_ / 8);
}

void SnapshotStore::merge_column(ListColumn* column,
                                 const PendingListing* first,
                                 const PendingListing* last) {
  const std::size_t incoming = static_cast<std::size_t>(last - first);
  ListColumn merged;
  merged.addrs.reserve(column->addrs.size() + incoming);
  merged.run_offsets.reserve(column->addrs.size() + incoming + 1);
  merged.runs.reserve(column->runs.size() + incoming);

  std::size_t i = 0;  // old address rank
  const PendingListing* p = first;
  while (i < column->addrs.size() || p != last) {
    const bool take_old =
        i < column->addrs.size() && (p == last || column->addrs[i] <= p->addr);
    const bool take_new =
        p != last && (i >= column->addrs.size() || p->addr <= column->addrs[i]);
    const std::uint32_t addr = take_old ? column->addrs[i] : p->addr;
    const std::size_t base = merged.runs.size();
    merged.run_offsets.push_back(static_cast<std::uint32_t>(base));
    merged.addrs.push_back(addr);

    const PendingListing* pend = p;
    if (take_new) {
      while (pend != last && pend->addr == addr) ++pend;
    }
    if (take_old && !take_new) {
      merged.runs.insert(merged.runs.end(),
                         column->runs.begin() + column->run_offsets[i],
                         column->runs.begin() + column->run_offsets[i + 1]);
      ++i;
    } else if (take_new && !take_old) {
      for (const PendingListing* q = p; q != pend; ++q) {
        append_run(&merged.runs, base, q->begin, q->end);
      }
      p = pend;
    } else {
      // Both sides hold this address: merge the two begin-sorted run lists,
      // coalescing as they interleave.
      auto ob = column->runs.begin() + column->run_offsets[i];
      const auto oe = column->runs.begin() + column->run_offsets[i + 1];
      const PendingListing* q = p;
      while (ob != oe || q != pend) {
        if (ob != oe && (q == pend || ob->begin <= q->begin)) {
          append_run(&merged.runs, base, ob->begin, ob->end);
          ++ob;
        } else {
          append_run(&merged.runs, base, q->begin, q->end);
          ++q;
        }
      }
      ++i;
      p = pend;
    }
  }
  merged.run_offsets.push_back(static_cast<std::uint32_t>(merged.runs.size()));
  *column = std::move(merged);
}

void SnapshotStore::fold() const {
  if (pending_.empty()) return;
  std::sort(pending_.begin(), pending_.end(),
            [](const PendingListing& a, const PendingListing& b) {
              return std::tie(a.list, a.addr, a.begin, a.end) <
                     std::tie(b.list, b.addr, b.begin, b.end);
            });
  std::size_t g = 0;
  while (g < pending_.size()) {
    const ListId list = pending_[g].list;
    std::size_t h = g;
    while (h < pending_.size() && pending_[h].list == list) ++h;
    ListColumn& column = columns_[list];
    const std::size_t before = column.addrs.size();
    merge_column(&column, pending_.data() + g, pending_.data() + h);
    listing_count_ += column.addrs.size() - before;
    g = h;
  }

  // Fold the address universe: new addresses merge into the sorted vector
  // (and the /24 bitmap, if a point query already forced it into being).
  std::vector<net::Ipv4Address> fresh;
  fresh.reserve(pending_.size());
  for (const PendingListing& listing : pending_) {
    fresh.emplace_back(listing.addr);
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  std::vector<net::Ipv4Address> added;
  for (const net::Ipv4Address address : fresh) {
    if (!std::binary_search(all_addresses_.begin(), all_addresses_.end(),
                            address)) {
      added.push_back(address);
    }
  }
  if (!added.empty()) {
    const std::size_t old_size = all_addresses_.size();
    all_addresses_.insert(all_addresses_.end(), added.begin(), added.end());
    std::inplace_merge(all_addresses_.begin(),
                       all_addresses_.begin() + static_cast<std::ptrdiff_t>(old_size),
                       all_addresses_.end());
    if (!slash24_bits_.empty()) {
      for (const net::Ipv4Address address : added) {
        const std::uint32_t key = address.value() >> 8;
        slash24_bits_[key >> 6] |= std::uint64_t{1} << (key & 63);
      }
    }
  }
  pending_.clear();
}

void SnapshotStore::ensure_bitmap() const {
  if (!slash24_bits_.empty()) return;
  slash24_bits_.assign(std::size_t{1} << (24 - 6), 0);
  for (const net::Ipv4Address address : all_addresses_) {
    const std::uint32_t key = address.value() >> 8;
    slash24_bits_[key >> 6] |= std::uint64_t{1} << (key & 63);
  }
}

bool SnapshotStore::bitmap_may_contain(net::Ipv4Address address) const {
  const std::uint32_t key = address.value() >> 8;
  return (slash24_bits_[key >> 6] >> (key & 63)) & 1;
}

const SnapshotStore::ListColumn* SnapshotStore::column_of(ListId list) const {
  const auto it = columns_.find(list);
  return it == columns_.end() ? nullptr : &it->second;
}

void SnapshotStore::materialize(const ListColumn& column, std::size_t index,
                                net::IntervalSet* out) const {
  const std::uint32_t first = column.run_offsets[index];
  const std::uint32_t last = column.run_offsets[index + 1];
  out->assign_sorted(column.runs.data() + first, column.runs.data() + last);
}

net::IntervalSet SnapshotStore::presence(ListId list,
                                         net::Ipv4Address address) const {
  net::IntervalSet out;
  fold();
  ensure_bitmap();
  if (!bitmap_may_contain(address)) return out;
  const ListColumn* column = column_of(list);
  if (column == nullptr) return out;
  const auto it = std::lower_bound(column->addrs.begin(), column->addrs.end(),
                                   address.value());
  if (it == column->addrs.end() || *it != address.value()) return out;
  materialize(*column,
              static_cast<std::size_t>(it - column->addrs.begin()), &out);
  return out;
}

bool SnapshotStore::has_listing(ListId list, net::Ipv4Address address) const {
  fold();
  ensure_bitmap();
  if (!bitmap_may_contain(address)) return false;
  const ListColumn* column = column_of(list);
  if (column == nullptr) return false;
  return std::binary_search(column->addrs.begin(), column->addrs.end(),
                            address.value());
}

void SnapshotStore::mark_observed(ListId list, std::int64_t day) {
  mark_observed_span(list, day, day + 1);
}

void SnapshotStore::mark_observed_span(ListId list, std::int64_t begin,
                                       std::int64_t end) {
  if (begin >= end) return;
  observed_[list].insert(begin, end);
}

void SnapshotStore::merge_from(const SnapshotStore& other) {
  other.for_each_listing([&](ListId list, net::Ipv4Address address,
                             const net::IntervalSet& intervals) {
    for (const net::IntervalSet::Interval& span : intervals.intervals()) {
      record_span(list, address, span.begin, span.end);
    }
  });
  other.for_each_observed([&](ListId list, const net::IntervalSet& days) {
    for (const net::IntervalSet::Interval& span : days.intervals()) {
      mark_observed_span(list, span.begin, span.end);
    }
  });
}

const net::IntervalSet* SnapshotStore::observed_days(ListId list) const {
  const auto it = observed_.find(list);
  return it == observed_.end() ? nullptr : &it->second;
}

net::IntervalSet SnapshotStore::bridged_presence(
    ListId list, net::Ipv4Address address) const {
  net::IntervalSet bridged;
  const net::IntervalSet raw = presence(list, address);
  if (raw.empty()) return bridged;
  const net::IntervalSet* observed = observed_days(list);
  const auto& intervals = raw.intervals();
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    bridged.insert(intervals[i].begin, intervals[i].end);
    if (i + 1 == intervals.size() || observed == nullptr) continue;
    // The listing vanished over [end, next.begin). If the feed was never
    // snapshotted on any of those days, the absence was unobservable —
    // fill the hole so the two runs merge.
    if (observed->overlap(intervals[i].end, intervals[i + 1].begin) == 0) {
      bridged.insert(intervals[i].end, intervals[i + 1].begin);
    }
  }
  return bridged;
}

std::size_t SnapshotStore::listing_count() const {
  fold();
  return listing_count_;
}

const std::vector<net::Ipv4Address>& SnapshotStore::sorted_addresses() const {
  fold();
  return all_addresses_;
}

bool SnapshotStore::contains_address(net::Ipv4Address address) const {
  fold();
  ensure_bitmap();
  if (!bitmap_may_contain(address)) return false;
  return std::binary_search(all_addresses_.begin(), all_addresses_.end(),
                            address);
}

std::vector<net::Ipv4Address> SnapshotStore::addresses_of(ListId list) const {
  fold();
  const ListColumn* column = column_of(list);
  if (column == nullptr) return {};
  std::vector<net::Ipv4Address> out;
  out.reserve(column->addrs.size());
  for (const std::uint32_t value : column->addrs) {
    out.emplace_back(value);
  }
  return out;
}

std::size_t SnapshotStore::address_count_of(ListId list) const {
  fold();
  const ListColumn* column = column_of(list);
  return column == nullptr ? 0 : column->addrs.size();
}

std::vector<ListId> SnapshotStore::active_lists() const {
  fold();
  std::vector<ListId> out;
  out.reserve(columns_.size());
  for (const auto& [list, column] : columns_) {
    if (!column.addrs.empty()) out.push_back(list);
  }
  return out;
}

net::PrefixSet SnapshotStore::blocklisted_slash24s() const {
  fold();
  net::PrefixSet prefixes;
  std::uint32_t last_key = 0;
  bool have_last = false;
  for (const net::Ipv4Address address : all_addresses_) {
    const std::uint32_t key = address.value() >> 8;
    if (have_last && key == last_key) continue;
    prefixes.insert(net::Ipv4Prefix::slash24_of(address));
    last_key = key;
    have_last = true;
  }
  return prefixes;
}

std::size_t SnapshotStore::memory_bytes() const {
  std::size_t bytes = slash24_bits_.size() * sizeof(std::uint64_t) +
                      all_addresses_.size() * sizeof(net::Ipv4Address) +
                      pending_.size() * sizeof(PendingListing);
  for (const auto& [list, column] : columns_) {
    bytes += column.addrs.size() * sizeof(std::uint32_t) +
             column.run_offsets.size() * sizeof(std::uint32_t) +
             column.runs.size() * sizeof(net::IntervalSet::Interval);
  }
  return bytes;
}

}  // namespace reuse::blocklist
