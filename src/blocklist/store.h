// Presence store: which address was on which blocklist on which day.
//
// Everything Section 5 measures comes from this structure: listings (the
// (list, address) pairs), per-list reused-address counts, and the
// duration-in-blocklist distributions of Figure 7.
//
// Layout (world-scale rebuild): instead of one heap-allocated IntervalSet
// per (list, address) pair in an unordered_map, listings live in per-list
// columns —
//
//   addrs        sorted unique u32 addresses of the list
//   run_offsets  size addrs+1, slicing the run column per address
//   runs         coalesced half-open day intervals, begin-sorted per address
//
// so a million listings cost ~24 bytes each in three flat arrays rather
// than a node + vector header each. Writes append to a small pending buffer
// that is *folded* into the columns by a sort + two-pointer merge whenever
// it crosses a geometric threshold: per-day recording of a stable listing
// coalesces into one run at fold time, which is what keeps peak RSS flat as
// simulated days accumulate (the streaming-evolution memory model,
// DESIGN.md). Point lookups first consult a /24 occupancy bitmap (2 MiB,
// built lazily on the first point query so short-lived per-feed fragment
// stores never pay for it) and then binary-search the owning column.
//
// The store is single-writer: mutation and the fold it triggers are not
// thread safe. Concurrent *reads* are safe once folded — every parallel
// consumer performs a serial read (which folds) before fanning out.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "blocklist/types.h"
#include "netbase/interval_set.h"
#include "netbase/ipv4.h"
#include "netbase/prefix_trie.h"

namespace reuse::blocklist {

class SnapshotStore {
 public:
  /// Marks `address` present on `list` for day index `day` (one day long).
  void record(ListId list, net::Ipv4Address address, std::int64_t day);

  /// Marks `address` present on `list` for every day in [begin, end) in one
  /// append — O(1) amortized, folded into compressed runs in batches. The
  /// cache loader restores multi-week listings through this path; `record()`
  /// is the one-day special case. No-op when begin >= end.
  void record_span(ListId list, net::Ipv4Address address, std::int64_t begin,
                   std::int64_t end);

  /// Presence intervals (in day units) of one listing, materialized from
  /// the compressed runs. Empty iff the pair was never recorded (a listing
  /// always covers at least one day).
  [[nodiscard]] net::IntervalSet presence(ListId list,
                                          net::Ipv4Address address) const;

  /// True iff (list, address) was ever recorded — the allocation-free form
  /// of !presence(...).empty().
  [[nodiscard]] bool has_listing(ListId list, net::Ipv4Address address) const;

  /// Records that `list` was actually snapshotted on `day` — the feed was
  /// fetched and parsed, whether or not it held entries. Days never marked
  /// are gaps: absence of a listing on them is "unknown", not "delisted".
  void mark_observed(ListId list, std::int64_t day);
  void mark_observed_span(ListId list, std::int64_t begin, std::int64_t end);

  /// Records every listing and observed-day span of `other` into this
  /// store: the fold of a per-feed fragment into the merged store, and of a
  /// resumed run's new-era recordings into the base store. The runs
  /// coalesce across the seam, so the result equals having recorded both
  /// in one store.
  void merge_from(const SnapshotStore& other);

  /// Days on which `list` was snapshotted, or nullptr if never marked.
  [[nodiscard]] const net::IntervalSet* observed_days(ListId list) const;

  /// Presence of one listing with unobservable holes bridged: two presence
  /// intervals separated only by days the list was never snapshotted merge
  /// into one (the address may well have stayed listed through the outage;
  /// splitting the listing would fabricate a delist/relist cycle). A gap
  /// containing even one observed absence stays a gap. Lists with no
  /// observed-day record (stores built before gap tracking) pass through
  /// unchanged.
  [[nodiscard]] net::IntervalSet bridged_presence(ListId list,
                                                  net::Ipv4Address address) const;

  /// Number of distinct (list, address) pairs ever present.
  [[nodiscard]] std::size_t listing_count() const;

  /// Distinct addresses across all lists, ascending — the canonical
  /// ordering every consumer (serving-snapshot compiler, reused-address
  /// list, coverage analysis) iterates.
  [[nodiscard]] const std::vector<net::Ipv4Address>& sorted_addresses() const;

  /// True iff `address` was ever present on any list. /24-bitmap
  /// fast-reject, then a column binary search.
  [[nodiscard]] bool contains_address(net::Ipv4Address address) const;

  /// Distinct addresses across all lists.
  [[nodiscard]] std::size_t address_count() const {
    return sorted_addresses().size();
  }

  /// Distinct addresses ever present on one list, ascending.
  [[nodiscard]] std::vector<net::Ipv4Address> addresses_of(ListId list) const;
  [[nodiscard]] std::size_t address_count_of(ListId list) const;

  /// Lists that ever held at least one entry, ascending.
  [[nodiscard]] std::vector<ListId> active_lists() const;

  /// The covering /24s of every blocklisted address (crawler restriction and
  /// coverage analysis).
  [[nodiscard]] net::PrefixSet blocklisted_slash24s() const;

  /// Visits every listing in ascending (list, address) order:
  /// fn(ListId, Ipv4Address, const IntervalSet&). The IntervalSet is a
  /// transient materialized from the compressed runs — valid only for the
  /// duration of the callback; do not retain a pointer to it.
  template <typename Fn>
  void for_each_listing(Fn&& fn) const {
    fold();
    net::IntervalSet scratch;
    for (const auto& [list, column] : columns_) {
      for (std::size_t i = 0; i < column.addrs.size(); ++i) {
        materialize(column, i, &scratch);
        fn(list, net::Ipv4Address(column.addrs[i]), scratch);
      }
    }
  }

  /// Visits every list's observed-day record in ascending list order:
  /// fn(ListId, const IntervalSet&).
  template <typename Fn>
  void for_each_observed(Fn&& fn) const {
    for (const auto& [list, days] : observed_) {
      fn(list, days);
    }
  }

  /// Bytes of heap held by the folded columns, pending buffer, address
  /// universe and /24 bitmap (the occupancy gauge input).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// One list's listings: SoA columns, index-aligned on the address rank.
  struct ListColumn {
    std::vector<std::uint32_t> addrs;        ///< sorted unique
    std::vector<std::uint32_t> run_offsets;  ///< size addrs+1, into runs
    std::vector<net::IntervalSet::Interval> runs;  ///< coalesced, per address
  };
  struct PendingListing {
    ListId list = 0;
    std::uint32_t addr = 0;
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

  /// Folds pending_ into the columns. Cheap no-op when nothing is pending;
  /// const because every read accessor triggers it (members are mutable).
  void fold() const;
  [[nodiscard]] std::size_t fold_threshold() const;
  static void merge_column(ListColumn* column,
                           const PendingListing* first,
                           const PendingListing* last);
  void materialize(const ListColumn& column, std::size_t index,
                   net::IntervalSet* out) const;
  [[nodiscard]] const ListColumn* column_of(ListId list) const;
  void ensure_bitmap() const;
  [[nodiscard]] bool bitmap_may_contain(net::Ipv4Address address) const;

  mutable std::map<ListId, ListColumn> columns_;
  mutable std::vector<PendingListing> pending_;
  mutable std::vector<net::Ipv4Address> all_addresses_;  ///< sorted unique
  mutable std::size_t listing_count_ = 0;  ///< folded (list, addr) pairs
  /// One bit per /24 with any listing; empty until the first point query.
  mutable std::vector<std::uint64_t> slash24_bits_;
  std::map<ListId, net::IntervalSet> observed_;
};

}  // namespace reuse::blocklist
