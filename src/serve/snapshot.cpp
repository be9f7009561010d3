#include "serve/snapshot.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <unordered_map>

#include "netbase/json.h"
#include "netbase/serialize.h"
#include "netbase/thread_pool.h"

namespace reuse::serve {
namespace {

// The snapshot's format header is its source fingerprint (u64); the
// delta's is one reserved word, written as 0 and ignored on load.
constexpr net::ArtifactFormat kSnapshotFormat{kCompiledSnapshotMagic, 1, 8,
                                              "compiled snapshot"};
constexpr net::ArtifactFormat kDeltaFormat{kSnapshotDeltaMagic, 1, 8,
                                           "snapshot delta"};

// Decoder bounds: a corrupt count must fail the load immediately, never
// drive a multi-billion-element read loop. IPv4 caps everything naturally.
constexpr std::uint64_t kMaxEntries = 1ULL << 32;
constexpr std::uint64_t kMaxBuckets = 1ULL << 24;

void write_u32_array(net::BinaryWriter& writer,
                     const std::vector<std::uint32_t>& values) {
  writer.write(static_cast<std::uint64_t>(values.size()));
  for (const std::uint32_t v : values) writer.write(v);
}

[[nodiscard]] bool read_u32_array(net::BinaryReader& reader,
                                  std::uint64_t sanity_limit,
                                  std::vector<std::uint32_t>& out) {
  const std::uint64_t count = reader.read_size(sanity_limit);
  if (!reader.ok()) return false;
  out.resize(count);
  for (std::uint64_t i = 0; i < count && reader.ok(); ++i) {
    out[i] = reader.read<std::uint32_t>();
  }
  return reader.ok();
}

[[nodiscard]] bool strictly_increasing(const std::vector<std::uint32_t>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[i - 1]) return false;
  }
  return true;
}

/// Sorted-array membership: the /24-context probe on the query path.
[[nodiscard]] inline bool sorted_contains(const std::vector<std::uint32_t>& v,
                                          std::uint32_t key) {
  const auto it = std::lower_bound(v.begin(), v.end(), key);
  return it != v.end() && *it == key;
}

/// Rebuilds the /24 bucket index over a sorted entry array — shared by the
/// full build and the delta apply so both produce identical index bytes.
void build_bucket_index(const std::vector<std::uint32_t>& addresses,
                        std::vector<std::uint32_t>& buckets,
                        std::vector<std::uint32_t>& offsets) {
  buckets.clear();
  offsets.clear();
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    const std::uint32_t key = addresses[i] >> 8;
    if (buckets.empty() || buckets.back() != key) {
      buckets.push_back(key);
      offsets.push_back(static_cast<std::uint32_t>(i));
    }
  }
  offsets.push_back(static_cast<std::uint32_t>(addresses.size()));
  if (buckets.empty()) offsets.clear();
}

/// One u64 as the 8-byte format header save_artifact() frames.
std::string header_word(std::uint64_t word) {
  std::string header;
  net::BinaryWriter writer(header);
  writer.write(word);
  return header;
}

}  // namespace

std::uint64_t file_magic(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  char bytes[8];
  if (!is.read(bytes, sizeof(bytes))) return 0;
  return net::BinaryReader({bytes, sizeof(bytes)}).read<std::uint64_t>();
}

Verdict CompiledSnapshot::verdict(net::Ipv4Address address) const {
  const std::uint32_t value = address.value();
  const std::uint32_t key = value >> 8;
  std::uint32_t bits = 0;
  // /24 churn context is answered for every query, listed or not.
  if (sorted_contains(dynamic24_, key)) bits |= kVerdictDynamic;
  const auto bucket = std::lower_bound(buckets_.begin(), buckets_.end(), key);
  if (bucket != buckets_.end() && *bucket == key) {
    const auto b = static_cast<std::size_t>(bucket - buckets_.begin());
    const auto lo = addresses_.begin() + bucket_offsets_[b];
    const auto hi = addresses_.begin() + bucket_offsets_[b + 1];
    const auto entry = std::lower_bound(lo, hi, value);
    if (entry != hi && *entry == value) {
      bits |= verdicts_[static_cast<std::size_t>(entry - addresses_.begin())];
    }
  }
  return Verdict{bits};
}

void CompiledSnapshot::verdict_batch(std::span<const net::Ipv4Address> queries,
                                     std::span<Verdict> out) const {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    out[i] = verdict(queries[i]);
  }
}

std::vector<net::Ipv4Address> CompiledSnapshot::entries_matching(
    std::uint32_t mask) const {
  std::vector<net::Ipv4Address> out;
  for (std::size_t i = 0; i < addresses_.size(); ++i) {
    if ((verdicts_[i] & mask) == mask) {
      out.emplace_back(addresses_[i]);
    }
  }
  return out;
}

std::string CompiledSnapshot::payload_bytes() const {
  std::string payload;
  net::BinaryWriter writer(payload);
  write_u32_array(writer, buckets_);
  write_u32_array(writer, bucket_offsets_);
  write_u32_array(writer, addresses_);
  write_u32_array(writer, verdicts_);
  write_u32_array(writer, dynamic24_);
  writer.write(static_cast<std::uint64_t>(top_lists_.size()));
  for (const blocklist::ListId list : top_lists_) writer.write(list);
  return payload;
}

void CompiledSnapshot::seal() {
  fingerprint_ = net::fnv1a_64(payload_bytes());
}

std::string CompiledSnapshot::fingerprint_hex() const {
  return net::hex16(fingerprint_);
}

bool CompiledSnapshot::save(const std::string& path) const {
  return net::save_artifact(path, kSnapshotFormat,
                            header_word(source_fingerprint_), payload_bytes());
}

std::optional<CompiledSnapshot> CompiledSnapshot::load(
    const std::string& path) {
  return load(path, nullptr);
}

std::optional<CompiledSnapshot> CompiledSnapshot::load(
    const std::string& path, std::string* error) {
  // Each rejection path carries its own message: "which failure mode hit"
  // is the whole point of the rejection matrix, and the tests pin the
  // messages apart so two modes can never collapse into one diagnostic.
  const auto fail = [&](const std::string& why) -> std::optional<CompiledSnapshot> {
    if (error != nullptr) *error = "snapshot load failed: " + why;
    return std::nullopt;
  };

  const net::LoadedArtifact file = net::load_artifact(path, kSnapshotFormat);
  if (!file.ok()) return fail(file.error);

  CompiledSnapshot snapshot;
  snapshot.source_fingerprint_ =
      net::BinaryReader(file.header).read<std::uint64_t>();
  net::BinaryReader body(file.payload);
  if (!read_u32_array(body, kMaxBuckets, snapshot.buckets_) ||
      !read_u32_array(body, kMaxBuckets + 1, snapshot.bucket_offsets_) ||
      !read_u32_array(body, kMaxEntries, snapshot.addresses_) ||
      !read_u32_array(body, kMaxEntries, snapshot.verdicts_) ||
      !read_u32_array(body, kMaxBuckets, snapshot.dynamic24_)) {
    return fail("payload arrays inconsistent with their counts");
  }
  const std::uint64_t top_count =
      body.read_size(static_cast<std::uint64_t>(kMaxTopLists));
  if (!body.ok()) return fail("top-list count out of range");
  snapshot.top_lists_.resize(top_count);
  for (std::uint64_t i = 0; i < top_count && body.ok(); ++i) {
    snapshot.top_lists_[i] = body.read<blocklist::ListId>();
  }
  if (!body.ok()) return fail("payload arrays inconsistent with their counts");
  if (!body.at_end()) return fail("payload longer than its arrays");

  // Structural invariants: the checksum catches random corruption, these
  // catch a well-formed file that could still index out of bounds.
  if (snapshot.verdicts_.size() != snapshot.addresses_.size()) {
    return fail("structural violation: verdict/address array size mismatch");
  }
  if (!strictly_increasing(snapshot.buckets_) ||
      !strictly_increasing(snapshot.addresses_) ||
      !strictly_increasing(snapshot.dynamic24_)) {
    return fail("structural violation: arrays not strictly increasing");
  }
  if (snapshot.buckets_.empty()) {
    // An empty index must describe an empty entry table.
    if (!snapshot.bucket_offsets_.empty() || !snapshot.addresses_.empty()) {
      return fail("structural violation: entries without a bucket index");
    }
  } else {
    if (snapshot.bucket_offsets_.size() != snapshot.buckets_.size() + 1 ||
        snapshot.bucket_offsets_.front() != 0 ||
        snapshot.bucket_offsets_.back() != snapshot.addresses_.size()) {
      return fail("structural violation: malformed bucket offsets");
    }
    for (std::size_t b = 0; b < snapshot.buckets_.size(); ++b) {
      if (snapshot.bucket_offsets_[b] >= snapshot.bucket_offsets_[b + 1]) {
        return fail("structural violation: empty or reversed bucket");
      }
      for (std::uint32_t i = snapshot.bucket_offsets_[b];
           i < snapshot.bucket_offsets_[b + 1]; ++i) {
        if ((snapshot.addresses_[i] >> 8) != snapshot.buckets_[b]) {
          return fail("structural violation: entry filed under the wrong /24");
        }
      }
    }
  }
  for (const std::uint32_t key : snapshot.dynamic24_) {
    if (key >= (1u << 24)) {
      return fail("structural violation: dynamic /24 key out of range");
    }
  }

  snapshot.seal();
  return snapshot;
}

CompiledSnapshot SnapshotBuilder::build(net::ThreadPool* pool) const {
  CompiledSnapshot snapshot;
  snapshot.source_fingerprint_ = source_fingerprint_;

  // Entries: sorted union of blocklisted and NATed addresses. The NATed set
  // is included even where unlisted, so a verdict answers "reused?" exactly
  // as the offline oracle (store + detector sets) would.
  std::vector<std::uint32_t> entries;
  if (store_ != nullptr) {
    for (const net::Ipv4Address address : store_->sorted_addresses()) {
      entries.push_back(address.value());
    }
  }
  if (nated_ != nullptr) {
    entries.reserve(entries.size() + nated_->size());
    for (const net::Ipv4Address address : *nated_) {
      entries.push_back(address.value());
    }
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  snapshot.addresses_ = std::move(entries);

  // Dynamic pools projected to the paper's /24 granularity: a prefix
  // shorter than /24 contributes every /24 it covers, a longer one its
  // covering block.
  if (dynamic_ != nullptr) {
    for (const net::Ipv4Prefix& prefix : dynamic_->to_vector()) {
      const std::uint32_t first = prefix.first_address().value() >> 8;
      const std::uint32_t last = prefix.last_address().value() >> 8;
      for (std::uint32_t key = first; key <= last; ++key) {
        snapshot.dynamic24_.push_back(key);
      }
    }
    std::sort(snapshot.dynamic24_.begin(), snapshot.dynamic24_.end());
    snapshot.dynamic24_.erase(
        std::unique(snapshot.dynamic24_.begin(), snapshot.dynamic24_.end()),
        snapshot.dynamic24_.end());
  }

  // Top lists for the per-list bitmap: by distinct-address count, largest
  // first; ties break toward the smaller id so the ranking is total.
  std::unordered_map<blocklist::ListId, int> bit_of;
  if (store_ != nullptr) {
    std::vector<blocklist::ListId> ranked;
    if (catalogue_ != nullptr) {
      for (const blocklist::BlocklistInfo& info : *catalogue_) {
        ranked.push_back(info.id);
      }
    } else {
      ranked = store_->active_lists();
    }
    std::sort(ranked.begin(), ranked.end(),
              [&](blocklist::ListId a, blocklist::ListId b) {
                const std::size_t ca = store_->address_count_of(a);
                const std::size_t cb = store_->address_count_of(b);
                return ca != cb ? ca > cb : a < b;
              });
    if (ranked.size() > static_cast<std::size_t>(kMaxTopLists)) {
      ranked.resize(static_cast<std::size_t>(kMaxTopLists));
    }
    snapshot.top_lists_ = std::move(ranked);
    for (std::size_t bit = 0; bit < snapshot.top_lists_.size(); ++bit) {
      bit_of[snapshot.top_lists_[bit]] = static_cast<int>(bit);
    }
  }

  // Per-address membership bitmap over the top lists. Built once, serially:
  // OR-ing bits is commutative, so the store's unordered iteration order
  // cannot leak into the result.
  std::unordered_map<std::uint32_t, std::uint32_t> membership;
  if (store_ != nullptr && !bit_of.empty()) {
    membership.reserve(store_->address_count());
    store_->for_each_listing([&](blocklist::ListId list,
                                 net::Ipv4Address address,
                                 const net::IntervalSet&) {
      const auto it = bit_of.find(list);
      if (it == bit_of.end()) return;
      membership[address.value()] |=
          1u << (kTopListShift + it->second);
    });
  }

  // Verdict pass: each entry writes only its own slot, so running it on a
  // pool is byte-identical to running it serially.
  snapshot.verdicts_.assign(snapshot.addresses_.size(), 0);
  const auto& addresses = snapshot.addresses_;
  const auto& dynamic24 = snapshot.dynamic24_;
  // Snapshot the store's sorted address column up front: the workers then
  // share a read-only binary search instead of racing the store's lazy
  // fold/bitmap machinery.
  static const std::vector<net::Ipv4Address> kNoListed;
  const std::vector<net::Ipv4Address>& listed =
      store_ != nullptr ? store_->sorted_addresses() : kNoListed;
  net::for_each_index(
      pool, addresses.size(),
      [&](std::size_t i) {
        const std::uint32_t value = addresses[i];
        const net::Ipv4Address address(value);
        std::uint32_t bits = 0;
        if (std::binary_search(listed.begin(), listed.end(), address)) {
          bits |= kVerdictListed;
        }
        if (nated_ != nullptr && nated_->contains(address)) {
          bits |= kVerdictNated;
        }
        if (sorted_contains(dynamic24, value >> 8)) {
          bits |= kVerdictDynamic;
        }
        if (const auto it = membership.find(value); it != membership.end()) {
          bits |= it->second;
        }
        snapshot.verdicts_[i] = bits;
      },
      /*grain=*/1024);

  // /24 bucket index over the sorted entries.
  build_bucket_index(snapshot.addresses_, snapshot.buckets_,
                     snapshot.bucket_offsets_);

  snapshot.seal();
  return snapshot;
}

SnapshotDelta SnapshotBuilder::diff(const CompiledSnapshot& base,
                                    const CompiledSnapshot& next) {
  SnapshotDelta delta;
  delta.base_fingerprint_ = base.fingerprint_;
  delta.target_fingerprint_ = next.fingerprint_;
  delta.target_source_fingerprint_ = next.source_fingerprint_;

  // Two-pointer walk over the sorted entry arrays: an address only in base
  // is a removal, only in next an upsert, in both with a different verdict
  // word a re-worded upsert.
  std::size_t bi = 0;
  std::size_t ni = 0;
  while (bi < base.addresses_.size() || ni < next.addresses_.size()) {
    if (ni == next.addresses_.size() ||
        (bi < base.addresses_.size() &&
         base.addresses_[bi] < next.addresses_[ni])) {
      delta.removed_.push_back(base.addresses_[bi]);
      ++bi;
    } else if (bi == base.addresses_.size() ||
               next.addresses_[ni] < base.addresses_[bi]) {
      delta.upserts_.emplace_back(next.addresses_[ni], next.verdicts_[ni]);
      ++ni;
    } else {
      if (base.verdicts_[bi] != next.verdicts_[ni]) {
        delta.upserts_.emplace_back(next.addresses_[ni], next.verdicts_[ni]);
      }
      ++bi;
      ++ni;
    }
  }

  std::set_difference(base.dynamic24_.begin(), base.dynamic24_.end(),
                      next.dynamic24_.begin(), next.dynamic24_.end(),
                      std::back_inserter(delta.dynamic24_removed_));
  std::set_difference(next.dynamic24_.begin(), next.dynamic24_.end(),
                      base.dynamic24_.begin(), base.dynamic24_.end(),
                      std::back_inserter(delta.dynamic24_added_));

  delta.top_lists_changed_ = base.top_lists_ != next.top_lists_;
  if (delta.top_lists_changed_) delta.top_lists_ = next.top_lists_;
  return delta;
}

std::string SnapshotDelta::payload_bytes() const {
  std::string payload;
  net::BinaryWriter writer(payload);
  writer.write(base_fingerprint_);
  writer.write(target_fingerprint_);
  writer.write(target_source_fingerprint_);
  write_u32_array(writer, removed_);
  writer.write(static_cast<std::uint64_t>(upserts_.size()));
  for (const auto& [address, verdict] : upserts_) {
    writer.write(address);
    writer.write(verdict);
  }
  write_u32_array(writer, dynamic24_removed_);
  write_u32_array(writer, dynamic24_added_);
  writer.write(static_cast<std::uint8_t>(top_lists_changed_ ? 1 : 0));
  writer.write(static_cast<std::uint64_t>(top_lists_.size()));
  for (const blocklist::ListId list : top_lists_) writer.write(list);
  return payload;
}

bool SnapshotDelta::save(const std::string& path) const {
  return net::save_artifact(path, kDeltaFormat, header_word(0),
                            payload_bytes());
}

std::optional<SnapshotDelta> SnapshotDelta::load(const std::string& path,
                                                 std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<SnapshotDelta> {
    if (error != nullptr) *error = "delta load failed: " + why;
    return std::nullopt;
  };

  const net::LoadedArtifact file = net::load_artifact(path, kDeltaFormat);
  if (!file.ok()) return fail(file.error);

  net::BinaryReader body(file.payload);
  SnapshotDelta delta;
  delta.base_fingerprint_ = body.read<std::uint64_t>();
  delta.target_fingerprint_ = body.read<std::uint64_t>();
  delta.target_source_fingerprint_ = body.read<std::uint64_t>();
  if (!read_u32_array(body, kMaxEntries, delta.removed_)) {
    return fail("payload arrays inconsistent with their counts");
  }
  const std::uint64_t upsert_count = body.read_size(kMaxEntries);
  if (!body.ok()) return fail("upsert count out of range");
  delta.upserts_.resize(upsert_count);
  for (std::uint64_t i = 0; i < upsert_count && body.ok(); ++i) {
    delta.upserts_[i].first = body.read<std::uint32_t>();
    delta.upserts_[i].second = body.read<std::uint32_t>();
  }
  if (!body.ok() ||
      !read_u32_array(body, kMaxBuckets, delta.dynamic24_removed_) ||
      !read_u32_array(body, kMaxBuckets, delta.dynamic24_added_)) {
    return fail("payload arrays inconsistent with their counts");
  }
  delta.top_lists_changed_ = body.read<std::uint8_t>() != 0;
  const std::uint64_t top_count =
      body.read_size(static_cast<std::uint64_t>(kMaxTopLists));
  if (!body.ok()) return fail("top-list count out of range");
  delta.top_lists_.resize(top_count);
  for (std::uint64_t i = 0; i < top_count && body.ok(); ++i) {
    delta.top_lists_[i] = body.read<blocklist::ListId>();
  }
  if (!body.ok()) return fail("payload arrays inconsistent with their counts");
  if (!body.at_end()) return fail("payload longer than its arrays");

  if (!strictly_increasing(delta.removed_) ||
      !strictly_increasing(delta.dynamic24_removed_) ||
      !strictly_increasing(delta.dynamic24_added_)) {
    return fail("structural violation: arrays not strictly increasing");
  }
  for (std::size_t i = 1; i < delta.upserts_.size(); ++i) {
    if (delta.upserts_[i].first <= delta.upserts_[i - 1].first) {
      return fail("structural violation: upserts not strictly increasing");
    }
  }
  return delta;
}

std::optional<CompiledSnapshot> SnapshotDelta::apply(
    const CompiledSnapshot& base, std::string* error) const {
  const auto fail = [&](const std::string& why) -> std::optional<CompiledSnapshot> {
    if (error != nullptr) *error = "delta apply failed: " + why;
    return std::nullopt;
  };
  if (base.fingerprint_ != base_fingerprint_) {
    return fail("base fingerprint mismatch: delta keyed to " +
                net::hex16(base_fingerprint_) + ", live snapshot is " +
                net::hex16(base.fingerprint_));
  }

  CompiledSnapshot next;
  next.source_fingerprint_ = target_source_fingerprint_;

  // Linear three-way merge of the sorted base entries with the sorted
  // removal and upsert streams. An upsert for an address also in base wins
  // over the base word; a removal drops the base entry.
  next.addresses_.reserve(base.addresses_.size() + upserts_.size());
  next.verdicts_.reserve(base.addresses_.size() + upserts_.size());
  std::size_t ri = 0;
  std::size_t ui = 0;
  auto push_upserts_below = [&](std::uint32_t limit) {
    while (ui < upserts_.size() && upserts_[ui].first < limit) {
      next.addresses_.push_back(upserts_[ui].first);
      next.verdicts_.push_back(upserts_[ui].second);
      ++ui;
    }
  };
  for (std::size_t i = 0; i < base.addresses_.size(); ++i) {
    const std::uint32_t address = base.addresses_[i];
    push_upserts_below(address);
    while (ri < removed_.size() && removed_[ri] < address) ++ri;
    if (ri < removed_.size() && removed_[ri] == address) {
      ++ri;
      continue;
    }
    if (ui < upserts_.size() && upserts_[ui].first == address) {
      next.addresses_.push_back(address);
      next.verdicts_.push_back(upserts_[ui].second);
      ++ui;
      continue;
    }
    next.addresses_.push_back(address);
    next.verdicts_.push_back(base.verdicts_[i]);
  }
  push_upserts_below(std::numeric_limits<std::uint32_t>::max());
  // The final upsert may target address 0xffffffff itself.
  if (ui < upserts_.size()) {
    next.addresses_.push_back(upserts_[ui].first);
    next.verdicts_.push_back(upserts_[ui].second);
  }

  std::set_difference(base.dynamic24_.begin(), base.dynamic24_.end(),
                      dynamic24_removed_.begin(), dynamic24_removed_.end(),
                      std::back_inserter(next.dynamic24_));
  std::vector<std::uint32_t> merged;
  merged.reserve(next.dynamic24_.size() + dynamic24_added_.size());
  std::merge(next.dynamic24_.begin(), next.dynamic24_.end(),
             dynamic24_added_.begin(), dynamic24_added_.end(),
             std::back_inserter(merged));
  next.dynamic24_ = std::move(merged);

  next.top_lists_ = top_lists_changed_ ? top_lists_ : base.top_lists_;

  build_bucket_index(next.addresses_, next.buckets_, next.bucket_offsets_);
  next.seal();
  if (next.fingerprint_ != target_fingerprint_) {
    // The merge reproduced *something*, but not the snapshot diff() saw —
    // a stale/foreign delta must never be published.
    return fail("applied result fingerprint " +
                net::hex16(next.fingerprint_) +
                " does not match delta target " +
                net::hex16(target_fingerprint_));
  }
  return next;
}

}  // namespace reuse::serve
