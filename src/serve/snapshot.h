// Compiled blocklist snapshot: the immutable artifact `lookupd` serves.
//
// The paper's actionable output (§6) is a published reused-address list
// that operators consult at enforcement time. The offline pipeline produces
// that list as text; this module compiles the same knowledge — per-address
// listing state, NAT/dynamic reuse flags, and /24 dynamic-pool context —
// into a flat, checksummed binary artifact built for query serving:
//
//   * No pointers. Four sorted arrays (bucket keys, bucket offsets,
//     addresses, verdict words) plus a sorted dynamic-/24 array; the whole
//     payload is position-independent and mmap-friendly.
//   * Two-level lookup. A query binary-searches the occupied-/24 bucket
//     array (addr >> 8), then the at-most-256 entries of that bucket —
//     both branch-predictable lower_bound loops over contiguous memory.
//   * Verdicts are one 32-bit word: listed/NATed/dynamic flags in the low
//     byte and a membership bitmap of the top-`kMaxTopLists` lists (by
//     distinct-address count) in the high bits, so one load answers both
//     "block or greylist?" and "which major feeds said so?".
//   * Deterministic bytes. Entries are the sorted union of blocklisted and
//     NATed addresses; per-entry verdict computation is index-addressed, so
//     building with a thread pool is byte-identical to building serially.
//     The same inputs always serialize to the same artifact (and the same
//     fingerprint), which CI cross-checks against the run manifest.
//
// On disk the snapshot and its deltas are net::save_artifact envelopes
// (DESIGN.md §6/§10), like the scenario cache: magic, version, an 8-byte
// format header, payload size, FNV-1a payload checksum, then the payload.
// Loads are bounded by the file, and truncation, trailing bytes or bit
// flips reject with distinct diagnostics rather than crash.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blocklist/store.h"
#include "blocklist/types.h"
#include "netbase/ipv4.h"
#include "netbase/prefix_trie.h"

namespace reuse::net {
class ThreadPool;
}

namespace reuse::serve {

/// On-disk magics of the two serve artifacts. Exposed (with file_magic)
/// so LookupEngine::reload can sniff which loader a file belongs to
/// without attempting both.
inline constexpr std::uint64_t kCompiledSnapshotMagic =
    0x524555534c4bULL;  // "REUSLK"
inline constexpr std::uint64_t kSnapshotDeltaMagic =
    0x52455553444cULL;  // "REUSDL"

/// First 8 bytes of `path` as a little-endian word; 0 when the file is
/// missing, unreadable, or shorter than a magic.
[[nodiscard]] std::uint64_t file_magic(const std::string& path);

/// Verdict bit assignments inside a compiled snapshot's 32-bit word.
inline constexpr std::uint32_t kVerdictListed = 1u << 0;
inline constexpr std::uint32_t kVerdictNated = 1u << 1;
inline constexpr std::uint32_t kVerdictDynamic = 1u << 2;
/// Bits [kTopListShift, 32) form the top-list membership bitmap.
inline constexpr int kTopListShift = 8;
inline constexpr int kMaxTopLists = 32 - kTopListShift;

/// One query answer. A plain word wrapper: cheap to copy, nothing to free,
/// safe to hand across threads.
struct Verdict {
  std::uint32_t bits = 0;

  [[nodiscard]] constexpr bool listed() const {
    return (bits & kVerdictListed) != 0;
  }
  [[nodiscard]] constexpr bool nated() const {
    return (bits & kVerdictNated) != 0;
  }
  /// The covering /24 of the queried address overlaps a detected dynamic
  /// pool. Carried for *every* query, listed or not — churn context is the
  /// reason to greylist rather than hard-block (paper §6).
  [[nodiscard]] constexpr bool dynamic() const {
    return (bits & kVerdictDynamic) != 0;
  }
  [[nodiscard]] constexpr bool reused() const { return nated() || dynamic(); }
  /// The paper's enforcement advice: greylist listed-but-reused addresses.
  [[nodiscard]] constexpr bool greylist() const { return listed() && reused(); }
  /// Membership bitmap over CompiledSnapshot::top_lists() (bit k = list k).
  [[nodiscard]] constexpr std::uint32_t list_bitmap() const {
    return bits >> kTopListShift;
  }

  friend constexpr bool operator==(Verdict, Verdict) = default;
};

/// The immutable compiled artifact. Built by SnapshotBuilder or loaded from
/// disk; never mutated afterwards, so any number of threads may query one
/// instance concurrently without synchronization.
class CompiledSnapshot {
 public:
  /// O(log buckets + log 256) point query; allocation-free.
  [[nodiscard]] Verdict verdict(net::Ipv4Address address) const;

  /// Answers queries[i] into out[i]. Precondition: out.size() >= queries
  /// .size(). Allocation-free; the batch shares bucket-search state warmup.
  void verdict_batch(std::span<const net::Ipv4Address> queries,
                     std::span<Verdict> out) const;

  /// Distinct addresses carrying a non-trivial verdict word (the sorted
  /// union of blocklisted and NATed addresses).
  [[nodiscard]] std::size_t entry_count() const { return addresses_.size(); }
  /// Occupied /24 buckets.
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  /// /24 blocks overlapping a detected dynamic pool.
  [[nodiscard]] std::size_t dynamic24_count() const {
    return dynamic24_.size();
  }
  /// List ids behind Verdict::list_bitmap(), ordered bit 0 upward (largest
  /// list first; ties break toward the smaller id).
  [[nodiscard]] const std::vector<blocklist::ListId>& top_lists() const {
    return top_lists_;
  }
  /// Fingerprint of the producing scenario (caller-supplied at build time;
  /// 0 when built outside a scenario).
  [[nodiscard]] std::uint64_t source_fingerprint() const {
    return source_fingerprint_;
  }
  /// FNV-1a of the serialized payload: two snapshots answer identically iff
  /// their fingerprints match. This is the value the run manifest and
  /// BENCH_lookup.json both record and CI cross-checks.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  /// fingerprint() as 16 hex digits, the JSON rendering.
  [[nodiscard]] std::string fingerprint_hex() const;

  /// Serializes the artifact to `path` atomically (tmp file + rename);
  /// false on I/O failure, in which case no partial file is left behind.
  [[nodiscard]] bool save(const std::string& path) const;

  /// Loads and validates an artifact: magic, format version, a payload
  /// size the file actually holds, FNV-1a payload checksum, and structural
  /// invariants (sorted arrays, monotonic bucket offsets, entries filed
  /// under the right /24). Truncated, padded, or bit-flipped files return
  /// nullopt — never a partially initialized snapshot.
  [[nodiscard]] static std::optional<CompiledSnapshot> load(
      const std::string& path);

  /// Same validation, but every rejection writes a *distinct* diagnostic
  /// into `*error` (zero-length file vs unreadable path vs mid-write
  /// truncation vs checksum mismatch vs structural violation...), so an
  /// operator staring at a failed reload knows which failure mode hit
  /// without strace. `error` may be null.
  [[nodiscard]] static std::optional<CompiledSnapshot> load(
      const std::string& path, std::string* error);

  /// All entry addresses whose verdict satisfies `mask` (every bit of
  /// `mask` set). Used by the load generator to sample listed/reused
  /// query targets; not a hot path.
  [[nodiscard]] std::vector<net::Ipv4Address> entries_matching(
      std::uint32_t mask) const;

 private:
  friend class SnapshotBuilder;
  friend class SnapshotDelta;

  [[nodiscard]] std::string payload_bytes() const;
  void seal();  ///< recomputes fingerprint_ from the payload

  std::vector<std::uint32_t> buckets_;         ///< sorted /24 keys (addr>>8)
  std::vector<std::uint32_t> bucket_offsets_;  ///< size buckets+1, into arrays
  std::vector<std::uint32_t> addresses_;       ///< sorted entry addresses
  std::vector<std::uint32_t> verdicts_;        ///< parallel verdict words
  std::vector<std::uint32_t> dynamic24_;       ///< sorted dynamic /24 keys
  std::vector<blocklist::ListId> top_lists_;
  std::uint64_t source_fingerprint_ = 0;
  std::uint64_t fingerprint_ = 0;
};

/// Delta between two compiled snapshots: the artifact an incremental
/// pipeline ships to a running `lookupd` instead of a full snapshot.
///
/// A delta is keyed by the BASE snapshot's payload fingerprint and records
/// only what changed: entry removals, entry upserts (new address or changed
/// verdict word), dynamic-/24 removals/additions, and the (small) top-list
/// table as a whole. apply() refuses a base whose fingerprint does not
/// match, rebuilds the target arrays by a linear merge, and then verifies
/// the rebuilt payload hashes to the recorded TARGET fingerprint — so a
/// delta can never silently produce a snapshot other than the one diff()
/// saw, no matter what happened to the file in between.
///
/// On disk it is the snapshot's artifact envelope with its own magic and a
/// reserved header word; CompiledSnapshot::load and SnapshotDelta::load each
/// reject the other's files on magic alone, which is what lets
/// LookupEngine::reload sniff the file kind.
class SnapshotDelta {
 public:
  /// Fingerprint of the snapshot this delta applies on top of.
  [[nodiscard]] std::uint64_t base_fingerprint() const {
    return base_fingerprint_;
  }
  /// Fingerprint the applied result must hash to.
  [[nodiscard]] std::uint64_t target_fingerprint() const {
    return target_fingerprint_;
  }
  [[nodiscard]] std::size_t removed_count() const { return removed_.size(); }
  [[nodiscard]] std::size_t upsert_count() const { return upserts_.size(); }
  [[nodiscard]] std::size_t dynamic24_removed_count() const {
    return dynamic24_removed_.size();
  }
  [[nodiscard]] std::size_t dynamic24_added_count() const {
    return dynamic24_added_.size();
  }
  /// True when the delta carries no changes (base == target byte-wise).
  [[nodiscard]] bool empty() const {
    return removed_.empty() && upserts_.empty() &&
           dynamic24_removed_.empty() && dynamic24_added_.empty() &&
           !top_lists_changed_;
  }

  /// Applies the delta to `base`, producing the target snapshot. Returns
  /// nullopt (with a distinct diagnostic in `*error`, which may be null)
  /// when `base`'s fingerprint does not match base_fingerprint(), or when
  /// the rebuilt payload does not hash to target_fingerprint().
  [[nodiscard]] std::optional<CompiledSnapshot> apply(
      const CompiledSnapshot& base, std::string* error = nullptr) const;

  /// Serializes atomically (tmp file + rename), like CompiledSnapshot.
  [[nodiscard]] bool save(const std::string& path) const;

  /// Loads and validates a delta artifact: the same envelope checks as
  /// CompiledSnapshot::load, bounded counts, sorted-array invariants.
  /// Rejections carry distinct diagnostics; a compiled-snapshot file is
  /// rejected on magic.
  [[nodiscard]] static std::optional<SnapshotDelta> load(
      const std::string& path, std::string* error = nullptr);

 private:
  friend class SnapshotBuilder;

  [[nodiscard]] std::string payload_bytes() const;

  std::uint64_t base_fingerprint_ = 0;
  std::uint64_t target_fingerprint_ = 0;
  std::uint64_t target_source_fingerprint_ = 0;
  std::vector<std::uint32_t> removed_;  ///< sorted addresses leaving the set
  /// (address, verdict) for new or re-worded entries, address-sorted.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> upserts_;
  std::vector<std::uint32_t> dynamic24_removed_;  ///< sorted /24 keys
  std::vector<std::uint32_t> dynamic24_added_;    ///< sorted /24 keys
  /// Replacement top-list table, shipped whole (<= kMaxTopLists entries).
  std::vector<blocklist::ListId> top_lists_;
  bool top_lists_changed_ = false;
};

/// Compiles the offline pipeline's products into a CompiledSnapshot.
///
/// Inputs mirror analysis::build_reused_address_list: the presence store,
/// the crawler's NATed set, and the dynamic-prefix set from the Atlas
/// pipeline; `catalogue` (optional) ranks the top lists for the bitmap.
/// Dynamic prefixes are projected to covering /24s — the paper's pool
/// granularity — so a prefix shorter than /24 contributes every /24 it
/// covers and a longer one its covering block.
class SnapshotBuilder {
 public:
  SnapshotBuilder& with_store(const blocklist::SnapshotStore& store) {
    store_ = &store;
    return *this;
  }
  SnapshotBuilder& with_nated(
      const std::unordered_set<net::Ipv4Address>& nated) {
    nated_ = &nated;
    return *this;
  }
  SnapshotBuilder& with_dynamic(const net::PrefixSet& dynamic) {
    dynamic_ = &dynamic;
    return *this;
  }
  SnapshotBuilder& with_catalogue(
      const std::vector<blocklist::BlocklistInfo>& catalogue) {
    catalogue_ = &catalogue;
    return *this;
  }
  SnapshotBuilder& with_source_fingerprint(std::uint64_t fingerprint) {
    source_fingerprint_ = fingerprint;
    return *this;
  }

  /// Builds the artifact. `pool` parallelizes the per-entry verdict pass
  /// (nullptr = serial); every entry writes only its own index-addressed
  /// slot, so the resulting bytes are identical for any pool size.
  [[nodiscard]] CompiledSnapshot build(net::ThreadPool* pool = nullptr) const;

  /// Structural diff of two compiled snapshots, keyed by `base`'s
  /// fingerprint and sealed with `next`'s: apply(base) == next, bytes and
  /// all. Both snapshots are left untouched; diff(x, x) is empty().
  [[nodiscard]] static SnapshotDelta diff(const CompiledSnapshot& base,
                                          const CompiledSnapshot& next);

 private:
  const blocklist::SnapshotStore* store_ = nullptr;
  const std::unordered_set<net::Ipv4Address>* nated_ = nullptr;
  const net::PrefixSet* dynamic_ = nullptr;
  const std::vector<blocklist::BlocklistInfo>* catalogue_ = nullptr;
  std::uint64_t source_fingerprint_ = 0;
};

}  // namespace reuse::serve
