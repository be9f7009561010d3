// Blocklist ecosystem simulation.
//
// Drives the 151-list catalogue over the abuse-event stream: each list
// samples matching events at its pickup rate, holds entries until a
// retention timer past the last observation expires, and is snapshotted
// daily inside the measurement periods — mirroring the paper's collection of
// daily blocklist dumps over 39 + 44 days.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "blocklist/store.h"
#include "blocklist/types.h"
#include "internet/types.h"
#include "netbase/sim_time.h"
#include "simnet/faults.h"

namespace reuse::net {
class ThreadPool;
}

namespace reuse::blocklist {

struct EcosystemConfig {
  std::uint64_t seed = 11;
  /// Measurement periods (the paper: 39 days, then 44 days after a gap).
  /// Snapshots are taken at every whole day inside these windows; list state
  /// keeps evolving in the gap, exactly like the real collection.
  std::vector<net::TimeWindow> periods;
  /// Retention is a two-component mixture: many feeds auto-expire entries
  /// within a day or two (fail2ban-style reporting windows), while sticky
  /// entries ride the list's category retention. This reproduces Figure 7's
  /// heavy short-duration mass alongside multi-week tails.
  double short_retention_fraction = 0.55;
  double short_retention_mean_days = 0.8;
  /// Multiplier on the list's removal_mean_days for the sticky component
  /// (keeps overall means stable given the short component).
  double long_retention_factor = 2.2;
  /// Probability that a matching abuse event from an *already listed*
  /// address extends its listing. Monitoring a known-bad address is easier
  /// than discovering a new one, so this exceeds the pickup rate by far —
  /// it is what keeps persistently abusive (static) addresses listed long
  /// while rotated-away (dynamic) addresses fall off quickly (Figure 7).
  double reobservation_extend_rate = 0.08;
};

/// The paper's two collection periods, in simulation time: days 0–39 and
/// days 60–104 (a 21-day gap standing in for 10 Sep 2019 → 29 Mar 2020).
[[nodiscard]] std::vector<net::TimeWindow> paper_periods();

/// Per-feed collection health over the whole run. On a fault-free run every
/// snapshot day lands in `days_recorded` and everything else stays zero. The
/// per-list invariant `days_recorded + days_missed + days_quarantined +
/// days_salvaged == snapshots_taken` holds exactly.
struct FeedHealth {
  ListId list = 0;
  std::int64_t days_recorded = 0;     ///< clean daily dumps
  std::int64_t days_missed = 0;       ///< feed outage: no dump at all
  std::int64_t days_quarantined = 0;  ///< dump too mangled to trust
  std::int64_t days_salvaged = 0;     ///< mangled dump, clean lines kept
  std::uint64_t lines_skipped = 0;    ///< unparseable lines across all days
  std::uint64_t entries_discarded = 0;  ///< live entries lost to corruption

  friend bool operator==(const FeedHealth&, const FeedHealth&) = default;
};

struct EcosystemStats {
  std::uint64_t events_seen = 0;
  std::uint64_t events_picked_up = 0;
  std::uint64_t snapshots_taken = 0;
  // Degradation accounting (zero on a fault-free run):
  std::uint64_t snapshots_missed = 0;    ///< (list, day) dumps suppressed
  std::uint64_t feeds_quarantined = 0;   ///< corrupted dumps rejected
  std::uint64_t feeds_salvaged = 0;      ///< corrupted dumps partially kept
  std::uint64_t entries_discarded = 0;   ///< live entries lost to corruption
  std::uint64_t feed_lines_skipped = 0;  ///< unparseable lines seen
  std::vector<FeedHealth> per_list;      ///< one entry per catalogue list
};

struct EcosystemResult {
  SnapshotStore store;
  EcosystemStats stats;
};

/// Resumable cursor of one feed at the end of a run: the mid-stream RNG
/// state, the live address -> expiry map (rendered as address-sorted pairs
/// so the serialized form is canonical), and the feed's pickup counter.
/// Together with the merged store and the per-list health (both already in
/// EcosystemResult) this is everything feed evolution reads across events —
/// restoring it and ingesting the next slice of the SAME abuse stream is
/// byte-identical to having run the longer stream in one piece.
struct FeedCarry {
  std::array<std::uint64_t, 4> rng_state{};
  std::vector<std::pair<net::Ipv4Address, std::int64_t>> live;
  std::uint64_t events_picked_up = 0;
};

/// Per-feed carry for the whole ecosystem, in catalogue (feed-index) order.
/// The scenario cache persists this as part of its v6 payload.
struct EcosystemCarry {
  std::vector<FeedCarry> feeds;
};

/// Publishes the feeds_ metric family from finished ecosystem stats.
/// simulate_ecosystem calls it itself; the scenario-cache loader calls it
/// again when a hit restores the stats instead of re-simulating, so a
/// cached run's manifest still carries the ecosystem's real numbers.
void publish_feed_metrics(const EcosystemStats& stats);

/// Runs the ecosystem over `events` (must be time-sorted). Events before the
/// first period warm the lists up; events after the last snapshot are
/// ignored. An optional fault injector suppresses or corrupts individual
/// (list, day) dumps; nullptr (or an empty plan) leaves the run untouched.
///
/// Feeds are independent, so with a thread pool they evolve in parallel —
/// each on its own counter-derived RNG substream, merged back in feed-index
/// order. The result is byte-identical for any pool size (nullptr = serial).
[[nodiscard]] EcosystemResult simulate_ecosystem(
    std::span<const BlocklistInfo> catalogue,
    std::span<const inet::AbuseEvent> events, const EcosystemConfig& config,
    sim::FaultInjector* faults = nullptr, net::ThreadPool* pool = nullptr);

/// Chunked form of simulate_ecosystem: construct, ingest() the abuse stream
/// in disjoint time-ordered chunks, then finish() once. Feeding the whole
/// stream as a single chunk is exactly simulate_ecosystem — the scenario
/// instead feeds inet::stream_abuse slices, so peak memory holds one slice
/// of the stream instead of every event of the run (the difference between
/// flat and linear-in-days RSS at world scale; see DESIGN.md). ingest()
/// cuts each chunk into fixed-size blocks, and feeds evolve in parallel
/// within each block on their per-feed RNG substreams; the products are
/// byte-identical for every chunking and pool size.
class EcosystemSimulator {
 public:
  EcosystemSimulator(std::span<const BlocklistInfo> catalogue,
                     const EcosystemConfig& config,
                     sim::FaultInjector* faults = nullptr,
                     net::ThreadPool* pool = nullptr);
  EcosystemSimulator(EcosystemSimulator&&) noexcept;
  EcosystemSimulator& operator=(EcosystemSimulator&&) noexcept;
  ~EcosystemSimulator();

  /// Feeds the next chunk: every event must be no earlier than the events
  /// of previous chunks (stream_abuse's slices satisfy this by
  /// construction).
  void ingest(std::span<const inet::AbuseEvent> events);

  /// Flushes trailing snapshots, merges the per-feed fragments in index
  /// order, publishes the feeds_ metrics, and returns the result. Call at
  /// most once. When `carry` is non-null it receives each feed's
  /// end-of-run cursor (captured after the trailing snapshots), ready for
  /// resume_from() on a later simulator.
  [[nodiscard]] EcosystemResult finish(EcosystemCarry* carry = nullptr);

  /// Rewinds this (freshly constructed, nothing ingested) simulator to the
  /// end of a previous run: per-feed RNG/live/pickup cursors from `carry`,
  /// per-feed health from the previous run's `per_list` stats, and the
  /// snapshot cursor past the first `snapshots_taken` snapshot days —
  /// which must be a prefix of this simulator's own snapshot days (the
  /// extended periods append days, never reorder them). Subsequent
  /// ingest()/finish() then produce the *tail* of the longer run: a store
  /// holding only new-era recordings (fold it into the previous store) and
  /// stats whose per-feed counters continue the previous run's, with
  /// events_seen counting only the newly ingested events. Returns false
  /// (and leaves the simulator untouched) if the carry's shape does not
  /// match the catalogue or the snapshot prefix does not exist.
  [[nodiscard]] bool resume_from(const EcosystemCarry& carry,
                                 const EcosystemStats& previous,
                                 std::uint64_t snapshots_taken);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace reuse::blocklist
