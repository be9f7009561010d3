#include "blocklist/ecosystem.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "blocklist/parse.h"
#include "netbase/metrics.h"
#include "netbase/rng.h"
#include "netbase/thread_pool.h"

namespace reuse::blocklist {
namespace {

/// Live state of one list: address -> expiry time (seconds).
using LiveMap = std::unordered_map<net::Ipv4Address, std::int64_t>;

/// Salt for the per-feed RNG substreams (see net::substream): feed i draws
/// from substream(config.seed, kFeedStreamSalt, i), so its evolution is a
/// pure function of (config, catalogue, events, i) — independent of every
/// other feed and of the number of worker threads.
constexpr std::uint64_t kFeedStreamSalt = 0xfeedULL;

/// Retention draw: short auto-expiry or sticky category retention.
std::int64_t draw_retention(net::Rng& rng, const EcosystemConfig& config,
                            const BlocklistInfo& info) {
  const double mean_days =
      rng.bernoulli(config.short_retention_fraction)
          ? config.short_retention_mean_days
          : info.removal_mean_days * config.long_retention_factor;
  return static_cast<std::int64_t>(rng.exponential(mean_days * 86400.0));
}

/// Everything one feed produces: a single-list store fragment plus its
/// health counters. Fragments merge into the shared result in feed-index
/// order, so the merged store is identical for every --jobs value.
struct FeedOutcome {
  SnapshotStore store;
  FeedHealth health;
  std::uint64_t events_picked_up = 0;
};

/// Evolution state of one feed, carried between chunks of the abuse stream.
/// feed_ingest on consecutive chunks replays exactly what the old whole-
/// stream loop did — the loop body only ever looked at the current event,
/// and everything it read across iterations (rng, live map, snapshot
/// cursor, outcome) lives here.
struct FeedState {
  FeedOutcome out;
  net::Rng rng;
  LiveMap live;
  std::size_t next_snapshot = 0;
};

/// Ingest a corrupted dump: the maintainer published *something*, but not
/// what the live set says. Mostly-garbage dumps are quarantined outright
/// (treated like a missed day, so presence bridging can ride over them);
/// lightly damaged dumps are salvaged line by line.
void feed_ingest_corrupted(FeedState& s, std::size_t i,
                           const BlocklistInfo& info, std::int64_t day,
                           sim::FaultInjector* faults) {
  std::vector<net::Ipv4Address> addresses;
  addresses.reserve(s.live.size());
  for (const auto& [address, expiry] : s.live) addresses.push_back(address);
  std::sort(addresses.begin(), addresses.end());  // stable render order
  std::string text;
  for (const net::Ipv4Address address : addresses) {
    text += address.to_string();
    text += '\n';
  }
  text = faults->corrupt_feed_text(std::move(text), i, day);
  const ParsedList parsed = parse_list_text(text);
  s.out.health.lines_skipped += parsed.skipped_lines;
  // Quarantine rule: more than 10% of the live set's lines unparseable
  // means the dump as a whole cannot be trusted.
  if (parsed.skipped_lines * 10 > s.live.size()) {
    ++s.out.health.days_quarantined;
    return;
  }
  for (const net::Ipv4Address address : parsed.addresses) {
    s.out.store.record(info.id, address, day);
  }
  s.out.store.mark_observed(info.id, day);
  ++s.out.health.days_salvaged;
  // Corruption never adds lines, so parsed entries <= live entries and the
  // difference is exactly what the damage cost us.
  s.out.health.entries_discarded += s.live.size() - parsed.addresses.size();
}

void feed_take_snapshot(FeedState& s, std::size_t i, const BlocklistInfo& info,
                        std::int64_t day, sim::FaultInjector* faults) {
  const std::int64_t moment = day * 86400;  // snapshot at 00:00
  // Expiry runs on every path: list state evolves whether or not the
  // dump reaches us that day.
  for (auto it = s.live.begin(); it != s.live.end();) {
    it = it->second <= moment ? s.live.erase(it) : std::next(it);
  }
  if (faults != nullptr && faults->feed_snapshot_missing(i, day)) {
    ++s.out.health.days_missed;
    return;
  }
  if (faults != nullptr && faults->feed_corrupted(i, day)) {
    feed_ingest_corrupted(s, i, info, day, faults);
    return;
  }
  for (const auto& [address, expiry] : s.live) {
    s.out.store.record(info.id, address, day);
  }
  s.out.store.mark_observed(info.id, day);
  ++s.out.health.days_recorded;
}

/// Evolves feed `i` over one chunk of the event stream: pickups, retention
/// expiry, daily snapshots, and (under faults) missed or corrupted dumps.
/// Pure apart from the shared injector's atomic ledger.
void feed_ingest(FeedState& s, std::size_t i, const BlocklistInfo& info,
                 std::span<const inet::AbuseEvent> events,
                 std::span<const std::int64_t> snapshot_days,
                 const EcosystemConfig& config, sim::FaultInjector* faults) {
  for (const inet::AbuseEvent& event : events) {
    // Take any snapshots due before this event.
    while (s.next_snapshot < snapshot_days.size() &&
           snapshot_days[s.next_snapshot] * 86400 <= event.time_seconds) {
      feed_take_snapshot(s, i, info, snapshot_days[s.next_snapshot++], faults);
    }
    if (!category_matches(info.category, event.category)) continue;
    const auto existing = s.live.find(event.source);
    if (existing != s.live.end() && existing->second > event.time_seconds) {
      // Already listed: the maintainer is watching this address, so the
      // event extends the listing with the (much higher) re-observation
      // rate.
      if (s.rng.bernoulli(config.reobservation_extend_rate)) {
        const std::int64_t retention = draw_retention(s.rng, config, info);
        existing->second =
            std::max(existing->second, event.time_seconds + retention);
      }
      continue;
    }
    if (!s.rng.bernoulli(info.pickup_rate)) continue;
    ++s.out.events_picked_up;
    s.live[event.source] =
        event.time_seconds + draw_retention(s.rng, config, info);
  }
}

/// Snapshots after the last event of the stream.
void feed_finish(FeedState& s, std::size_t i, const BlocklistInfo& info,
                 std::span<const std::int64_t> snapshot_days,
                 sim::FaultInjector* faults) {
  while (s.next_snapshot < snapshot_days.size()) {
    feed_take_snapshot(s, i, info, snapshot_days[s.next_snapshot++], faults);
  }
}

}  // namespace

std::vector<net::TimeWindow> paper_periods() {
  return {
      net::TimeWindow{net::SimTime(0), net::SimTime(39 * 86400)},
      net::TimeWindow{net::SimTime(60 * 86400), net::SimTime(104 * 86400)},
  };
}

/// See ecosystem.h: one-shot aggregation of the finished EcosystemStats
/// into the global metrics registry — end-of-stage publishing, zero cost
/// in the per-feed hot loops, and deterministic because the stats are.
void publish_feed_metrics(const EcosystemStats& stats) {
  auto& registry = net::metrics::Registry::global();
  registry
      .counter("feeds_fetches_total",
               "Daily (list, day) feed fetch attempts (clean + missed + "
               "quarantined + salvaged)")
      .add(stats.snapshots_taken *
           static_cast<std::uint64_t>(stats.per_list.size()));
  std::uint64_t recorded = 0;
  for (const FeedHealth& health : stats.per_list) {
    recorded += static_cast<std::uint64_t>(health.days_recorded);
  }
  registry
      .counter("feeds_snapshots_recorded_total",
               "Clean daily feed dumps ingested")
      .add(recorded);
  registry
      .counter("feeds_snapshots_missed_total",
               "Daily feed dumps suppressed by outages")
      .add(stats.snapshots_missed);
  registry
      .counter("feeds_quarantines_total",
               "Corrupted dumps rejected wholesale")
      .add(stats.feeds_quarantined);
  registry
      .counter("feeds_salvages_total",
               "Corrupted dumps partially kept line by line")
      .add(stats.feeds_salvaged);
  registry
      .counter("feeds_lines_skipped_total",
               "Unparseable feed lines skipped across all lists")
      .add(stats.feed_lines_skipped);
  registry
      .counter("feeds_entries_discarded_total",
               "Live entries lost to dump corruption")
      .add(stats.entries_discarded);
  auto& per_list = registry.histogram(
      "feeds_lines_skipped_per_list",
      "Distribution of skipped-line counts over the catalogue's lists",
      {0, 1, 2, 4, 8, 16, 32, 64, 128});
  for (const FeedHealth& health : stats.per_list) {
    per_list.observe(static_cast<std::int64_t>(health.lines_skipped));
  }
}

struct EcosystemSimulator::Impl {
  std::vector<BlocklistInfo> catalogue;
  EcosystemConfig config;
  sim::FaultInjector* faults = nullptr;
  net::ThreadPool* pool = nullptr;
  std::vector<std::int64_t> snapshot_days;
  std::vector<FeedState> states;
  std::uint64_t events_seen = 0;
};

EcosystemSimulator::EcosystemSimulator(
    std::span<const BlocklistInfo> catalogue, const EcosystemConfig& config,
    sim::FaultInjector* faults, net::ThreadPool* pool)
    : impl_(std::make_unique<Impl>()) {
  impl_->catalogue.assign(catalogue.begin(), catalogue.end());
  impl_->config = config;
  impl_->faults = faults;
  impl_->pool = pool;

  // Snapshot days: every whole day inside each period.
  for (const net::TimeWindow& period : config.periods) {
    for (std::int64_t day = period.begin.day(); day < period.end.day(); ++day) {
      impl_->snapshot_days.push_back(day);
    }
  }
  std::sort(impl_->snapshot_days.begin(), impl_->snapshot_days.end());

  impl_->states.resize(impl_->catalogue.size());
  for (std::size_t i = 0; i < impl_->states.size(); ++i) {
    impl_->states[i].out.health.list = impl_->catalogue[i].id;
    impl_->states[i].rng = net::substream(config.seed, kFeedStreamSalt, i);
  }
}

EcosystemSimulator::EcosystemSimulator(EcosystemSimulator&&) noexcept =
    default;
EcosystemSimulator& EcosystemSimulator::operator=(
    EcosystemSimulator&&) noexcept = default;
EcosystemSimulator::~EcosystemSimulator() = default;

void EcosystemSimulator::ingest(std::span<const inet::AbuseEvent> events) {
  Impl& im = *impl_;
  im.events_seen += events.size();
  // Per-feed evolution: feeds are independent by construction (the paper
  // collects each blocklist separately), so each chunk fans out across
  // them; each feed draws from its own counter-derived RNG substream and
  // fills its own store fragment, so the per-chunk barrier is the only
  // synchronization.
  net::for_each_index(
      im.pool, im.states.size(),
      [&](std::size_t i) {
        feed_ingest(im.states[i], i, im.catalogue[i], events,
                    im.snapshot_days, im.config, im.faults);
      },
      /*grain=*/1);
}

bool EcosystemSimulator::resume_from(const EcosystemCarry& carry,
                                     const EcosystemStats& previous,
                                     std::uint64_t snapshots_taken) {
  Impl& im = *impl_;
  if (carry.feeds.size() != im.states.size() ||
      previous.per_list.size() != im.states.size() ||
      snapshots_taken > im.snapshot_days.size()) {
    return false;
  }
  for (std::size_t i = 0; i < im.states.size(); ++i) {
    if (previous.per_list[i].list != im.catalogue[i].id) return false;
  }
  for (std::size_t i = 0; i < im.states.size(); ++i) {
    FeedState& s = im.states[i];
    const FeedCarry& cursor = carry.feeds[i];
    s.rng = net::Rng::from_state(cursor.rng_state);
    s.live.clear();
    s.live.reserve(cursor.live.size());
    for (const auto& [address, expiry] : cursor.live) s.live[address] = expiry;
    s.out.events_picked_up = cursor.events_picked_up;
    // Continuing the previous run's health counters means finish()'s merge
    // sums whole-run totals per feed, exactly like an unbroken run.
    s.out.health = previous.per_list[i];
    s.next_snapshot = static_cast<std::size_t>(snapshots_taken);
  }
  return true;
}

EcosystemResult EcosystemSimulator::finish(EcosystemCarry* carry) {
  Impl& im = *impl_;
  net::for_each_index(
      im.pool, im.states.size(),
      [&](std::size_t i) {
        feed_finish(im.states[i], i, im.catalogue[i], im.snapshot_days,
                    im.faults);
      },
      /*grain=*/1);
  if (carry != nullptr) {
    carry->feeds.clear();
    carry->feeds.resize(im.states.size());
    for (std::size_t i = 0; i < im.states.size(); ++i) {
      FeedCarry& cursor = carry->feeds[i];
      const FeedState& s = im.states[i];
      cursor.rng_state = s.rng.state();
      cursor.live.assign(s.live.begin(), s.live.end());
      std::sort(cursor.live.begin(), cursor.live.end());
      cursor.events_picked_up = s.out.events_picked_up;
    }
  }

  // Index-ordered merge: identical insertion sequence for every --jobs
  // value, so downstream consumers that iterate the (unordered) store see
  // the same order as a serial run.
  EcosystemResult result;
  result.stats.per_list.reserve(im.catalogue.size());
  for (std::size_t i = 0; i < im.catalogue.size(); ++i) {
    FeedOutcome& out = im.states[i].out;
    result.stats.per_list.push_back(out.health);
    result.stats.events_picked_up += out.events_picked_up;
    result.stats.snapshots_missed +=
        static_cast<std::uint64_t>(out.health.days_missed);
    result.stats.feeds_quarantined +=
        static_cast<std::uint64_t>(out.health.days_quarantined);
    result.stats.feeds_salvaged +=
        static_cast<std::uint64_t>(out.health.days_salvaged);
    result.stats.entries_discarded += out.health.entries_discarded;
    result.stats.feed_lines_skipped += out.health.lines_skipped;
    result.store.merge_from(out.store);
    out.store = SnapshotStore{};  // free the fragment as we go
  }
  result.stats.events_seen = im.events_seen;
  result.stats.snapshots_taken = im.snapshot_days.size();
  publish_feed_metrics(result.stats);
  return result;
}

EcosystemResult simulate_ecosystem(std::span<const BlocklistInfo> catalogue,
                                   std::span<const inet::AbuseEvent> events,
                                   const EcosystemConfig& config,
                                   sim::FaultInjector* faults,
                                   net::ThreadPool* pool) {
  EcosystemSimulator simulator(catalogue, config, faults, pool);
  simulator.ingest(events);
  return simulator.finish();
}

}  // namespace reuse::blocklist
