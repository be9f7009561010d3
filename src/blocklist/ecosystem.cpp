#include "blocklist/ecosystem.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <string>
#include <utility>

#include "blocklist/parse.h"
#include "netbase/metrics.h"
#include "netbase/rng.h"
#include "netbase/thread_pool.h"

namespace reuse::blocklist {
namespace {

/// Salt for the per-feed RNG substreams (see net::substream): feed i draws
/// from substream(config.seed, kFeedStreamSalt, i), so its evolution is a
/// pure function of (config, catalogue, events, i) — independent of every
/// other feed and of the number of worker threads.
constexpr std::uint64_t kFeedStreamSalt = 0xfeedULL;

/// Events per ingest block. ingest() cuts each chunk into blocks of this
/// many events and copies a block once into one array per list category;
/// every feed then walks its category's array while the block is still in
/// cache (16 bytes an event: 256 KiB for the reputation lists' copy, as
/// much again for the single-category copies).
constexpr std::size_t kBlockEvents = std::size_t{1} << 14;

/// What a feed reads of an abuse event once its category matched.
struct FeedEvent {
  std::int64_t time_seconds = 0;
  std::uint32_t source = 0;
};

/// Live state of one list: address -> expiry time (seconds). Open
/// addressing with linear probing and a power-of-two capacity that doubles
/// before the load passes 1/4. The lookup every walked event makes is nearly
/// always a miss, and at this load most misses stop at the home slot: on a
/// 4-vCPU x86 guest the test-world ecosystem ran ~18% faster than at a
/// 1/2 load, for tables of at most a few hundred entries there. Iteration
/// runs in slot order, which reaches no product: the store fold, the
/// corrupted-dump render and the carry all sort what they read.
class LiveTable {
 public:
  LiveTable() : slots_(kMinCapacity) {}

  [[nodiscard]] std::size_t size() const { return size_; }

  /// The expiry of `address`, or nullptr if it has no entry. Valid until the
  /// next upsert() or expire().
  std::int64_t* find(std::uint32_t address) {
    Slot& slot = slots_[probe(address)];
    return slot.used ? &slot.expiry : nullptr;
  }

  /// Sets the expiry of `address`, inserting it if absent.
  void upsert(std::uint32_t address, std::int64_t expiry) {
    if (4 * (size_ + 1) > slots_.size()) rehash(2 * slots_.size());
    Slot& slot = slots_[probe(address)];
    if (!slot.used) ++size_;
    slot = Slot{expiry, address, true};
  }

  /// Room for `count` entries without a rehash.
  void reserve(std::size_t count) {
    if (4 * count > slots_.size()) rehash(std::bit_ceil(4 * count));
  }

  /// Drops every entry that expires at or before `moment`, compacting in
  /// place. The walk starts at a vacant slot, so each probe run is met from
  /// its first slot; every entry is lifted out and either dropped or put
  /// back at the first vacancy from its home slot, which is never past
  /// where it was. No entry is left behind a hole, so no tombstones.
  void expire(std::int64_t moment) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t start = 0;
    while (slots_[start].used) ++start;
    for (std::size_t k = 1; k < slots_.size(); ++k) {
      Slot& slot = slots_[(start + k) & mask];
      if (!slot.used) continue;
      const Slot entry = slot;
      slot.used = false;
      if (entry.expiry <= moment) {
        --size_;
        continue;
      }
      slots_[probe(entry.address)] = entry;
    }
  }

  /// Visits every live address, in slot order.
  template <typename Fn>
  void for_each_address(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.used) fn(net::Ipv4Address(slot.address));
    }
  }

  /// The entries as address-sorted pairs: FeedCarry's canonical form.
  [[nodiscard]] std::vector<std::pair<net::Ipv4Address, std::int64_t>>
  sorted_entries() const {
    std::vector<std::pair<net::Ipv4Address, std::int64_t>> entries;
    entries.reserve(size_);
    for (const Slot& slot : slots_) {
      if (slot.used) {
        entries.emplace_back(net::Ipv4Address(slot.address), slot.expiry);
      }
    }
    std::sort(entries.begin(), entries.end());
    return entries;
  }

 private:
  struct Slot {
    std::int64_t expiry = 0;
    std::uint32_t address = 0;
    bool used = false;
  };
  static constexpr std::size_t kMinCapacity = 16;

  /// The slot holding `address`, or the vacancy where it would go. The home
  /// slot is the top bits of a Fibonacci hash, which spreads addresses that
  /// differ only in their last octet.
  [[nodiscard]] std::size_t probe(std::uint32_t address) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (std::uint64_t{address} * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (slots_[i].used && slots_[i].address != address) i = (i + 1) & mask;
    return i;
  }

  void rehash(std::size_t capacity) {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(capacity));
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.used) slots_[probe(slot.address)] = slot;
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64 - std::countr_zero(kMinCapacity);
  std::size_t size_ = 0;
};

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

/// Evolution state of one feed, carried between blocks of the abuse stream:
/// everything the walk reads across events (rng, live table, snapshot
/// cursor, outcome) lives here.
struct FeedState {
  FeedOutcome out;
  net::Rng rng;
  std::uint64_t pickup_threshold = 0;  ///< bernoulli_threshold(pickup_rate)
  LiveTable live;
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
  s.live.for_each_address(
      [&](net::Ipv4Address address) { addresses.push_back(address); });
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
  // Snapshot at 00:00. Expiry runs on every path: list state evolves
  // whether or not the dump reaches us that day.
  s.live.expire(day * 86400);
  if (faults != nullptr && faults->feed_snapshot_missing(i, day)) {
    ++s.out.health.days_missed;
    return;
  }
  if (faults != nullptr && faults->feed_corrupted(i, day)) {
    feed_ingest_corrupted(s, i, info, day, faults);
    return;
  }
  s.live.for_each_address([&](net::Ipv4Address address) {
    s.out.store.record(info.id, address, day);
  });
  s.out.store.mark_observed(info.id, day);
  ++s.out.health.days_recorded;
}

/// Takes every snapshot due at or before `until` (seconds).
void feed_take_due_snapshots(FeedState& s, std::size_t i,
                             const BlocklistInfo& info, std::int64_t until,
                             std::span<const std::int64_t> snapshot_days,
                             sim::FaultInjector* faults) {
  while (s.next_snapshot < snapshot_days.size() &&
         snapshot_days[s.next_snapshot] * 86400 <= until) {
    feed_take_snapshot(s, i, info, snapshot_days[s.next_snapshot++], faults);
  }
}

/// Evolves feed `i` over the events of one block that match its category:
/// pickups, re-observations, and before each event the snapshots due by its
/// time. Skipping the block's other events changes nothing — a mismatched
/// event draws no RNG and touches no live state, and a due snapshot sees
/// the same live set at the feed's next matching event (or at finish()) as
/// at the mismatched one. Pure apart from the shared injector's atomic
/// ledger.
void feed_ingest(FeedState& s, std::size_t i, const BlocklistInfo& info,
                 std::span<const FeedEvent> events,
                 std::span<const std::int64_t> snapshot_days,
                 const EcosystemConfig& config, sim::FaultInjector* faults) {
  const auto next_due = [&] {
    return s.next_snapshot < snapshot_days.size()
               ? snapshot_days[s.next_snapshot] * 86400
               : std::numeric_limits<std::int64_t>::max();
  };
  std::int64_t due = next_due();
  for (const FeedEvent& event : events) {
    if (event.time_seconds >= due) [[unlikely]] {
      feed_take_due_snapshots(s, i, info, event.time_seconds, snapshot_days,
                              faults);
      due = next_due();
    }
    std::int64_t* const expiry = s.live.find(event.source);
    if (expiry != nullptr && *expiry > event.time_seconds) {
      // Already listed: the maintainer is watching this address, so the
      // event extends the listing with the (much higher) re-observation
      // rate.
      if (s.rng.bernoulli(config.reobservation_extend_rate)) {
        const std::int64_t retention = draw_retention(s.rng, config, info);
        *expiry = std::max(*expiry, event.time_seconds + retention);
      }
      continue;
    }
    if (!s.rng.bernoulli_below(s.pickup_threshold)) continue;
    ++s.out.events_picked_up;
    s.live.upsert(event.source,
                  event.time_seconds + draw_retention(s.rng, config, info));
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
  /// For each abuse-category byte, bit c is set iff some catalogue list of
  /// category c ingests it (category_matches, evaluated once here).
  std::array<std::uint8_t, 256> routes{};
  /// The current block's events, one array per list category.
  std::array<std::vector<FeedEvent>, kListCategoryCount> blocks;

  /// The current block's events that lists of `category` ingest.
  [[nodiscard]] std::span<const FeedEvent> block_of(
      ListCategory category) const {
    const auto c = static_cast<std::size_t>(category);
    return c < blocks.size() ? std::span<const FeedEvent>(blocks[c])
                             : std::span<const FeedEvent>();
  }
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
    const BlocklistInfo& info = impl_->catalogue[i];
    impl_->states[i].out.health.list = info.id;
    impl_->states[i].rng = net::substream(config.seed, kFeedStreamSalt, i);
    impl_->states[i].pickup_threshold =
        net::Rng::bernoulli_threshold(info.pickup_rate);
    const auto c = static_cast<std::size_t>(info.category);
    if (c >= impl_->blocks.size()) continue;  // matches nothing, walks nothing
    for (std::size_t abuse = 0; abuse < impl_->routes.size(); ++abuse) {
      if (category_matches(info.category,
                           static_cast<inet::AbuseCategory>(abuse))) {
        impl_->routes[abuse] |= static_cast<std::uint8_t>(1u << c);
      }
    }
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
  for (std::size_t begin = 0; begin < events.size(); begin += kBlockEvents) {
    // Copy the block once into one compact array per list category, so a
    // feed walks only the events its category ingests and every feed reads
    // the block from cache.
    for (std::vector<FeedEvent>& block : im.blocks) block.clear();
    const std::size_t end = std::min(events.size(), begin + kBlockEvents);
    for (std::size_t e = begin; e < end; ++e) {
      const inet::AbuseEvent& event = events[e];
      const FeedEvent copy{event.time_seconds, event.source.value()};
      const auto category = static_cast<std::uint8_t>(event.category);
      for (unsigned lists = im.routes[category]; lists != 0;
           lists &= lists - 1) {
        im.blocks[static_cast<std::size_t>(std::countr_zero(lists))]
            .push_back(copy);
      }
    }
    // Per-feed evolution: feeds are independent by construction (the paper
    // collects each blocklist separately), so each block fans out across
    // them; each feed draws from its own counter-derived RNG substream and
    // fills its own store fragment, so the per-block barrier is the only
    // synchronization.
    net::for_each_index(
        im.pool, im.states.size(),
        [&](std::size_t i) {
          feed_ingest(im.states[i], i, im.catalogue[i],
                      im.block_of(im.catalogue[i].category), im.snapshot_days,
                      im.config, im.faults);
        },
        /*grain=*/1);
  }
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
    s.live = LiveTable();
    s.live.reserve(cursor.live.size());
    for (const auto& [address, expiry] : cursor.live) {
      s.live.upsert(address.value(), expiry);
    }
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
        feed_take_due_snapshots(im.states[i], i, im.catalogue[i],
                                std::numeric_limits<std::int64_t>::max(),
                                im.snapshot_days, im.faults);
      },
      /*grain=*/1);
  if (carry != nullptr) {
    carry->feeds.clear();
    carry->feeds.resize(im.states.size());
    for (std::size_t i = 0; i < im.states.size(); ++i) {
      FeedCarry& cursor = carry->feeds[i];
      const FeedState& s = im.states[i];
      cursor.rng_state = s.rng.state();
      cursor.live = s.live.sorted_entries();
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
