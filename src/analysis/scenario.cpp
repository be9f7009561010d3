#include "analysis/scenario.h"

#include <algorithm>

#include "analysis/stage_runner.h"
#include "blocklist/catalogue.h"
#include "internet/abuse.h"
#include "netbase/metrics.h"
#include "netbase/rng.h"
#include "netbase/serialize.h"
#include "simnet/event_queue.h"

namespace reuse::analysis {

CrawlOutput run_scenario_crawl(const inet::World& world,
                               const blocklist::SnapshotStore& store,
                               const ScenarioConfig& config,
                               sim::FaultInjector* faults,
                               net::ThreadPool* pool,
                               StageTimer* stage_times) {
  StageTimer unrecorded;
  StageTimer& timer = stage_times != nullptr ? *stage_times : unrecorded;
  crawler::ShardedCrawlConfig sharded;
  sharded.base = config.crawl;
  if (config.restrict_crawler_to_blocklisted) {
    sharded.base.restricted = true;
    timer.time("crawl.restrict", [&] {
      sharded.base.restrict_to = store.blocklisted_slash24s();
    });
  }
  sharded.dht = config.dht;
  sharded.window = net::TimeWindow{
      net::SimTime(0), net::SimTime(config.crawl_days * std::int64_t{86400})};
  sharded.shard_count = config.crawl_shards;
  CrawlOutput output =
      crawler::run_sharded_crawl(world, sharded, faults, pool, stage_times);
  publish_crawl_metrics(output);
  return output;
}

namespace {

// Serializes every field that influences the cached products, in a fixed
// order with explicit widths (std::size_t and bool are cast) so the
// resulting fingerprint is identical across platforms. New knobs that feed
// the crawl or the ecosystem MUST be appended here — forgetting one
// re-creates the silent cache-sharing bug this fingerprint exists to fix.
void write_fingerprint_fields(net::BinaryWriter& w,
                              const ScenarioConfig& c) {
  w.write(c.seed);

  const inet::WorldConfig& world = c.world;
  w.write(world.seed);
  w.write(static_cast<std::uint64_t>(world.as_count));
  w.write(world.prefix_pareto_alpha);
  w.write(static_cast<std::uint64_t>(world.min_prefixes_per_as));
  w.write(static_cast<std::uint64_t>(world.max_prefixes_per_as));
  w.write(world.weight_unused);
  w.write(world.weight_server);
  w.write(world.weight_static_residential);
  w.write(world.weight_home_nat);
  w.write(world.cgn_as_fraction);
  w.write(world.cgn_prefix_share);
  w.write(world.dynamic_as_fraction);
  w.write(world.dynamic_prefix_share);
  w.write(static_cast<std::uint64_t>(world.max_pools_per_as));
  w.write(world.static_occupancy);
  w.write(world.home_nat_occupancy);
  w.write(world.home_nat_extra_member_p);
  w.write(world.cgn_users_min);
  w.write(world.cgn_users_alpha);
  w.write(static_cast<std::uint64_t>(world.cgn_users_cap));
  w.write(world.dynamic_subscription_ratio);
  w.write(world.min_mean_lease_seconds);
  w.write(world.max_mean_lease_seconds);
  w.write(world.bt_adoption_min);
  w.write(world.bt_adoption_max);
  w.write(world.bt_blocked_as_fraction);
  w.write(world.infection_rate_base);
  w.write(world.infection_rate_p2p);
  w.write(world.malicious_server_fraction);
  w.write(world.icmp_filtered_as_fraction);
  w.write(world.abuse_events_per_day_user);
  w.write(world.abuse_events_per_day_server);
  // Appending a field re-keys every cache filename (clean misses, no stale
  // reads), so the default world's products stay valid without a
  // kCalibrationVersion bump: factor 1.0 changes no draw.
  w.write(world.evasion_lease_factor);

  w.write(static_cast<std::int64_t>(c.crawl_days));

  const dht::DhtNetworkConfig& dht = c.dht;
  w.write(dht.seed);
  w.write(static_cast<std::uint64_t>(dht.contacts_per_peer));
  w.write(dht.stale_endpoint_fraction);
  w.write(dht.stale_link_share);
  w.write(dht.behavior.always_on_fraction);
  w.write(dht.behavior.duty_min);
  w.write(dht.behavior.duty_max);
  w.write(dht.transport.request_loss);
  w.write(dht.transport.response_loss);
  w.write(dht.transport.min_delay.count());
  w.write(dht.transport.max_delay.count());
  w.write(dht.reboot_rate_per_day);
  w.write(dht.port_change_on_reboot);
  w.write(static_cast<std::uint8_t>(dht.dynamic_address_churn));
  w.write(static_cast<std::uint64_t>(dht.bootstrap_contacts));

  const crawler::CrawlerConfig& crawl = c.crawl;
  w.write(crawl.ip_cooldown.count());
  w.write(crawl.reping_interval.count());
  w.write(crawl.verification_window.count());
  w.write(static_cast<std::uint64_t>(crawl.messages_per_second));
  w.write(static_cast<std::uint64_t>(crawl.get_nodes_per_endpoint));
  w.write(static_cast<std::uint8_t>(crawl.restricted));
  std::vector<net::Ipv4Prefix> restrict_to = crawl.restrict_to.to_vector();
  std::sort(restrict_to.begin(), restrict_to.end());
  w.write(static_cast<std::uint64_t>(restrict_to.size()));
  for (const net::Ipv4Prefix& prefix : restrict_to) {
    w.write(prefix.network().value());
    w.write(static_cast<std::uint8_t>(prefix.length()));
  }
  w.write(static_cast<std::uint64_t>(crawl.partition_count));
  w.write(static_cast<std::uint64_t>(crawl.partition_index));
  w.write(crawl.seed);
  // The shard count changes which partition each discovered address lands
  // in (and every per-shard RNG stream), so it is cache identity.
  w.write(static_cast<std::uint64_t>(c.crawl_shards));

  w.write(static_cast<std::uint8_t>(c.restrict_crawler_to_blocklisted));

  const blocklist::EcosystemConfig& eco = c.ecosystem;
  w.write(eco.seed);
  w.write(static_cast<std::uint64_t>(eco.periods.size()));
  for (const net::TimeWindow& period : eco.periods) {
    w.write(period.begin.seconds());
    w.write(period.end.seconds());
  }
  w.write(eco.short_retention_fraction);
  w.write(eco.short_retention_mean_days);
  w.write(eco.long_retention_factor);
  w.write(eco.reobservation_extend_rate);

  // The fault plan perturbs both cached products (crawl and ecosystem), so
  // every knob of it is part of the cache identity — except when there are
  // no episodes: an empty plan is behaviourally identical to no plan at all
  // (whatever its seed), so both fingerprints coincide and a fault-free
  // cache keeps serving empty-plan configs.
  const sim::FaultPlan& faults = c.faults;
  w.write(static_cast<std::uint64_t>(faults.episodes.size()));
  if (!faults.episodes.empty()) {
    w.write(faults.seed);
    for (const sim::FaultEpisode& episode : faults.episodes) {
      w.write(static_cast<std::uint8_t>(episode.kind));
      w.write(episode.window.begin.seconds());
      w.write(episode.window.end.seconds());
      w.write(episode.severity);
      w.write(episode.salt);
    }
  }

  // The abuse-generation horizon moves every actor's episode draw, so it is
  // cache identity. Hashed in RESOLVED form (seconds of the generation
  // window's end): horizon_days = 0 and an explicit horizon equal to the
  // span end produce the same generation window, the same products, and —
  // by hashing the resolution — the same fingerprint.
  w.write(scenario_span(c).horizon.seconds());
}

}  // namespace

ScenarioSpan scenario_span(const ScenarioConfig& config) {
  net::TimeWindow collection = config.ecosystem.periods.front();
  for (const net::TimeWindow& period : config.ecosystem.periods) {
    collection.begin = std::min(collection.begin, period.begin);
    collection.end = std::max(collection.end, period.end);
  }
  return {collection,
          net::SimTime(std::max(collection.end.seconds(),
                                std::int64_t{config.horizon_days} * 86400))};
}

inet::AbuseGenConfig scenario_abuse_config(const inet::World& world,
                                           const ScenarioConfig& config) {
  // Abuse generation starts before the first snapshot so lists are warm,
  // and runs to the declared horizon (auto: the last period's end) so a
  // later horizon only appends events without moving any actor's draws.
  const ScenarioSpan span = scenario_span(config);
  inet::AbuseGenConfig abuse;
  abuse.window = net::TimeWindow{
      span.collection.begin - net::Duration::days(15), span.horizon};
  abuse.user_events_per_day = world.config().abuse_events_per_day_user;
  abuse.server_events_per_day = world.config().abuse_events_per_day_server;
  abuse.seed = config.seed ^ 0xab5eULL;
  return abuse;
}

void publish_crawl_metrics(const CrawlOutput& crawl) {
  auto& registry = net::metrics::Registry::global();
  const crawler::CrawlStats& stats = crawl.stats;
  const auto count = [&registry](std::string_view name, std::string_view help,
                                 std::uint64_t value) {
    registry.counter(name, help).add(value);
  };
  count("crawler_get_nodes_sent_total", "get_nodes requests sent",
        stats.get_nodes_sent);
  count("crawler_get_nodes_responses_total", "get_nodes responses received",
        stats.get_nodes_responses);
  count("crawler_bt_pings_sent_total", "bt_ping requests sent",
        stats.pings_sent);
  count("crawler_bt_ping_responses_total", "bt_ping responses received",
        stats.ping_responses);
  count("crawler_endpoints_discovered_total",
        "Distinct (IP, port) endpoints discovered", stats.endpoints_discovered);
  count("crawler_endpoints_skipped_restricted_total",
        "Endpoints skipped by the blocklisted-space restriction",
        stats.endpoints_skipped_restricted);
  count("crawler_verification_rounds_total",
        "Multi-port verification rounds run", stats.verification_rounds);
  count("crawler_verification_retries_total",
        "Zero-reply verification rounds re-queued", stats.verification_retries);
  count("crawler_verification_recoveries_total",
        "Retried verifications that got a reply",
        stats.verification_recoveries);
  count("crawler_bootstrap_retries_total",
        "Watchdog re-queues of the bootstrap contact", stats.bootstrap_retries);
  count("crawler_bootstrap_recoveries_total",
        "Bootstrap responses first seen after a retry",
        stats.bootstrap_recoveries);
  registry
      .gauge("crawler_nated_addresses",
             "Addresses verified as NATed (this crawl)")
      .set(static_cast<std::int64_t>(crawl.nated.size()));
}

std::uint64_t config_fingerprint(const ScenarioConfig& config) {
  // Fingerprint what the scenario runner will actually see: finalize() wires
  // sub-seeds and default periods, and is idempotent.
  ScenarioConfig finalized_config = config;
  finalized_config.finalize();
  std::string buffer;
  net::BinaryWriter writer(buffer);
  write_fingerprint_fields(writer, finalized_config);
  return net::fnv1a_64(buffer);
}

void ScenarioConfig::finalize() {
  world.seed = seed;
  dht.seed = seed ^ 0xd47ULL;
  crawl.seed = seed ^ 0xc4a3ULL;
  fleet.seed = seed ^ 0xa71a5ULL;
  census.seed = seed ^ 0xce25ULL;
  if (ecosystem.periods.empty()) {
    ecosystem.periods = blocklist::paper_periods();
  }
  ecosystem.seed = seed ^ 0xb10cULL;
}

ScenarioConfig test_scenario_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.world = inet::test_world_config(seed);
  config.world.as_count = 120;
  config.crawl_days = 2;
  config.fleet.probe_count = 800;
  // The real census sampled 1% of all IPv4; at 1/20 scale a much larger
  // share is needed for the census footprint to intersect the (small)
  // blocklisted-dynamic population the way the paper's did.
  config.census.block_sample_fraction = 0.6;
  config.census.window = net::TimeWindow{net::SimTime(0), net::SimTime(7 * 86400)};
  config.finalize();
  return config;
}

ScenarioConfig bench_scenario_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.world = inet::bench_world_config(seed);
  config.crawl_days = 3;
  config.fleet.probe_count = 5000;
  // The real census sampled 1% of all IPv4; at 1/20 scale a much larger
  // share is needed for the census footprint to intersect the (small)
  // blocklisted-dynamic population the way the paper's did.
  config.census.block_sample_fraction = 0.6;
  config.finalize();
  return config;
}

ScenarioConfig world_scale_scenario_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.world = inet::world_scale_world_config(seed);
  // One crawl day keeps the DHT event volume proportionate: this preset
  // exists to stress the per-address state (ecosystem store, fleet log,
  // world tables), not the crawler.
  config.crawl_days = 1;
  config.fleet.probe_count = 100000;
  config.run_census = false;
  config.finalize();
  return config;
}

sim::FaultPlan default_chaos_plan(const ScenarioConfig& config,
                                  std::uint64_t chaos_seed) {
  ScenarioConfig cfg = config;
  cfg.finalize();
  sim::FaultPlan plan;
  plan.seed = chaos_seed;
  net::Rng rng(chaos_seed ^ 0xc4a05ULL);

  // Bootstrap outage covering the crawl start: the watchdog has to carry
  // discovery through it.
  const std::int64_t outage_end =
      1800 + static_cast<std::int64_t>(rng.uniform(1800));
  plan.episodes.push_back(sim::FaultEpisode{
      sim::FaultKind::kBootstrapOutage,
      net::TimeWindow{net::SimTime(0), net::SimTime(outage_end)}, 1.0, 1});

  // Loss burst somewhere after the outage, inside the crawl.
  const std::int64_t crawl_end = cfg.crawl_days * std::int64_t{86400};
  const std::int64_t burst_length =
      std::max<std::int64_t>(3600, crawl_end / 12);
  const std::int64_t burst_slack =
      std::max<std::int64_t>(1, crawl_end - outage_end - burst_length);
  const std::int64_t burst_begin =
      outage_end + static_cast<std::int64_t>(
                       rng.uniform(static_cast<std::uint64_t>(burst_slack)));
  plan.episodes.push_back(sim::FaultEpisode{
      sim::FaultKind::kBurstLoss,
      net::TimeWindow{net::SimTime(burst_begin),
                      net::SimTime(burst_begin + burst_length)},
      0.5, 2});

  // A 3-day feed outage and a 2-day corruption spell inside the first
  // collection period, each hitting ~35% of the lists.
  const net::TimeWindow period = cfg.ecosystem.periods.front();
  const std::int64_t first_day = period.begin.day();
  const std::int64_t period_days =
      std::max<std::int64_t>(6, period.end.day() - first_day);
  const std::int64_t outage_day =
      first_day + static_cast<std::int64_t>(
                      rng.uniform(static_cast<std::uint64_t>(period_days - 3)));
  plan.episodes.push_back(sim::FaultEpisode{
      sim::FaultKind::kFeedOutage,
      net::TimeWindow{net::SimTime(outage_day * 86400),
                      net::SimTime((outage_day + 3) * 86400)},
      0.35, 3});
  const std::int64_t corrupt_day =
      first_day + static_cast<std::int64_t>(
                      rng.uniform(static_cast<std::uint64_t>(period_days - 2)));
  plan.episodes.push_back(sim::FaultEpisode{
      sim::FaultKind::kFeedCorruption,
      net::TimeWindow{net::SimTime(corrupt_day * 86400),
                      net::SimTime((corrupt_day + 2) * 86400)},
      0.35, 4});

  // Atlas controller gap somewhere in the fleet window.
  const std::int64_t fleet_begin = cfg.fleet.window.begin.seconds();
  const std::int64_t fleet_length = cfg.fleet.window.end.seconds() - fleet_begin;
  const std::int64_t gap_length =
      std::max<std::int64_t>(86400, fleet_length / 40);
  const std::int64_t gap_slack = std::max<std::int64_t>(1, fleet_length - gap_length);
  const std::int64_t gap_begin =
      fleet_begin + static_cast<std::int64_t>(
                        rng.uniform(static_cast<std::uint64_t>(gap_slack)));
  plan.episodes.push_back(sim::FaultEpisode{
      sim::FaultKind::kAtlasGap,
      net::TimeWindow{net::SimTime(gap_begin),
                      net::SimTime(gap_begin + gap_length)},
      1.0, 5});
  return plan;
}

std::unique_ptr<net::ThreadPool> make_scenario_pool(int jobs) {
  const std::size_t resolved =
      jobs == 0 ? net::ThreadPool::hardware_jobs()
                : static_cast<std::size_t>(std::max(1, jobs));
  if (resolved <= 1) return nullptr;
  return std::make_unique<net::ThreadPool>(resolved);
}

std::optional<Scenario> run_stages(ScenarioConfig config, CachedCore* base,
                                   std::optional<std::int64_t> resume_from,
                                   StageTimer stage_times,
                                   blocklist::EcosystemCarry* carry) {
  config.finalize();
  const ScenarioSpan span = scenario_span(config);
  const bool resume = base != nullptr && resume_from.has_value();
  sim::FaultInjector injector(config.faults);
  const std::unique_ptr<net::ThreadPool> pool = make_scenario_pool(config.jobs);
  inet::World world =
      stage_times.time("world", [&] { return inet::World(config.world); });
  std::vector<blocklist::BlocklistInfo> catalogue =
      blocklist::build_catalogue(config.seed ^ 0xca7aULL);

  // Ecosystem. The abuse events stream through the feeds in month-sized
  // slices instead of being materialized: one slice is bounded by the
  // busiest month, while the whole stream grows with the simulated days and
  // would dominate peak RSS at world scale. Ingestion stops at the span
  // end, so a later horizon's events are left for a resume to ingest.
  blocklist::EcosystemResult ecosystem;
  if (base != nullptr && !resume) {
    ecosystem = std::move(base->ecosystem);
    blocklist::publish_feed_metrics(ecosystem.stats);
  } else {
    const bool ran = stage_times.time("ecosystem", [&] {
      sim::StageGuard guard(&injector, sim::FaultStage::kEcosystem);
      blocklist::EcosystemSimulator simulator(catalogue, config.ecosystem,
                                              &injector, pool.get());
      if (resume && !simulator.resume_from(
                        base->carry, base->ecosystem.stats,
                        base->ecosystem.stats.snapshots_taken)) {
        return false;
      }
      const inet::AbuseGenConfig abuse = scenario_abuse_config(world, config);
      inet::stream_abuse_range(
          world, abuse, /*chunk_days=*/32,
          resume ? *resume_from : abuse.window.begin.seconds(),
          span.collection.end.seconds(),
          [&](std::span<const inet::AbuseEvent> chunk) {
            simulator.ingest(chunk);
          });
      ecosystem = simulator.finish(carry);
      return true;
    });
    if (!ran) return std::nullopt;
  }

  // A resume folds its new-era recordings into the base store; the runs
  // coalesce across the seam, so the store equals a one-piece recording.
  // The tail's per-feed counters already continue the base's; only
  // events_seen counts the tail's own events and is summed here.
  std::optional<net::PrefixSet> base_slash24s;
  if (resume) {
    if (config.restrict_crawler_to_blocklisted) {
      base_slash24s = base->ecosystem.store.blocklisted_slash24s();
    }
    blocklist::EcosystemResult tail = std::move(ecosystem);
    ecosystem.store = std::move(base->ecosystem.store);
    ecosystem.store.merge_from(tail.store);
    ecosystem.stats = std::move(tail.stats);
    ecosystem.stats.events_seen += base->ecosystem.stats.events_seen;
  }

  // Crawl. Its only ecosystem input is the blocklisted /24 set the crawler
  // restriction reads, so the base crawl stays valid unless that set moved.
  const auto sorted_prefixes = [](const net::PrefixSet& set) {
    std::vector<net::Ipv4Prefix> prefixes = set.to_vector();
    std::sort(prefixes.begin(), prefixes.end());
    return prefixes;
  };
  const bool crawl_reused =
      base != nullptr &&
      (!base_slash24s ||
       sorted_prefixes(*base_slash24s) ==
           sorted_prefixes(ecosystem.store.blocklisted_slash24s()));
  CrawlOutput crawl;
  if (crawl_reused) {
    crawl = std::move(base->crawl);
    publish_crawl_metrics(crawl);
  } else {
    crawl = stage_times.time("crawl", [&] {
      sim::StageGuard guard(&injector, sim::FaultStage::kCrawl);
      return run_scenario_crawl(world, ecosystem.store, config, &injector,
                                pool.get(), &stage_times);
    });
  }

  const bool fleet_restored =
      base != nullptr && base->has_fleet &&
      base->fleet.fingerprint == fleet_config_fingerprint(config.fleet);
  atlas::AtlasFleet fleet = stage_times.time("fleet", [&] {
    if (fleet_restored) {
      return atlas::AtlasFleet::restore(
          std::move(base->fleet.log), std::move(base->fleet.truths),
          base->fleet.records_suppressed, base->fleet.allocations,
          base->fleet.gap_bridged_days);
    }
    sim::StageGuard guard(&injector, sim::FaultStage::kFleet);
    return atlas::AtlasFleet(world, config.fleet, &injector, pool.get());
  });
  dynadetect::PipelineResult pipeline = stage_times.time("pipeline", [&] {
    return dynadetect::run_pipeline(fleet.compressed_log(), config.pipeline,
                                    pool.get());
  });
  census::CensusResult census = stage_times.time("census", [&] {
    return config.run_census
               ? census::run_census(world, config.census, {}, pool.get())
               : census::CensusResult{};
  });

  // The fault ledger: what this run injected, plus the base run's share of
  // every stage taken from the base (a stage that re-ran replayed its whole
  // fault window here).
  sim::FaultStats injected = injector.stats();
  if (base != nullptr) {
    injected.feed_snapshots_suppressed +=
        base->injected.feed_snapshots_suppressed;
    injected.feeds_corrupted += base->injected.feeds_corrupted;
  }
  if (crawl_reused) {
    injected.burst_request_drops += base->injected.burst_request_drops;
    injected.burst_response_drops += base->injected.burst_response_drops;
    injected.bootstrap_blackholes += base->injected.bootstrap_blackholes;
  }
  if (fleet_restored) {
    injected.atlas_records_suppressed +=
        base->injected.atlas_records_suppressed;
  }
  DegradationReport degradation = build_degradation_report(
      injected, crawl.stats, crawl.transport_fault_request_drops,
      crawl.transport_fault_response_drops, ecosystem.stats,
      fleet.records_suppressed(), pipeline);
  return Scenario{std::move(config),      std::move(world),
                  std::move(catalogue),   std::move(ecosystem),
                  std::move(crawl),       std::move(fleet),
                  std::move(pipeline),    std::move(census),
                  std::move(degradation), /*cache_hit=*/base != nullptr,
                  std::move(stage_times)};
}

Scenario run_scenario(ScenarioConfig config) {
  return *run_stages(std::move(config), nullptr, std::nullopt, {}, nullptr);
}

std::uint64_t products_fingerprint(const CrawlOutput& crawl,
                                   const blocklist::EcosystemResult& ecosystem,
                                   const atlas::AtlasFleet& fleet,
                                   const dynadetect::PipelineResult& pipeline,
                                   const census::CensusResult& census) {
  std::string buffer;
  net::BinaryWriter w(buffer);

  auto write_prefix = [&](const net::Ipv4Prefix& prefix) {
    w.write(prefix.network().value());
    w.write(static_cast<std::uint8_t>(prefix.length()));
  };
  auto write_prefix_set = [&](const net::PrefixSet& set) {
    std::vector<net::Ipv4Prefix> prefixes = set.to_vector();
    std::sort(prefixes.begin(), prefixes.end());
    w.write(static_cast<std::uint64_t>(prefixes.size()));
    for (const net::Ipv4Prefix& prefix : prefixes) write_prefix(prefix);
  };
  auto write_intervals = [&](const net::IntervalSet& set) {
    w.write(static_cast<std::uint64_t>(set.interval_count()));
    for (const net::IntervalSet::Interval& span : set.intervals()) {
      w.write(span.begin);
      w.write(span.end);
    }
  };

  // Ecosystem: the store streams in canonical (list, address) order — the
  // compressed store's native iteration order — plus stats.
  w.write(static_cast<std::uint64_t>(ecosystem.store.listing_count()));
  ecosystem.store.for_each_listing(
      [&](blocklist::ListId list, net::Ipv4Address address,
          const net::IntervalSet& intervals) {
        w.write(static_cast<std::uint32_t>(list));
        w.write(address.value());
        write_intervals(intervals);
      });
  std::uint64_t observed_count = 0;
  ecosystem.store.for_each_observed(
      [&](blocklist::ListId, const net::IntervalSet&) { ++observed_count; });
  w.write(observed_count);
  ecosystem.store.for_each_observed(
      [&](blocklist::ListId list, const net::IntervalSet& days) {
        w.write(static_cast<std::uint32_t>(list));
        write_intervals(days);
      });
  const blocklist::EcosystemStats& eco = ecosystem.stats;
  w.write(eco.events_seen);
  w.write(eco.events_picked_up);
  w.write(eco.snapshots_taken);
  w.write(eco.snapshots_missed);
  w.write(eco.feeds_quarantined);
  w.write(eco.feeds_salvaged);
  w.write(eco.entries_discarded);
  w.write(eco.feed_lines_skipped);
  for (const blocklist::FeedHealth& health : eco.per_list) {
    w.write(static_cast<std::uint32_t>(health.list));
    w.write(health.days_recorded);
    w.write(health.days_missed);
    w.write(health.days_quarantined);
    w.write(health.days_salvaged);
    w.write(health.lines_skipped);
    w.write(health.entries_discarded);
  }

  // Crawl: stats, the NATed roster, and the evidence set (sorted).
  w.write(crawl.stats.get_nodes_sent);
  w.write(crawl.stats.get_nodes_responses);
  w.write(crawl.stats.pings_sent);
  w.write(crawl.stats.ping_responses);
  w.write(crawl.stats.endpoints_discovered);
  w.write(crawl.stats.endpoints_skipped_restricted);
  w.write(crawl.stats.verification_rounds);
  w.write(static_cast<std::uint64_t>(crawl.distinct_node_ids));
  w.write(static_cast<std::uint64_t>(crawl.dht_peers));
  w.write(static_cast<std::uint64_t>(crawl.dht_addresses));
  w.write(crawl.transport_fault_request_drops);
  w.write(crawl.transport_fault_response_drops);
  std::vector<std::pair<net::Ipv4Address, std::size_t>> nated = crawl.nated;
  std::sort(nated.begin(), nated.end());
  w.write(static_cast<std::uint64_t>(nated.size()));
  for (const auto& [address, users] : nated) {
    w.write(address.value());
    w.write(static_cast<std::uint64_t>(users));
  }
  std::vector<std::pair<net::Ipv4Address, std::size_t>> evidence;
  evidence.reserve(crawl.evidence.size());
  for (const auto& [address, info] : crawl.evidence) {
    evidence.emplace_back(address, info.max_concurrent_users);
  }
  std::sort(evidence.begin(), evidence.end());
  w.write(static_cast<std::uint64_t>(evidence.size()));
  for (const auto& [address, users] : evidence) {
    w.write(address.value());
    w.write(static_cast<std::uint64_t>(users));
  }

  // Fleet: the run-compressed log in its probe-major order (covers every
  // record the expansion would, plus the stride), truths, suppression.
  const atlas::CompressedLog& log = fleet.compressed_log();
  w.write(log.stride_seconds());
  w.write(log.record_count());
  w.write(static_cast<std::uint64_t>(log.probe_count()));
  for (std::size_t p = 0; p < log.probe_count(); ++p) {
    w.write(static_cast<std::uint32_t>(log.probe_id_at(p)));
    const auto [first, last] = log.runs_of(p);
    w.write(static_cast<std::uint64_t>(last - first));
    for (std::size_t r = first; r < last; ++r) {
      const atlas::LogRun run = log.run_at(r);
      w.write(run.first_seconds);
      w.write(run.last_seconds);
      w.write(run.address.value());
      w.write(static_cast<std::uint32_t>(run.asn));
    }
  }
  w.write(static_cast<std::uint64_t>(fleet.truths().size()));
  for (const atlas::ProbeTruth& truth : fleet.truths()) {
    w.write(static_cast<std::uint32_t>(truth.probe_id));
    w.write(static_cast<std::uint64_t>(truth.host));
    w.write(static_cast<std::uint64_t>(truth.second_host));
    w.write(static_cast<std::uint8_t>(truth.on_dynamic_pool));
    w.write(static_cast<std::uint8_t>(truth.on_fast_pool));
    w.write(static_cast<std::uint8_t>(truth.relocated));
  }
  w.write(fleet.records_suppressed());

  // Pipeline: the funnel, the curve, and every prefix footprint.
  w.write(static_cast<std::uint64_t>(pipeline.probes_total));
  w.write(static_cast<std::uint64_t>(pipeline.probes_multi_as));
  w.write(static_cast<std::uint64_t>(pipeline.probes_single_as));
  w.write(static_cast<std::uint64_t>(pipeline.probes_with_changes));
  w.write(static_cast<std::uint64_t>(pipeline.probes_above_knee));
  w.write(static_cast<std::uint64_t>(pipeline.probes_daily));
  w.write(static_cast<std::uint64_t>(pipeline.change_gaps_capped));
  w.write(static_cast<std::uint64_t>(pipeline.probes_gap_affected));
  w.write(static_cast<std::int64_t>(pipeline.knee_allocations));
  w.write(static_cast<std::uint64_t>(pipeline.qualifying_addresses));
  w.write(static_cast<std::uint64_t>(pipeline.single_as_addresses));
  w.write(static_cast<std::uint64_t>(pipeline.allocation_curve.size()));
  for (const double count : pipeline.allocation_curve) w.write(count);
  w.write(static_cast<std::uint64_t>(pipeline.qualifying_probes.size()));
  for (const atlas::ProbeId probe : pipeline.qualifying_probes) {
    w.write(static_cast<std::uint32_t>(probe));
  }
  write_prefix_set(pipeline.dynamic_prefixes);
  write_prefix_set(pipeline.all_probe_prefixes);
  write_prefix_set(pipeline.single_as_change_prefixes);
  write_prefix_set(pipeline.above_knee_prefixes);

  // Census: totals, per-block metrics in survey order, dynamic blocks.
  w.write(static_cast<std::uint64_t>(census.blocks_surveyed));
  w.write(census.probes_sent);
  w.write(census.responses);
  w.write(static_cast<std::uint64_t>(census.blocks.size()));
  for (const census::BlockMetrics& block : census.blocks) {
    write_prefix(block.block);
    w.write(block.responsive_addresses);
    w.write(block.mean_availability);
    w.write(block.mean_volatility);
    w.write(block.median_uptime_seconds);
  }
  write_prefix_set(census.dynamic_blocks);

  return net::fnv1a_64(buffer);
}

}  // namespace reuse::analysis
