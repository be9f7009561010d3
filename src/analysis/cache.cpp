#include "analysis/cache.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <system_error>
#include <tuple>

#include "analysis/stage_runner.h"
#include "netbase/serialize.h"

namespace reuse::analysis {
namespace {

constexpr std::uint64_t kMagic = 0x52455553454341ULL;  // "REUSECA"
// v6: the payload gained the incremental-resume sections — per-feed carry
// cursors (RNG state, live map, pickup counter) and the fleet products
// keyed by a fleet-config fingerprint. v5 files (and any other version)
// are rejected cleanly by the envelope's version check and re-simulated;
// they are never partially decoded.
constexpr std::uint32_t kVersion = 6;
// The format header is cache_header(): calibration version u32, config
// fingerprint u64, seed u64, as_count u64.
constexpr net::ArtifactFormat kFormat{kMagic, kVersion, 28, "scenario cache"};

// Decoder bounds: a corrupt length prefix must fail the load immediately,
// not drive a multi-billion-iteration read loop. All generously above
// anything a real scenario produces.
constexpr std::uint64_t kMaxEvidenceEntries = 1ULL << 32;
constexpr std::uint64_t kMaxPortsPerIp = 65536;
constexpr std::uint64_t kMaxListings = 1ULL << 33;
constexpr std::uint64_t kMaxIntervalsPerListing = 1ULL << 22;
constexpr std::uint64_t kMaxLists = 1ULL << 20;
constexpr std::uint64_t kMaxLivePerFeed = 1ULL << 30;
constexpr std::uint64_t kMaxProbes = 1ULL << 24;
constexpr std::uint64_t kMaxRunsPerProbe = 1ULL << 26;

void write_crawl(net::BinaryWriter& writer, const CrawlOutput& crawl) {
  const crawler::CrawlStats& stats = crawl.stats;
  writer.write(stats.get_nodes_sent);
  writer.write(stats.get_nodes_responses);
  writer.write(stats.pings_sent);
  writer.write(stats.ping_responses);
  writer.write(stats.endpoints_discovered);
  writer.write(stats.endpoints_skipped_restricted);
  writer.write(stats.verification_rounds);
  writer.write(stats.bootstrap_retries);
  writer.write(stats.bootstrap_recoveries);
  writer.write(stats.verification_retries);
  writer.write(stats.verification_recoveries);
  writer.write(static_cast<std::uint64_t>(crawl.distinct_node_ids));
  writer.write(static_cast<std::uint64_t>(crawl.dht_peers));
  writer.write(static_cast<std::uint64_t>(crawl.dht_addresses));
  writer.write(crawl.transport_fault_request_drops);
  writer.write(crawl.transport_fault_response_drops);

  // Addresses and per-address ports are written sorted so the same crawl
  // always serializes to the same bytes (the in-memory containers are
  // unordered); deterministic bytes make save idempotent and testable.
  std::vector<net::Ipv4Address> addresses;
  addresses.reserve(crawl.evidence.size());
  for (const auto& [address, evidence] : crawl.evidence) {
    addresses.push_back(address);
  }
  std::sort(addresses.begin(), addresses.end());

  writer.write(static_cast<std::uint64_t>(addresses.size()));
  for (const net::Ipv4Address address : addresses) {
    const crawler::IpEvidence& evidence = crawl.evidence.at(address);
    writer.write(address.value());
    std::vector<std::uint16_t> ports(evidence.ports.begin(),
                                     evidence.ports.end());
    std::sort(ports.begin(), ports.end());
    writer.write(static_cast<std::uint64_t>(ports.size()));
    for (const std::uint16_t port : ports) writer.write(port);
    writer.write(static_cast<std::uint32_t>(evidence.max_concurrent_users));
    writer.write(evidence.verification_rounds);
    writer.write(evidence.first_seen.seconds());
    writer.write(evidence.last_seen.seconds());
  }
}

bool read_crawl(net::BinaryReader& reader, CrawlOutput& crawl) {
  crawler::CrawlStats& stats = crawl.stats;
  stats.get_nodes_sent = reader.read<std::uint64_t>();
  stats.get_nodes_responses = reader.read<std::uint64_t>();
  stats.pings_sent = reader.read<std::uint64_t>();
  stats.ping_responses = reader.read<std::uint64_t>();
  stats.endpoints_discovered = reader.read<std::uint64_t>();
  stats.endpoints_skipped_restricted = reader.read<std::uint64_t>();
  stats.verification_rounds = reader.read<std::uint64_t>();
  stats.bootstrap_retries = reader.read<std::uint64_t>();
  stats.bootstrap_recoveries = reader.read<std::uint64_t>();
  stats.verification_retries = reader.read<std::uint64_t>();
  stats.verification_recoveries = reader.read<std::uint64_t>();
  crawl.distinct_node_ids = reader.read<std::uint64_t>();
  crawl.dht_peers = reader.read<std::uint64_t>();
  crawl.dht_addresses = reader.read<std::uint64_t>();
  crawl.transport_fault_request_drops = reader.read<std::uint64_t>();
  crawl.transport_fault_response_drops = reader.read<std::uint64_t>();

  // write_crawl emits the evidence in strictly ascending address order, so
  // `nated` fills in the address order the live Crawler::nated() returns.
  const std::uint64_t evidence_count = reader.read_size(kMaxEvidenceEntries);
  std::uint32_t previous = 0;
  for (std::uint64_t i = 0; i < evidence_count && reader.ok(); ++i) {
    const std::uint32_t value = reader.read<std::uint32_t>();
    if (i > 0 && value <= previous) {
      reader.fail();  // not the sorted, duplicate-free render write_crawl emits
      break;
    }
    previous = value;
    const net::Ipv4Address address(value);
    crawler::IpEvidence evidence;
    const std::uint64_t port_count = reader.read_size(kMaxPortsPerIp);
    for (std::uint64_t p = 0; p < port_count && reader.ok(); ++p) {
      evidence.ports.insert(reader.read<std::uint16_t>());
    }
    evidence.max_concurrent_users = reader.read<std::uint32_t>();
    evidence.verification_rounds = reader.read<std::uint32_t>();
    evidence.first_seen = net::SimTime(reader.read<std::int64_t>());
    evidence.last_seen = net::SimTime(reader.read<std::int64_t>());
    if (evidence.is_nated()) {
      crawl.nated.emplace_back(address, evidence.max_concurrent_users);
      crawl.nated_set.insert(address);
    }
    crawl.evidence.emplace(address, std::move(evidence));
  }
  return reader.ok();
}

void write_store(net::BinaryWriter& writer,
                 const blocklist::EcosystemResult& ecosystem) {
  writer.write(ecosystem.stats.events_seen);
  writer.write(ecosystem.stats.events_picked_up);
  writer.write(ecosystem.stats.snapshots_taken);
  writer.write(ecosystem.stats.snapshots_missed);
  writer.write(ecosystem.stats.feeds_quarantined);
  writer.write(ecosystem.stats.feeds_salvaged);
  writer.write(ecosystem.stats.entries_discarded);
  writer.write(ecosystem.stats.feed_lines_skipped);

  writer.write(static_cast<std::uint64_t>(ecosystem.stats.per_list.size()));
  for (const blocklist::FeedHealth& health : ecosystem.stats.per_list) {
    writer.write(health.list);
    writer.write(health.days_recorded);
    writer.write(health.days_missed);
    writer.write(health.days_quarantined);
    writer.write(health.days_salvaged);
    writer.write(health.lines_skipped);
    writer.write(health.entries_discarded);
  }

  // Observed-day records. The store iterates in ascending list order, which
  // is exactly the deterministic byte order this format always used.
  std::uint64_t observed_count = 0;
  ecosystem.store.for_each_observed(
      [&](blocklist::ListId, const net::IntervalSet&) { ++observed_count; });
  writer.write(observed_count);
  ecosystem.store.for_each_observed(
      [&](blocklist::ListId list, const net::IntervalSet& days) {
        writer.write(list);
        writer.write(static_cast<std::uint64_t>(days.interval_count()));
        for (const auto& interval : days.intervals()) {
          writer.write(interval.begin);
          writer.write(interval.end);
        }
      });

  // Listings stream straight out in the store's ascending (list, address)
  // iteration order — same bytes the old sort-then-write produced, without
  // materializing a reference table.
  writer.write(static_cast<std::uint64_t>(ecosystem.store.listing_count()));
  ecosystem.store.for_each_listing([&](blocklist::ListId list,
                                       net::Ipv4Address address,
                                       const net::IntervalSet& intervals) {
    writer.write(list);
    writer.write(address.value());
    writer.write(static_cast<std::uint64_t>(intervals.interval_count()));
    for (const auto& interval : intervals.intervals()) {
      writer.write(interval.begin);
      writer.write(interval.end);
    }
  });
}

bool read_store(net::BinaryReader& reader,
                blocklist::EcosystemResult& ecosystem) {
  ecosystem.stats.events_seen = reader.read<std::uint64_t>();
  ecosystem.stats.events_picked_up = reader.read<std::uint64_t>();
  ecosystem.stats.snapshots_taken = reader.read<std::uint64_t>();
  ecosystem.stats.snapshots_missed = reader.read<std::uint64_t>();
  ecosystem.stats.feeds_quarantined = reader.read<std::uint64_t>();
  ecosystem.stats.feeds_salvaged = reader.read<std::uint64_t>();
  ecosystem.stats.entries_discarded = reader.read<std::uint64_t>();
  ecosystem.stats.feed_lines_skipped = reader.read<std::uint64_t>();

  const std::uint64_t health_count = reader.read_size(kMaxLists);
  ecosystem.stats.per_list.reserve(health_count);
  for (std::uint64_t i = 0; i < health_count && reader.ok(); ++i) {
    blocklist::FeedHealth health;
    health.list = reader.read<blocklist::ListId>();
    health.days_recorded = reader.read<std::int64_t>();
    health.days_missed = reader.read<std::int64_t>();
    health.days_quarantined = reader.read<std::int64_t>();
    health.days_salvaged = reader.read<std::int64_t>();
    health.lines_skipped = reader.read<std::uint64_t>();
    health.entries_discarded = reader.read<std::uint64_t>();
    ecosystem.stats.per_list.push_back(health);
  }

  const std::uint64_t observed_count = reader.read_size(kMaxLists);
  for (std::uint64_t i = 0; i < observed_count && reader.ok(); ++i) {
    const auto list = reader.read<blocklist::ListId>();
    const std::uint64_t interval_count =
        reader.read_size(kMaxIntervalsPerListing);
    std::int64_t previous_end = std::numeric_limits<std::int64_t>::min();
    for (std::uint64_t k = 0; k < interval_count && reader.ok(); ++k) {
      const auto begin = reader.read<std::int64_t>();
      const auto end = reader.read<std::int64_t>();
      if (begin >= end || begin <= previous_end) {
        reader.fail();
        break;
      }
      previous_end = end;
      ecosystem.store.mark_observed_span(list, begin, end);
    }
  }

  const std::uint64_t listings = reader.read_size(kMaxListings);
  for (std::uint64_t i = 0; i < listings && reader.ok(); ++i) {
    const auto list = reader.read<blocklist::ListId>();
    const net::Ipv4Address address(reader.read<std::uint32_t>());
    const std::uint64_t interval_count =
        reader.read_size(kMaxIntervalsPerListing);
    // write_store emits each listing's intervals sorted, disjoint and
    // coalesced; enforce that here so record_span's appends stay O(1) and
    // corrupted interval data fails instead of silently merging.
    std::int64_t previous_end = std::numeric_limits<std::int64_t>::min();
    for (std::uint64_t k = 0; k < interval_count && reader.ok(); ++k) {
      const auto begin = reader.read<std::int64_t>();
      const auto end = reader.read<std::int64_t>();
      if (begin >= end || begin <= previous_end) {
        reader.fail();
        break;
      }
      previous_end = end;
      ecosystem.store.record_span(list, address, begin, end);
    }
  }
  return reader.ok();
}

void write_faults(net::BinaryWriter& writer, const sim::FaultStats& injected) {
  writer.write(injected.burst_request_drops);
  writer.write(injected.burst_response_drops);
  writer.write(injected.bootstrap_blackholes);
  writer.write(injected.feed_snapshots_suppressed);
  writer.write(injected.feeds_corrupted);
  writer.write(injected.atlas_records_suppressed);
}

bool read_faults(net::BinaryReader& reader, sim::FaultStats& injected) {
  injected.burst_request_drops = reader.read<std::uint64_t>();
  injected.burst_response_drops = reader.read<std::uint64_t>();
  injected.bootstrap_blackholes = reader.read<std::uint64_t>();
  injected.feed_snapshots_suppressed = reader.read<std::uint64_t>();
  injected.feeds_corrupted = reader.read<std::uint64_t>();
  injected.atlas_records_suppressed = reader.read<std::uint64_t>();
  return reader.ok();
}

// v6 carry section: a presence flag, then one cursor per feed. The live
// maps are already address-sorted (FeedCarry's contract), so the section —
// like the rest of the payload — is byte-identical for identical products.
void write_carry(net::BinaryWriter& writer,
                 const blocklist::EcosystemCarry* carry) {
  writer.write(static_cast<std::uint8_t>(carry != nullptr ? 1 : 0));
  if (carry == nullptr) return;
  writer.write(static_cast<std::uint64_t>(carry->feeds.size()));
  for (const blocklist::FeedCarry& feed : carry->feeds) {
    for (const std::uint64_t word : feed.rng_state) writer.write(word);
    writer.write(static_cast<std::uint64_t>(feed.live.size()));
    for (const auto& [address, expiry] : feed.live) {
      writer.write(address.value());
      writer.write(expiry);
    }
    writer.write(feed.events_picked_up);
  }
}

bool read_carry(net::BinaryReader& reader, CachedCore& core) {
  const std::uint8_t present = reader.read<std::uint8_t>();
  if (present == 0) return reader.ok();
  if (present != 1) {
    reader.fail();
    return false;
  }
  core.has_carry = true;
  const std::uint64_t feed_count = reader.read_size(kMaxLists);
  core.carry.feeds.reserve(feed_count);
  for (std::uint64_t i = 0; i < feed_count && reader.ok(); ++i) {
    blocklist::FeedCarry feed;
    for (std::uint64_t& word : feed.rng_state) {
      word = reader.read<std::uint64_t>();
    }
    const std::uint64_t live_count = reader.read_size(kMaxLivePerFeed);
    feed.live.reserve(live_count);
    std::uint32_t previous = 0;
    for (std::uint64_t k = 0; k < live_count && reader.ok(); ++k) {
      const std::uint32_t address = reader.read<std::uint32_t>();
      if (k > 0 && address <= previous) {
        reader.fail();  // not the sorted, duplicate-free render write_carry emits
        break;
      }
      previous = address;
      feed.live.emplace_back(net::Ipv4Address(address),
                             reader.read<std::int64_t>());
    }
    feed.events_picked_up = reader.read<std::uint64_t>();
    core.carry.feeds.push_back(std::move(feed));
  }
  return reader.ok();
}

// v6 fleet section: a presence flag, the fleet-config fingerprint, then the
// compressed log (probe-major, its native order), the truths, and the three
// counters.
void write_fleet(net::BinaryWriter& writer, const atlas::AtlasFleet* fleet,
                 std::uint64_t fingerprint) {
  writer.write(static_cast<std::uint8_t>(fleet != nullptr ? 1 : 0));
  if (fleet == nullptr) return;
  writer.write(fingerprint);
  const atlas::CompressedLog& log = fleet->compressed_log();
  writer.write(log.stride_seconds());
  writer.write(static_cast<std::uint64_t>(log.probe_count()));
  for (std::size_t p = 0; p < log.probe_count(); ++p) {
    writer.write(static_cast<std::uint32_t>(log.probe_id_at(p)));
    const auto [first, last] = log.runs_of(p);
    writer.write(static_cast<std::uint64_t>(last - first));
    for (std::size_t r = first; r < last; ++r) {
      const atlas::LogRun run = log.run_at(r);
      writer.write(run.first_seconds);
      writer.write(run.last_seconds);
      writer.write(run.address.value());
      writer.write(static_cast<std::uint32_t>(run.asn));
    }
  }
  writer.write(static_cast<std::uint64_t>(fleet->truths().size()));
  for (const atlas::ProbeTruth& truth : fleet->truths()) {
    writer.write(static_cast<std::uint32_t>(truth.probe_id));
    writer.write(static_cast<std::uint64_t>(truth.host));
    writer.write(static_cast<std::uint64_t>(truth.second_host));
    writer.write(static_cast<std::uint8_t>(truth.on_dynamic_pool));
    writer.write(static_cast<std::uint8_t>(truth.on_fast_pool));
    writer.write(static_cast<std::uint8_t>(truth.relocated));
  }
  writer.write(fleet->records_suppressed());
  writer.write(fleet->allocations());
  writer.write(fleet->gap_bridged_days());
}

bool read_fleet(net::BinaryReader& reader, CachedCore& core) {
  const std::uint8_t present = reader.read<std::uint8_t>();
  if (present == 0) return reader.ok();
  if (present != 1) {
    reader.fail();
    return false;
  }
  core.has_fleet = true;
  core.fleet.fingerprint = reader.read<std::uint64_t>();
  const std::int64_t stride = reader.read<std::int64_t>();
  if (stride <= 0) {
    reader.fail();
    return false;
  }
  core.fleet.log = atlas::CompressedLog(stride);
  const std::uint64_t probe_count = reader.read_size(kMaxProbes);
  std::vector<atlas::LogRun> runs;
  std::uint32_t previous_id = 0;
  for (std::uint64_t p = 0; p < probe_count && reader.ok(); ++p) {
    const std::uint32_t id = reader.read<std::uint32_t>();
    if (id <= previous_id) {
      reader.fail();  // append_probe requires strictly ascending ids
      break;
    }
    previous_id = id;
    const std::uint64_t run_count = reader.read_size(kMaxRunsPerProbe);
    runs.clear();
    runs.reserve(run_count);
    std::int64_t previous_first = std::numeric_limits<std::int64_t>::min();
    for (std::uint64_t r = 0; r < run_count && reader.ok(); ++r) {
      atlas::LogRun run;
      run.first_seconds = reader.read<std::int64_t>();
      run.last_seconds = reader.read<std::int64_t>();
      run.address = net::Ipv4Address(reader.read<std::uint32_t>());
      run.asn = reader.read<std::uint32_t>();
      if (run.last_seconds < run.first_seconds ||
          run.first_seconds < previous_first) {
        reader.fail();
        break;
      }
      previous_first = run.first_seconds;
      runs.push_back(run);
    }
    if (!reader.ok()) break;
    core.fleet.log.append_probe(static_cast<atlas::ProbeId>(id), runs);
  }
  const std::uint64_t truth_count = reader.read_size(kMaxProbes);
  core.fleet.truths.reserve(truth_count);
  for (std::uint64_t i = 0; i < truth_count && reader.ok(); ++i) {
    atlas::ProbeTruth truth;
    truth.probe_id = static_cast<atlas::ProbeId>(reader.read<std::uint32_t>());
    truth.host = static_cast<inet::UserId>(reader.read<std::uint64_t>());
    truth.second_host =
        static_cast<inet::UserId>(reader.read<std::uint64_t>());
    truth.on_dynamic_pool = reader.read<std::uint8_t>() != 0;
    truth.on_fast_pool = reader.read<std::uint8_t>() != 0;
    truth.relocated = reader.read<std::uint8_t>() != 0;
    core.fleet.truths.push_back(truth);
  }
  core.fleet.records_suppressed = reader.read<std::uint64_t>();
  core.fleet.allocations = reader.read<std::uint64_t>();
  core.fleet.gap_bridged_days = reader.read<std::uint64_t>();
  return reader.ok();
}

/// Whether `extended` can resume from a cache of `base`: it adds days, and
/// both resolve to the same abuse horizon. Actor episode placement depends
/// on the generation window's END, so only then is the base's event stream
/// a prefix of the extended one; otherwise resuming would diverge.
bool resumable(const ScenarioConfig& base, const ScenarioConfig& extended) {
  const ScenarioSpan before = scenario_span(base);
  const ScenarioSpan after = scenario_span(extended);
  return after.collection.end > before.collection.end &&
         after.horizon == before.horizon;
}

/// The cache's format header: the calibration version and the three keys a
/// file must carry to be loaded for `config`.
std::string cache_header(const ScenarioConfig& config) {
  std::string header;
  net::BinaryWriter writer(header);
  writer.write(kCalibrationVersion);
  writer.write(config_fingerprint(config));
  writer.write(config.seed);
  writer.write(static_cast<std::uint64_t>(config.world.as_count));
  return header;
}

}  // namespace

std::uint64_t fleet_config_fingerprint(const atlas::FleetConfig& fleet) {
  std::string buffer;
  net::BinaryWriter writer(buffer);
  writer.write(fleet.seed);
  writer.write(static_cast<std::uint64_t>(fleet.probe_count));
  writer.write(fleet.window.begin.seconds());
  writer.write(fleet.window.end.seconds());
  writer.write(fleet.relocate_fraction);
  writer.write(fleet.keepalive.count());
  return net::fnv1a_64(buffer);
}

CacheMetrics& cache_metrics() {
  static CacheMetrics m{
      net::metrics::counter("cache_hits_total",
                            "Scenario caches restored successfully"),
      net::metrics::counter("cache_misses_total",
                            "Cache probes that found no readable file"),
      net::metrics::counter("cache_rejects_total",
                            "Cache files present but rejected by validation "
                            "(magic/version/fingerprint/checksum/decode)"),
      net::metrics::counter("cache_saves_total", "Cache files written"),
      net::metrics::counter("cache_bytes_read_total",
                            "Payload bytes of restored cache files"),
      net::metrics::counter("cache_bytes_written_total",
                            "Payload bytes of saved cache files"),
  };
  return m;
}

bool save_scenario_cache(const std::string& path, const ScenarioConfig& config,
                         const CrawlOutput& crawl,
                         const blocklist::EcosystemResult& ecosystem,
                         const sim::FaultStats& injected,
                         const blocklist::EcosystemCarry* carry,
                         const atlas::AtlasFleet* fleet) {
  std::string payload;
  net::BinaryWriter writer(payload);
  write_crawl(writer, crawl);
  write_store(writer, ecosystem);
  write_faults(writer, injected);
  write_carry(writer, carry);
  write_fleet(writer, fleet, fleet_config_fingerprint(config.fleet));
  if (!net::save_artifact(path, kFormat, cache_header(config), payload)) {
    return false;
  }
  cache_metrics().saves.increment();
  cache_metrics().bytes_written.add(payload.size());
  return true;
}

std::optional<CachedCore> load_scenario_cache(const std::string& path,
                                              const ScenarioConfig& config) {
  CacheMetrics& metrics = cache_metrics();
  const net::LoadedArtifact file = net::load_artifact(path, kFormat);
  if (file.absent) {
    metrics.misses.increment();
    return std::nullopt;
  }
  // Anything present-but-invalid is a *reject*: the file cannot be trusted
  // (torn, corrupted, stale version, foreign config, bytes write_* did not
  // emit) and the scenario re-simulates.
  const auto reject = [&metrics]() -> std::optional<CachedCore> {
    metrics.rejects.increment();
    return std::nullopt;
  };
  if (!file.ok() || file.header != cache_header(config)) return reject();

  net::BinaryReader reader(file.payload);
  CachedCore core;
  if (!read_crawl(reader, core.crawl) ||
      !read_store(reader, core.ecosystem) ||
      !read_faults(reader, core.injected) || !read_carry(reader, core) ||
      !read_fleet(reader, core) || !reader.at_end()) {
    return reject();
  }
  metrics.hits.increment();
  metrics.bytes_read.add(file.payload.size());
  return core;
}

std::optional<std::string> preflight_cache_path(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_status status = fs::status(path, ec);
  if (!ec && fs::exists(status)) {
    if (fs::is_directory(status)) {
      return "cache path is a directory: " + path;
    }
    if (!fs::is_regular_file(status)) {
      return "cache path is not a regular file: " + path;
    }
    if (::access(path.c_str(), R_OK) != 0) {
      return "cache file is not readable: " + path;
    }
    return std::nullopt;
  }
  // Missing file: a later save must be able to create it.
  fs::path parent = fs::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const fs::file_status parent_status = fs::status(parent, ec);
  if (ec || !fs::exists(parent_status)) {
    return "cache directory does not exist: " + parent.string();
  }
  if (!fs::is_directory(parent_status)) {
    return "cache directory is not a directory: " + parent.string();
  }
  if (::access(parent.c_str(), W_OK) != 0) {
    return "cache directory is not writable: " + parent.string();
  }
  return std::nullopt;
}

std::string cache_file_name(const ScenarioConfig& config) {
  char name[80];
  std::snprintf(name, sizeof(name), "reuse_scenario_%llu_%016llx.cache",
                static_cast<unsigned long long>(config.seed),
                static_cast<unsigned long long>(config_fingerprint(config)));
  return name;
}

std::string default_cache_path(const ScenarioConfig& config) {
  const char* cache_dir = std::getenv("REUSE_CACHE_DIR");
  if (cache_dir == nullptr || *cache_dir == '\0') {
    return cache_file_name(config);
  }
  return (std::filesystem::path(cache_dir) / cache_file_name(config)).string();
}

Scenario run_scenario_cached(ScenarioConfig config, const std::string& path) {
  config.finalize();
  const std::string cache_path =
      path.empty() ? default_cache_path(config) : path;
  StageTimer stage_times;
  std::optional<CachedCore> cached = stage_times.time(
      "cache-load", [&] { return load_scenario_cache(cache_path, config); });
  return run_scenario_cached(std::move(config), cache_path, std::move(cached),
                             std::move(stage_times));
}

Scenario run_scenario_cached(ScenarioConfig config, const std::string& path,
                             std::optional<CachedCore> cached,
                             StageTimer stage_times) {
  config.finalize();
  if (cached) {
    return *run_stages(std::move(config), &*cached, std::nullopt,
                       std::move(stage_times), nullptr);
  }
  blocklist::EcosystemCarry carry;
  Scenario scenario =
      *run_stages(std::move(config), nullptr, std::nullopt, {}, &carry);
  save_scenario_cache(path.empty() ? default_cache_path(scenario.config) : path,
                      scenario.config, scenario.crawl, scenario.ecosystem,
                      scenario.degradation.injected, &carry, &scenario.fleet);
  // Fold in the (missed) cache probe so hit and miss timings are comparable.
  scenario.stage_times.record("cache-load", stage_times.millis("cache-load"));
  return scenario;
}

ScenarioConfig extend_scenario_days(ScenarioConfig config, int extra_days) {
  config.finalize();
  if (extra_days <= 0 || config.ecosystem.periods.empty()) return config;
  auto last = std::max_element(
      config.ecosystem.periods.begin(), config.ecosystem.periods.end(),
      [](const net::TimeWindow& a, const net::TimeWindow& b) {
        return a.end < b.end;
      });
  last->end = net::SimTime(last->end.seconds() +
                           static_cast<std::int64_t>(extra_days) * 86400);
  return config;
}

EvolvedScenario evolve_scenario_cached(ScenarioConfig base_config,
                                       int extra_days,
                                       const std::string& base_path,
                                       const std::string& extended_path) {
  base_config.finalize();
  StageTimer stage_times;
  std::optional<CachedCore> base;
  if (resumable(base_config, extend_scenario_days(base_config, extra_days))) {
    base = stage_times.time("cache-load", [&] {
      return load_scenario_cache(
          base_path.empty() ? default_cache_path(base_config) : base_path,
          base_config);
    });
  }
  return evolve_scenario_cached(std::move(base_config), extra_days,
                                std::move(base), std::move(stage_times),
                                extended_path);
}

EvolvedScenario evolve_scenario_cached(ScenarioConfig base_config,
                                       int extra_days,
                                       std::optional<CachedCore> base,
                                       StageTimer stage_times,
                                       const std::string& extended_path) {
  base_config.finalize();
  ScenarioConfig extended = extend_scenario_days(base_config, extra_days);
  const std::string ext_path =
      extended_path.empty() ? default_cache_path(extended) : extended_path;
  if (base && base->has_carry && resumable(base_config, extended)) {
    blocklist::EcosystemCarry carry;
    std::optional<Scenario> resumed =
        run_stages(extended, &*base,
                   scenario_span(base_config).collection.end.seconds(),
                   std::move(stage_times), &carry);
    if (resumed) {
      save_scenario_cache(ext_path, resumed->config, resumed->crawl,
                          resumed->ecosystem, resumed->degradation.injected,
                          &carry, &resumed->fleet);
      return EvolvedScenario{std::move(*resumed), EvolvePath::kResumed};
    }
  }
  return EvolvedScenario{run_scenario_cached(std::move(extended), ext_path),
                         EvolvePath::kFreshRun};
}

}  // namespace reuse::analysis
