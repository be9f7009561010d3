// On-disk cache of the expensive scenario results.
//
// The bench suite is one binary per table/figure; without a cache each
// binary would redo the same multi-minute simulation. The cache stores the
// costly products — the crawl output, the blocklist presence store, the
// feed cursors a resume continues from, and the fleet products (keyed by
// their own fleet_config_fingerprint) — keyed by an FNV-1a fingerprint of
// the full scenario configuration; world, catalogue, pipeline and census
// are rebuilt on every load.
//
// File format (little-endian; see DESIGN.md "Scenario cache format"): one
// net::save_artifact envelope whose 28-byte format header holds the
// calibration version, the config fingerprint, the seed and as_count:
//   magic, format version, [calibration version, config fingerprint, seed,
//   as_count], payload size, payload FNV-1a checksum, payload.
// The payload holds the crawl output, the presence store, the fault
// ledger, the feed carry and the fleet section, all written in sorted order
// so the same configuration always produces byte-identical files. The
// envelope publishes atomically (`<path>.tmp.<pid>`, then rename()), so
// concurrent readers see either the previous complete cache or the new
// one, and concurrent writers race benignly — the last rename wins. A load
// fails closed on anything the save did not write: a declared size the file
// does not hold, trailing bytes, a payload longer than its five sections.
#pragma once

#include <optional>
#include <string>

#include "analysis/scenario.h"
#include "netbase/metrics.h"

namespace reuse::analysis {

/// The cached products of the fleet stage, keyed by a fingerprint of the
/// fleet configuration (which is deliberately OUTSIDE config_fingerprint:
/// configs differing only in fleet knobs share one cache file, so the fleet
/// section carries its own key and a mismatch just re-simulates the fleet,
/// exactly like the payload-v5 behaviour).
struct CachedFleet {
  std::uint64_t fingerprint = 0;
  atlas::CompressedLog log;
  std::vector<atlas::ProbeTruth> truths;
  std::uint64_t records_suppressed = 0;
  std::uint64_t allocations = 0;
  std::uint64_t gap_bridged_days = 0;
};

/// The cached heavy products of a scenario run.
struct CachedCore {
  CrawlOutput crawl;
  blocklist::EcosystemResult ecosystem;
  /// Injector-side fault ledger of the run that produced the cache. A run
  /// built on this cache adds the share of each stage it takes from it.
  sim::FaultStats injected;
  /// End-of-run feed cursors (payload v6): present on every cache written
  /// by a full run, and what evolve_scenario_cached() resumes from.
  bool has_carry = false;
  blocklist::EcosystemCarry carry;
  /// Fleet products (payload v6); restored on load when `fleet.fingerprint`
  /// matches the loading config's fleet fingerprint.
  bool has_fleet = false;
  CachedFleet fleet;
};

/// Fingerprint of the fleet knobs that shape the fleet products but sit
/// outside config_fingerprint (seed is derived from the scenario seed,
/// which IS inside). Keys the cache's fleet section.
[[nodiscard]] std::uint64_t fleet_config_fingerprint(
    const atlas::FleetConfig& fleet);

/// Writes the cache atomically (tmp file + rename); returns false on I/O
/// failure, in which case no partial file is left at `path`. `injected` is
/// the fault ledger of the producing run (empty for fault-free runs).
/// `carry` and `fleet` fill the v6 resume sections when provided; without
/// them the file still loads but cannot seed an evolved run or restore the
/// fleet stage.
bool save_scenario_cache(const std::string& path, const ScenarioConfig& config,
                         const CrawlOutput& crawl,
                         const blocklist::EcosystemResult& ecosystem,
                         const sim::FaultStats& injected = {},
                         const blocklist::EcosystemCarry* carry = nullptr,
                         const atlas::AtlasFleet* fleet = nullptr);

/// Loads the cache if the file exists, passes the envelope's checks, carries
/// `config`'s format header and decodes to exactly its five sections;
/// nullopt otherwise. An absent or unopenable path counts as a miss, every
/// other refusal as a reject. Truncated, padded or bit-flipped files are
/// rejected without reads or allocations beyond the file's size.
[[nodiscard]] std::optional<CachedCore> load_scenario_cache(
    const std::string& path, const ScenarioConfig& config);

/// The name the cache's callers have always used for its result type.
using CachedScenario = Scenario;

/// The one cache file name, `reuse_scenario_<seed>_<fingerprint>.cache`
/// (fingerprint as 16 hex digits). Distinct configurations map to distinct
/// names, so two benches with different knobs never share or evict each
/// other's cache.
[[nodiscard]] std::string cache_file_name(const ScenarioConfig& config);

/// Standard cache location for the bench binaries: cache_file_name(),
/// placed in $REUSE_CACHE_DIR when that environment variable is set, else
/// the working directory.
[[nodiscard]] std::string default_cache_path(const ScenarioConfig& config);

/// Loads `config`'s cache (at `path` or its default location) and runs the
/// stages around it: world, catalogue, pipeline and census are rebuilt;
/// crawl and ecosystem come from the file; the fleet is restored when the
/// file's fleet section matches `config.fleet`, else re-run. Without a
/// usable file, simulates afresh and writes the cache.
[[nodiscard]] Scenario run_scenario_cached(ScenarioConfig config,
                                           const std::string& path = {});

/// run_scenario_cached with `path` already probed: `cached` is its decoded
/// content (nullopt: absent or rejected) and `stage_times` holds the probe's
/// "cache-load" time. For callers that looked inside the file anyway, so
/// each run decodes it once.
[[nodiscard]] Scenario run_scenario_cached(
    ScenarioConfig config, const std::string& path,
    std::optional<CachedCore> cached, StageTimer stage_times);

/// `config` with the last collection period extended by `extra_days` whole
/// days — the shape of scenario evolve_scenario_cached() produces. The
/// horizon (and every other knob) is inherited unchanged, so a base run
/// whose horizon_days already covers the extension yields byte-identical
/// resumed products.
[[nodiscard]] ScenarioConfig extend_scenario_days(ScenarioConfig config,
                                                  int extra_days);

/// How evolve_scenario_cached() obtained its result.
enum class EvolvePath {
  kResumed,   ///< base cache found; only the +K tail was simulated
  kFreshRun,  ///< no usable base cache (or horizon too short): full run
};

struct EvolvedScenario {
  Scenario scenario;
  EvolvePath path = EvolvePath::kFreshRun;
};

/// Evolves a cached N-day scenario K days forward: loads `base_config`'s
/// cache (at `base_path` or its default location), restores the per-feed
/// cursors, streams ONLY the [N, N+K) slice of the abuse stream through
/// the feeds, folds the new-era recordings into the cached store, reuses
/// the cached crawl when the blocklisted /24 set is unchanged (else re-runs
/// the crawl stage), restores the fleet products when the fleet section
/// matches, and recomputes the cheap stages — producing a scenario
/// byte-identical (products fingerprint) to a fresh run of the extended
/// config. Requires base_config.horizon_days to cover the extension; if it
/// does not, or no usable base cache exists, falls back to a fresh
/// run_scenario_cached() of the extended config. Either way the extended
/// scenario is saved to `extended_path` (or its default location), so
/// evolves chain: N -> N+K -> N+2K each resume from the previous file.
[[nodiscard]] EvolvedScenario evolve_scenario_cached(
    ScenarioConfig base_config, int extra_days,
    const std::string& base_path = {}, const std::string& extended_path = {});

/// evolve_scenario_cached with the base cache already decoded into `base`
/// (nullopt: none usable), its "cache-load" time in `stage_times`.
[[nodiscard]] EvolvedScenario evolve_scenario_cached(
    ScenarioConfig base_config, int extra_days,
    std::optional<CachedCore> base, StageTimer stage_times,
    const std::string& extended_path = {});

/// Registry handles for the cache_ metric family, registered on first use.
/// Shared by the loader/saver and the run-manifest writer, so a run that
/// never consults the cache still exports the family (at zero).
struct CacheMetrics {
  net::metrics::Counter& hits;           ///< valid cache files restored
  net::metrics::Counter& misses;         ///< file absent or unreadable
  net::metrics::Counter& rejects;        ///< present but failed validation
  net::metrics::Counter& saves;          ///< cache files written
  net::metrics::Counter& bytes_read;     ///< payload bytes of restored caches
  net::metrics::Counter& bytes_written;  ///< payload bytes of saved caches
};
CacheMetrics& cache_metrics();

/// Checks whether `path` can serve as a cache file before any simulation
/// work is spent: an existing path must be a readable regular file, and a
/// missing one needs an existing, writable parent directory. Returns a
/// human-readable error, or nullopt when the path is usable. The CLI fails
/// fast on this instead of silently simulating afresh.
[[nodiscard]] std::optional<std::string> preflight_cache_path(
    const std::string& path);

}  // namespace reuse::analysis
