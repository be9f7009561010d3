// Run manifest: one JSON document that explains a run.
//
// CI (and anyone debugging a drifted figure) gets a single artifact tying
// together *what* ran — calibration version, config fingerprint, seed,
// jobs, fault plan — with *what happened*: per-stage wall-clock and the
// full metrics snapshot across all instrumented subsystems (crawler,
// feeds, atlas, pipeline, cache, faults, pool). Written by the CLIs'
// --metrics-out flag; schema documented in DESIGN.md §9 and smoke-checked
// by the CI jq gate.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "analysis/scenario.h"
#include "netbase/flags.h"
#include "netbase/json.h"

namespace reuse::analysis {

/// Everything the manifest describes. `config` and `stage_times` are
/// borrowed for the duration of the call; either may be nullptr for tools
/// that run no scenario (their fields render as null).
struct RunManifestInfo {
  std::string tool;                         ///< e.g. "reuse_study"
  const ScenarioConfig* config = nullptr;   ///< finalized scenario config
  const StageTimer* stage_times = nullptr;  ///< per-stage wall clock
  std::optional<bool> cache_hit;            ///< set iff a cache was consulted
  /// Payload fingerprint (16 hex digits) of the compiled serving snapshot a
  /// run produced, when it produced one (reuse_lookupd). CI cross-checks
  /// this against the fingerprint BENCH_lookup.json reports.
  std::optional<std::string> snapshot_fingerprint;
  /// Scenario preset applied to the base config (analysis/presets.h), when
  /// one was: reuse_study --preset, or the preset of a sweep cell.
  std::optional<std::string> preset;
  /// The sweep cell this run executed ("preset/axis=value,..."), for runs
  /// launched by reuse_sweep; ties a per-cell manifest back to its row in
  /// sweep_report.json.
  std::optional<std::string> sweep_cell_id;
};

/// Writes the run identity that opens the run manifest and every BENCH
/// file, as members of the object `out` has open: schema_version (1),
/// tool, calibration_version, config_fingerprint (16 hex digits), seed,
/// as_count, probe_count — the last four null when `config` is nullptr (no
/// scenario ran) — and hardware_jobs.
void write_run_header(net::JsonWriter& out, std::string_view tool,
                      const ScenarioConfig* config);

/// Writes `text` to `path` (truncating), flushes and closes it, and checks
/// that every step landed. Returns a one-line diagnostic on failure,
/// nullopt on success.
[[nodiscard]] std::optional<std::string> write_report_file(
    const std::string& path, std::string_view text);

/// Renders the manifest as one JSON object: the run header
/// (write_run_header), then
///   {"jobs" | null, "fault_plan": {"seed", "episodes", "by_kind"} | null,
///    "cache": {"consulted", "hit"} | null,
///    "snapshot_fingerprint" (16-hex string | null),
///    "preset" | null, "sweep_cell_id" | null,
///    "stages": StageTimer JSON | null, "metrics": registry snapshot}
/// Touches the cross-cutting families' registration hooks first (cache_,
/// faults_, pool_), so a run that never consulted the cache or injected a
/// fault still reports them at zero. The scenario stages (crawler_, feeds_,
/// atlas_, pipeline_) publish their families when they run, so any manifest
/// from a scenario-running tool covers all seven instrumented subsystems.
[[nodiscard]] std::string run_manifest_json(const RunManifestInfo& info);

/// Writes the manifest to `path` through write_report_file(). With
/// MetricsFormat::kJson (the default) the file is run_manifest_json(info);
/// with kPrometheus it is the metrics registry in Prometheus text
/// exposition, prefixed by comment lines carrying the run identity (tool,
/// fingerprints) so scrapes stay attributable. Returns a human-readable
/// error on failure, nullopt on success.
std::optional<std::string> write_run_manifest(
    const std::string& path, const RunManifestInfo& info,
    net::MetricsFormat format = net::MetricsFormat::kJson);

}  // namespace reuse::analysis
