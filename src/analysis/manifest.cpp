#include "analysis/manifest.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "analysis/cache.h"
#include "netbase/json.h"
#include "netbase/mem.h"
#include "netbase/metrics.h"
#include "netbase/thread_pool.h"
#include "simnet/faults.h"

namespace reuse::analysis {
namespace {

void append_fault_plan(std::ostringstream& out, const sim::FaultPlan& plan) {
  out << "{\"seed\": " << plan.seed
      << ", \"episodes\": " << plan.episodes.size() << ", \"by_kind\": {";
  // std::map: kinds render in sorted order, so equal plans render equally.
  std::map<std::string, std::size_t> by_kind;
  for (const sim::FaultEpisode& episode : plan.episodes) {
    ++by_kind[std::string(sim::to_string(episode.kind))];
  }
  bool first = true;
  for (const auto& [kind, count] : by_kind) {
    if (!first) out << ", ";
    first = false;
    out << '"' << net::json_escape(kind) << "\": " << count;
  }
  out << "}}";
}

}  // namespace

std::string run_manifest_json(const RunManifestInfo& info) {
  // Touch the registration hooks of families a run may never exercise, so
  // the snapshot below always covers every instrumented subsystem.
  (void)cache_metrics();
  (void)sim::FaultInjector(sim::FaultPlan{});
  net::detail::note_tasks_run(0);

  std::ostringstream out;
  out << "{\"schema_version\": 1";
  out << ", \"tool\": \"" << net::json_escape(info.tool) << '"';
  out << ", \"calibration_version\": " << kCalibrationVersion;
  if (info.config != nullptr) {
    out << ", \"config_fingerprint\": \""
        << net::hex16(config_fingerprint(*info.config)) << '"';
    out << ", \"seed\": " << info.config->seed;
    out << ", \"jobs\": " << info.config->jobs;
    out << ", \"fault_plan\": ";
    append_fault_plan(out, info.config->faults);
  } else {
    out << ", \"config_fingerprint\": null, \"seed\": null, \"jobs\": null"
        << ", \"fault_plan\": null";
  }
  if (info.cache_hit.has_value()) {
    out << ", \"cache\": {\"consulted\": true, \"hit\": "
        << (*info.cache_hit ? "true" : "false") << '}';
  } else {
    out << ", \"cache\": null";
  }
  if (info.snapshot_fingerprint.has_value()) {
    out << ", \"snapshot_fingerprint\": \""
        << net::json_escape(*info.snapshot_fingerprint) << '"';
  } else {
    out << ", \"snapshot_fingerprint\": null";
  }
  if (info.preset.has_value()) {
    out << ", \"preset\": \"" << net::json_escape(*info.preset) << '"';
  } else {
    out << ", \"preset\": null";
  }
  if (info.sweep_cell_id.has_value()) {
    out << ", \"sweep_cell_id\": \"" << net::json_escape(*info.sweep_cell_id)
        << '"';
  } else {
    out << ", \"sweep_cell_id\": null";
  }
  if (info.stage_times != nullptr) {
    out << ", \"stages\": "
        << info.stage_times->to_json(
               info.config != nullptr ? info.config->jobs : 0);
  } else {
    out << ", \"stages\": null";
  }
  // Memory gauges are sampled here, at manifest time, not during the run:
  // VmHWM/VmRSS are wall-clock-dependent, and setting them any earlier
  // would plant nondeterministic values in metric snapshots that the
  // parallel-equivalence tests compare across jobs values.
  net::metrics::gauge("mem_peak_rss_bytes",
                      "process peak resident set size (VmHWM) at manifest "
                      "time")
      .set(static_cast<std::int64_t>(net::peak_rss_bytes()));
  net::metrics::gauge("mem_current_rss_bytes",
                      "process resident set size (VmRSS) at manifest time")
      .set(static_cast<std::int64_t>(net::current_rss_bytes()));
  out << ", \"metrics\": " << net::metrics::Registry::global().to_json();
  out << '}';
  return out.str();
}

std::optional<std::string> write_run_manifest(const std::string& path,
                                              const RunManifestInfo& info,
                                              net::MetricsFormat format) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return "cannot open metrics output file: " + path;
  if (format == net::MetricsFormat::kPrometheus) {
    // Exposition comments are free-form '#' lines (only HELP/TYPE are
    // structured), so the run identity rides along without breaking
    // scrapers. The manifest proper stays a JSON-only document.
    os << "# run_manifest tool=" << info.tool;
    if (info.config != nullptr) {
      os << " config_fingerprint="
         << net::hex16(config_fingerprint(*info.config));
    }
    if (info.snapshot_fingerprint.has_value()) {
      os << " snapshot_fingerprint=" << *info.snapshot_fingerprint;
    }
    os << '\n' << net::metrics::Registry::global().to_prometheus();
  } else {
    os << run_manifest_json(info) << '\n';
  }
  os.flush();
  if (!os.good()) return "failed writing metrics output file: " + path;
  return std::nullopt;
}

}  // namespace reuse::analysis
