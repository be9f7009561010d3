#include "analysis/manifest.h"

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

void write_run_header(net::JsonWriter& out, std::string_view tool,
                      const ScenarioConfig* config) {
  out.field("schema_version", 1)
      .field("tool", tool)
      .field("calibration_version", kCalibrationVersion);
  if (config != nullptr) {
    out.field("config_fingerprint", net::hex16(config_fingerprint(*config)))
        .field("seed", config->seed)
        .field("as_count", config->world.as_count)
        .field("probe_count", config->fleet.probe_count);
  } else {
    out.field("config_fingerprint", nullptr)
        .field("seed", nullptr)
        .field("as_count", nullptr)
        .field("probe_count", nullptr);
  }
  out.field("hardware_jobs", net::ThreadPool::hardware_jobs());
}

std::optional<std::string> write_report_file(const std::string& path,
                                             std::string_view text) {
  std::ofstream os(path, std::ios::trunc);
  os << text;
  os.close();  // flushes; a failed open, write or flush leaves failbit
  if (os.fail()) return "cannot write " + path;
  return std::nullopt;
}

std::string run_manifest_json(const RunManifestInfo& info) {
  // Touch the registration hooks of families a run may never exercise, so
  // the snapshot below always covers every instrumented subsystem.
  (void)cache_metrics();
  (void)sim::FaultInjector(sim::FaultPlan{});
  net::detail::note_tasks_run(0);

  const ScenarioConfig* config = info.config;
  net::JsonWriter out;
  out.begin_object();
  write_run_header(out, info.tool, config);
  if (config != nullptr) {
    // std::map: kinds render in sorted order, so equal plans render equally.
    std::map<std::string, std::size_t> by_kind;
    for (const sim::FaultEpisode& episode : config->faults.episodes) {
      ++by_kind[std::string(sim::to_string(episode.kind))];
    }
    out.field("jobs", config->jobs)
        .key("fault_plan").begin_object()
        .field("seed", config->faults.seed)
        .field("episodes", config->faults.episodes.size())
        .field("by_kind", by_kind)
        .end();
  } else {
    out.field("jobs", nullptr).field("fault_plan", nullptr);
  }
  if (info.cache_hit.has_value()) {
    out.key("cache").begin_object()
        .field("consulted", true)
        .field("hit", *info.cache_hit)
        .end();
  } else {
    out.field("cache", nullptr);
  }
  out.field("snapshot_fingerprint", info.snapshot_fingerprint)
      .field("preset", info.preset)
      .field("sweep_cell_id", info.sweep_cell_id)
      .key("stages");
  if (info.stage_times != nullptr) {
    info.stage_times->write_json(out, config != nullptr ? config->jobs : 0);
  } else {
    out.value(nullptr);
  }
  // Memory gauges are sampled here, at manifest time, not during the run:
  // VmHWM/VmRSS are wall-clock-dependent, and setting them any earlier
  // would plant nondeterministic values in metric snapshots that the
  // equivalence lattice compares across jobs values. VmRSS is read first:
  // VmHWM never falls, so the later peak read is never below it.
  net::metrics::gauge("mem_current_rss_bytes",
                      "process resident set size (VmRSS) at manifest time")
      .set(static_cast<std::int64_t>(net::current_rss_bytes()));
  net::metrics::gauge("mem_peak_rss_bytes",
                      "process peak resident set size (VmHWM) at manifest "
                      "time")
      .set(static_cast<std::int64_t>(net::peak_rss_bytes()));
  net::metrics::Registry::global().write_json(out.key("metrics"));
  return out.end().str();
}

std::optional<std::string> write_run_manifest(const std::string& path,
                                              const RunManifestInfo& info,
                                              net::MetricsFormat format) {
  if (format == net::MetricsFormat::kJson) {
    return write_report_file(path, run_manifest_json(info));
  }
  // Exposition comments are free-form '#' lines (only HELP/TYPE are
  // structured), so the run identity rides along without breaking
  // scrapers. The manifest proper stays a JSON-only document.
  std::ostringstream os;
  os << "# run_manifest tool=" << info.tool;
  if (info.config != nullptr) {
    os << " config_fingerprint="
       << net::hex16(config_fingerprint(*info.config));
  }
  if (info.snapshot_fingerprint.has_value()) {
    os << " snapshot_fingerprint=" << *info.snapshot_fingerprint;
  }
  os << '\n' << net::metrics::Registry::global().to_prometheus();
  return write_report_file(path, os.str());
}

}  // namespace reuse::analysis
