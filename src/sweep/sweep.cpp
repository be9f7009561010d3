#include "sweep/sweep.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

#include "analysis/cache.h"
#include "analysis/greylist.h"
#include "analysis/impact.h"
#include "analysis/manifest.h"
#include "netbase/json.h"
#include "netbase/metrics.h"
#include "netbase/serialize.h"
#include "netbase/stage_timer.h"
#include "netbase/stats.h"
#include "netbase/table.h"
#include "netbase/thread_pool.h"
#include "sweep/cache_budget.h"

namespace reuse::sweep {
namespace {

/// One row of the axis table: how a named axis validates and lands on the
/// scenario config. The `days` axis is special-cased in expand_cells (it
/// rewrites the collection periods and the horizon, not a single knob) but
/// still validates through its table row.
struct AxisSpec {
  const char* name;
  const char* domain;  ///< human-readable constraint for error messages
  bool integer;
  double min;
  double max;
  void (*apply)(analysis::ScenarioConfig& config, double value);
};

constexpr double kNoMax = 1e18;

const AxisSpec kAxisTable[] = {
    {"days", "integer >= 1", true, 1, kNoMax,
     // Applied structurally in expand_cells (periods + horizon).
     [](analysis::ScenarioConfig&, double) {}},
    {"seed", "integer >= 0", true, 0, kNoMax,
     [](analysis::ScenarioConfig& c, double v) {
       c.seed = static_cast<std::uint64_t>(v);
     }},
    {"ases", "integer >= 1", true, 1, kNoMax,
     [](analysis::ScenarioConfig& c, double v) {
       c.world.as_count = static_cast<std::size_t>(v);
     }},
    {"probes", "integer >= 1", true, 1, kNoMax,
     [](analysis::ScenarioConfig& c, double v) {
       c.fleet.probe_count = static_cast<std::size_t>(v);
     }},
    {"crawl_days", "integer >= 1", true, 1, kNoMax,
     [](analysis::ScenarioConfig& c, double v) {
       c.crawl_days = static_cast<int>(v);
     }},
    {"cgn_share", "fraction in [0, 1]", false, 0.0, 1.0,
     [](analysis::ScenarioConfig& c, double v) {
       c.world.cgn_as_fraction = v;
     }},
    {"dyn_share", "fraction in [0, 1]", false, 0.0, 1.0,
     [](analysis::ScenarioConfig& c, double v) {
       c.world.dynamic_as_fraction = v;
     }},
    {"evasion", "factor >= 1", false, 1.0, kNoMax,
     [](analysis::ScenarioConfig& c, double v) {
       c.world.evasion_lease_factor = v;
     }},
};

const AxisSpec* find_axis(const std::string& name) {
  for (const AxisSpec& spec : kAxisTable) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// The sweep's cache file for `config`: the standard cache file name, in
/// the sweep's own directory (so --cache-budget-mb never evicts a foreign
/// bench's cache).
std::string cell_cache_path(const std::string& dir,
                            const analysis::ScenarioConfig& config) {
  return (std::filesystem::path(dir) / analysis::cache_file_name(config))
      .string();
}

const char* path_name(CellPath path) {
  switch (path) {
    case CellPath::kFresh: return "fresh";
    case CellPath::kCacheHit: return "cache_hit";
    case CellPath::kResumed: return "resumed";
  }
  return "fresh";
}

/// Joined axis spelling for ids and the report: "days=60,cgn_share=0.2".
std::string joined_axes(
    const std::vector<std::pair<std::string, std::string>>& axis_values) {
  std::string out;
  for (const auto& [name, value] : axis_values) {
    if (!out.empty()) out += ',';
    out += name + "=" + value;
  }
  return out;
}

/// Filesystem-safe spelling of a cell id for per-cell manifest files.
std::string sanitize_for_filename(const std::string& id) {
  std::string out = id;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    if (!keep) c = '_';
  }
  return out;
}

/// Runs one cell's scenario (fresh, cache hit, or resumed from `prev`) and
/// fills the deterministic metrics. Throws on any stage failure — the
/// caller owns fault isolation.
void run_cell(const SweepConfig& sweep, const SweepCell& cell,
              const SweepCell* prev, CellResult& result) {
  const std::string path = cell_cache_path(sweep.cache_dir, cell.config);
  analysis::EvolvePath evolve_path = analysis::EvolvePath::kFreshRun;
  bool evolved_run = false;
  const analysis::Scenario s = [&] {
    if (prev != nullptr) {
      // Later cell of a chain: a warm sweep finds the cell's own cache
      // (decoded once, here); a cold one resumes the chain's previous cell
      // forward.
      analysis::StageTimer stage_times;
      std::optional<analysis::CachedCore> own = stage_times.time(
          "cache-load",
          [&] { return analysis::load_scenario_cache(path, cell.config); });
      if (own) {
        return analysis::run_scenario_cached(cell.config, path, std::move(own),
                                             std::move(stage_times));
      }
      const std::string prev_path =
          cell_cache_path(sweep.cache_dir, prev->config);
      evolved_run = true;
      analysis::EvolvedScenario evolved = analysis::evolve_scenario_cached(
          prev->config, cell.days - prev->days, prev_path, path);
      evolve_path = evolved.path;
      return std::move(evolved.scenario);
    }
    return analysis::run_scenario_cached(cell.config, path);
  }();

  if (evolved_run) {
    result.path = evolve_path == analysis::EvolvePath::kResumed
                      ? CellPath::kResumed
                      : CellPath::kFresh;
  } else {
    result.path = s.cache_hit ? CellPath::kCacheHit : CellPath::kFresh;
  }

  // Headline Section 5 joins — serial: the sweep parallelizes across
  // chains, so per-cell stages stay single-threaded.
  const analysis::ReuseImpact impact = analysis::compute_reuse_impact(
      s.ecosystem.store, s.catalogue, s.crawl.nated_set,
      s.pipeline.dynamic_prefixes, nullptr);
  const auto reused = analysis::build_reused_address_list(
      s.ecosystem.store, s.crawl.nated_set, s.pipeline.dynamic_prefixes);
  const analysis::ListingDurations durations =
      analysis::compute_listing_durations(s.ecosystem.store, s.crawl.nated_set,
                                          s.pipeline.dynamic_prefixes);
  result.blocklisted_addresses = s.ecosystem.store.address_count();
  result.reused_addresses = reused.size();
  result.nated_blocklisted = impact.nated_blocklisted_addresses;
  result.dynamic_blocklisted = impact.dynamic_blocklisted_addresses;
  result.total_listings = impact.total_listings;
  result.nat_users_lower_bound =
      analysis::users_behind_blocklisted_nats(s.ecosystem.store, s.crawl.nated)
          .total();
  if (!durations.all_days.empty()) {
    const net::EmpiricalCdf cdf(durations.all_days);
    result.listing_days_p50 = cdf.quantile(0.5);
    result.listing_days_p90 = cdf.quantile(0.9);
  }

  if (!sweep.manifest_dir.empty()) {
    analysis::RunManifestInfo manifest;
    manifest.tool = "reuse_sweep";
    manifest.config = &s.config;
    manifest.stage_times = &s.stage_times;
    manifest.cache_hit = s.cache_hit;
    manifest.preset = cell.preset;
    manifest.sweep_cell_id = cell.id;
    const std::string file =
        (std::filesystem::path(sweep.manifest_dir) /
         ("manifest_" + sanitize_for_filename(cell.id) + ".json"))
            .string();
    if (const auto error = analysis::write_run_manifest(file, manifest)) {
      throw std::runtime_error("manifest write failed: " + *error);
    }
  }
}

/// FNV-1a over every deterministic cell field, in expansion order. Wall
/// times and cache attribution are deliberately excluded: cold and warm
/// sweeps of the same matrix must agree.
std::uint64_t fingerprint_report(const std::vector<CellResult>& cells) {
  std::string buffer;
  net::BinaryWriter w(buffer);
  w.write(static_cast<std::uint64_t>(cells.size()));
  for (const CellResult& cell : cells) {
    w.write(cell.id);
    w.write(cell.preset);
    w.write_sequence(cell.axis_values, [](net::BinaryWriter& writer,
                                          const auto& pair) {
      writer.write(pair.first);
      writer.write(pair.second);
    });
    w.write(cell.config_fingerprint);
    w.write(static_cast<std::uint8_t>(cell.failed));
    w.write(cell.blocklisted_addresses);
    w.write(cell.reused_addresses);
    w.write(cell.nated_blocklisted);
    w.write(cell.dynamic_blocklisted);
    w.write(cell.total_listings);
    w.write(cell.nat_users_lower_bound);
    w.write(cell.listing_days_p50);
    w.write(cell.listing_days_p90);
  }
  return net::fnv1a_64(buffer);
}

}  // namespace

std::string axis_names() {
  std::string out;
  for (const AxisSpec& spec : kAxisTable) {
    if (!out.empty()) out += ", ";
    out += spec.name;
  }
  return out;
}

std::optional<SweepAxis> parse_axis(const std::string& text,
                                    std::string* error) {
  const auto set_error = [&](const std::string& message) {
    if (error != nullptr) *error = message;
  };
  const auto equals = text.find('=');
  if (equals == std::string::npos || equals == 0) {
    set_error("axis must be <name>=<v1>[,<v2>...], got \"" + text + "\"");
    return std::nullopt;
  }
  SweepAxis axis;
  axis.name = text.substr(0, equals);
  const AxisSpec* spec = find_axis(axis.name);
  if (spec == nullptr) {
    set_error("unknown axis \"" + axis.name + "\" (valid: " + axis_names() +
              ")");
    return std::nullopt;
  }
  std::string values = text.substr(equals + 1);
  std::istringstream stream(values);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    double number = 0.0;
    std::size_t consumed = 0;
    try {
      number = std::stod(item, &consumed);
    } catch (...) {
      consumed = 0;
    }
    if (consumed != item.size()) {
      set_error("axis " + axis.name + ": \"" + item + "\" is not a number");
      return std::nullopt;
    }
    if (spec->integer && number != static_cast<double>(static_cast<std::int64_t>(number))) {
      set_error("axis " + axis.name + ": \"" + item + "\" must be an integer");
      return std::nullopt;
    }
    if (number < spec->min || number > spec->max) {
      set_error("axis " + axis.name + ": " + item + " outside its domain (" +
                spec->domain + ")");
      return std::nullopt;
    }
    if (std::find(axis.numbers.begin(), axis.numbers.end(), number) !=
        axis.numbers.end()) {
      set_error("axis " + axis.name + ": duplicate value " + item);
      return std::nullopt;
    }
    axis.raw_values.push_back(item);
    axis.numbers.push_back(number);
  }
  if (axis.raw_values.empty()) {
    set_error("axis " + axis.name + " has no values");
    return std::nullopt;
  }
  return axis;
}

std::vector<SweepCell> expand_cells(const SweepConfig& config) {
  std::vector<SweepCell> cells;
  if (config.presets.empty()) return cells;

  // Row-major odometer over the axes (last axis fastest), preset-major.
  std::size_t combos = 1;
  for (const SweepAxis& axis : config.axes) combos *= axis.raw_values.size();

  for (const analysis::ScenarioPreset* preset : config.presets) {
    for (std::size_t combo = 0; combo < combos; ++combo) {
      SweepCell cell;
      cell.preset = preset->name;
      cell.config = config.base;
      preset->apply(cell.config);

      // Decode the odometer into one value index per axis.
      std::size_t remainder = combo;
      std::vector<std::size_t> pick(config.axes.size(), 0);
      for (std::size_t i = config.axes.size(); i-- > 0;) {
        pick[i] = remainder % config.axes[i].raw_values.size();
        remainder /= config.axes[i].raw_values.size();
      }

      std::string chain_axes;  // non-days axis spellings, for the chain key
      for (std::size_t i = 0; i < config.axes.size(); ++i) {
        const SweepAxis& axis = config.axes[i];
        const double value = axis.numbers[pick[i]];
        cell.axis_values.emplace_back(axis.name, axis.raw_values[pick[i]]);
        if (axis.name == "days") {
          cell.days = static_cast<int>(value);
          continue;
        }
        find_axis(axis.name)->apply(cell.config, value);
        chain_axes += "," + axis.name + "=" + axis.raw_values[pick[i]];
      }

      if (cell.days > 0) {
        cell.config.ecosystem.periods = {net::TimeWindow{
            net::SimTime(0),
            net::SimTime(static_cast<std::int64_t>(cell.days) * 86400)}};
      }
      cell.id = cell.preset;
      const std::string axes = joined_axes(cell.axis_values);
      if (!axes.empty()) cell.id += "/" + axes;
      cell.chain_key = cell.preset + chain_axes;
      // Scenario stages stay serial inside a cell; the sweep parallelizes
      // across chains (and `jobs` is outside the fingerprint anyway).
      cell.config.jobs = 1;
      cells.push_back(std::move(cell));
    }
  }

  // Chains: cells differing only in `days` share every other knob, so a
  // longer cell's products can be resumed from a shorter one's cache. For
  // resume-equals-fresh every cell of the chain must resolve to the SAME
  // abuse horizon — the chain's maximum days — declared up front.
  std::map<std::string, int> chain_max_days;
  for (const SweepCell& cell : cells) {
    auto [it, inserted] = chain_max_days.emplace(cell.chain_key, cell.days);
    if (!inserted) it->second = std::max(it->second, cell.days);
  }
  for (SweepCell& cell : cells) {
    if (cell.days > 0) cell.config.horizon_days = chain_max_days[cell.chain_key];
    cell.config.finalize();
  }
  return cells;
}

SweepReport run_sweep(const SweepConfig& config) {
  SweepReport report;
  std::vector<SweepCell> cells = expand_cells(config);
  report.cells.resize(cells.size());

  std::error_code ec;
  std::filesystem::create_directories(config.cache_dir, ec);
  if (!config.manifest_dir.empty()) {
    std::filesystem::create_directories(config.manifest_dir, ec);
  }

  // Chains in deterministic order (std::map keys), members in expansion
  // order; within a chain `days` ascends with the expansion order because
  // axis values were given ascending or not — so sort members by days,
  // ties by expansion index, to make resume direction explicit.
  std::map<std::string, std::vector<std::size_t>> chain_members;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    chain_members[cells[i].chain_key].push_back(i);
  }
  std::vector<std::vector<std::size_t>> chains;
  chains.reserve(chain_members.size());
  for (auto& [key, members] : chain_members) {
    std::sort(members.begin(), members.end(),
              [&](std::size_t a, std::size_t b) {
                if (cells[a].days != cells[b].days)
                  return cells[a].days < cells[b].days;
                return a < b;
              });
    chains.push_back(std::move(members));
  }

  const std::unique_ptr<net::ThreadPool> pool =
      analysis::make_scenario_pool(config.jobs);
  net::for_each_index(
      pool.get(), chains.size(),
      [&](std::size_t chain_index) {
        const std::vector<std::size_t>& chain = chains[chain_index];
        const SweepCell* prev_ok = nullptr;  // last successful cell
        for (const std::size_t cell_index : chain) {
          const SweepCell& cell = cells[cell_index];
          CellResult& result = report.cells[cell_index];
          result.id = cell.id;
          result.preset = cell.preset;
          result.axis_values = cell.axis_values;
          result.config_fingerprint =
              analysis::config_fingerprint(cell.config);
          net::StageTimer cell_timer;
          try {
            cell_timer.time("cell", [&] {
              if (static_cast<int>(cell_index) == config.inject_fail_cell) {
                throw std::runtime_error(
                    "injected cell failure (--inject-fail)");
              }
              run_cell(config, cell, prev_ok, result);
            });
            prev_ok = &cell;
          } catch (const std::exception& e) {
            // Fault isolation: the cell reports its error and the chain
            // carries on — the next cell resumes from the last GOOD cell
            // (or runs fresh when the chain head failed).
            result.failed = true;
            result.error = e.what();
          }
          // Whole milliseconds, truncated; a failed cell's time counts too.
          result.wall_millis =
              static_cast<std::int64_t>(cell_timer.millis("cell"));
        }
      },
      /*grain=*/1);

  for (const CellResult& cell : report.cells) {
    if (cell.failed) {
      ++report.cells_failed;
      continue;
    }
    switch (cell.path) {
      case CellPath::kFresh: ++report.fresh; break;
      case CellPath::kCacheHit: ++report.cache_hits; break;
      case CellPath::kResumed: ++report.resumed; break;
    }
  }
  report.report_fingerprint = fingerprint_report(report.cells);

  // Cache housekeeping: account the directory, and evict beyond the budget
  // (oldest first) while protecting this sweep's own cells.
  std::vector<std::string> active;
  active.reserve(cells.size());
  for (const SweepCell& cell : cells) {
    active.push_back(cell_cache_path(config.cache_dir, cell.config));
  }
  const CacheBudgetReport budget = enforce_cache_budget(
      config.cache_dir, config.cache_budget_bytes, active);
  report.cache_dir_bytes = budget.dir_bytes_after;
  report.cache_bytes_evicted = budget.bytes_evicted;
  report.cache_files_evicted = budget.files_evicted;

  auto& registry = net::metrics::Registry::global();
  registry.counter("sweep_cells_total", "sweep cells executed")
      .add(report.cells.size());
  registry.counter("sweep_cells_failed", "sweep cells that threw").add(report.cells_failed);
  registry.counter("sweep_cells_cache_hits", "cells restored from their own cache")
      .add(report.cache_hits);
  registry.counter("sweep_cells_resumed", "cells evolved from a shorter cached base")
      .add(report.resumed);
  registry.gauge("sweep_cache_dir_bytes", "cache dir size after the sweep")
      .set(report.cache_dir_bytes);
  registry.counter("sweep_cache_bytes_evicted", "bytes evicted by --cache-budget-mb")
      .add(static_cast<std::uint64_t>(report.cache_bytes_evicted));
  registry.counter("sweep_cache_files_evicted", "files evicted by --cache-budget-mb")
      .add(report.cache_files_evicted);
  return report;
}

std::string render_report_markdown(const SweepReport& report) {
  std::ostringstream out;
  out << "# Sweep report\n\n";
  out << "cells: " << report.cells.size() << ", failed: " << report.cells_failed
      << "\n\n";
  out << "| cell | fingerprint | blocklisted | reused | reused vs baseline | "
         "NATed | dynamic | NAT users | p50 days | p90 days | status |\n";
  out << "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---|\n";
  const CellResult* baseline =
      report.cells.empty() || report.cells.front().failed
          ? nullptr
          : &report.cells.front();
  for (const CellResult& cell : report.cells) {
    out << "| " << cell.id << " | `" << net::hex16(cell.config_fingerprint)
        << "` | ";
    if (cell.failed) {
      out << "— | — | — | — | — | — | — | — | failed: "
          << cell.error << " |\n";
      continue;
    }
    out << cell.blocklisted_addresses << " | " << cell.reused_addresses
        << " | ";
    if (baseline != nullptr && baseline->reused_addresses > 0) {
      out << net::fixed(static_cast<double>(cell.reused_addresses) /
                            static_cast<double>(baseline->reused_addresses),
                        3);
    } else {
      out << "—";
    }
    out << " | " << cell.nated_blocklisted << " | " << cell.dynamic_blocklisted
        << " | " << cell.nat_users_lower_bound << " | "
        << net::fixed(cell.listing_days_p50, 3) << " | "
        << net::fixed(cell.listing_days_p90, 3) << " | ok |\n";
  }
  return out.str();
}

std::string render_report_json(const SweepReport& report) {
  net::JsonWriter out;
  out.begin_object()
      .field("schema_version", 1)
      .field("report_fingerprint", net::hex16(report.report_fingerprint))
      .field("cells_total", report.cells.size())
      .field("cells_failed", report.cells_failed)
      .field("cells_fresh", report.fresh)
      .field("cells_cache_hit", report.cache_hits)
      .field("cells_resumed", report.resumed)
      .field("cache_dir_bytes", report.cache_dir_bytes)
      .field("cache_bytes_evicted", report.cache_bytes_evicted)
      .field("cache_files_evicted", report.cache_files_evicted)
      .key("cells").begin_array();
  for (const CellResult& cell : report.cells) {
    out.begin_object()
        .field("id", cell.id)
        .field("preset", cell.preset)
        .field("axes", cell.axis_values)
        .field("config_fingerprint", net::hex16(cell.config_fingerprint))
        .field("failed", cell.failed);
    if (cell.failed) {
      out.field("error", cell.error);
    } else {
      out.field("blocklisted_addresses", cell.blocklisted_addresses)
          .field("reused_addresses", cell.reused_addresses)
          .field("nated_blocklisted", cell.nated_blocklisted)
          .field("dynamic_blocklisted", cell.dynamic_blocklisted)
          .field("total_listings", cell.total_listings)
          .field("nat_users_lower_bound", cell.nat_users_lower_bound)
          .field("listing_days_p50", cell.listing_days_p50)
          .field("listing_days_p90", cell.listing_days_p90);
    }
    out.field("path", path_name(cell.path))
        .field("wall_millis", cell.wall_millis)
        .end();
  }
  return out.end().end().str();
}

}  // namespace reuse::sweep
