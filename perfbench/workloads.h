// The three perfbench workloads and the pieces they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/scenario.h"
#include "common.h"
#include "serve/snapshot.h"

namespace perfbench {

/// Pinned scenario seeds and the fingerprints every run is checked against.
/// `products` is analysis::products_fingerprint of the study (or, for a
/// tick, of a fresh run of the base extended by one day); `snapshot` is
/// the compiled snapshot's fingerprint. See goldens.cpp.
struct Golden {
  std::uint64_t scenario_seed;
  std::uint64_t products;
  std::uint64_t snapshot;
};
const std::vector<Golden>& study_goldens(bool smoke);
const std::vector<Golden>& tick_goldens(bool smoke);

/// The scenario every workload starts from: test_world_config(seed) with
/// `ases` ASes, `probes` Atlas probes, a 1-day crawl and jobs=1. A positive
/// `period_days` replaces the paper's collection periods by one period of
/// that many days and declares the horizon one day past it, so the
/// scenario can be evolved by a day.
reuse::analysis::ScenarioConfig shaped_config(std::uint64_t seed,
                                              std::size_t ases,
                                              std::size_t probes, bool census,
                                              int period_days);
/// End of the last collection period, in simulated seconds.
std::int64_t span_end_seconds(const reuse::analysis::ScenarioConfig& config);

reuse::analysis::ScenarioConfig study_config(std::uint64_t scenario_seed,
                                             bool smoke);
/// The tick base: one long collection period whose horizon covers the
/// one-day extension, a 1-day crawl, no census, a probe-heavy fleet.
reuse::analysis::ScenarioConfig tick_base_config(std::uint64_t scenario_seed,
                                                 bool smoke);

/// Compiles the served snapshot from a scenario's products.
template <typename ScenarioLike>
reuse::serve::CompiledSnapshot build_snapshot(const ScenarioLike& s) {
  return reuse::serve::SnapshotBuilder()
      .with_store(s.ecosystem.store)
      .with_nated(s.crawl.nated_set)
      .with_dynamic(s.pipeline.dynamic_prefixes)
      .with_catalogue(s.catalogue)
      .build();
}

template <typename ScenarioLike>
std::uint64_t products_of(const ScenarioLike& s) {
  return reuse::analysis::products_fingerprint(s.crawl, s.ecosystem, s.fleet,
                                               s.pipeline, s.census);
}

/// Work counts and useful-outcome ratios read off a scenario's products:
/// blocklist.*, atlas.*, dynadetect.*, and crawler.* / census.* when the
/// stage ran (non-null).
std::map<std::string, double> product_counters(
    const reuse::blocklist::EcosystemResult& ecosystem,
    const reuse::analysis::CrawlOutput* crawl,
    const reuse::atlas::AtlasFleet& fleet,
    const reuse::dynadetect::PipelineResult& pipeline,
    const reuse::census::CensusResult* census);

/// Times in-process verdict_batch, request encode and response decode on
/// 64-address batches drawn from `snapshot`; adds serve.engine_batch_us,
/// serve.encode_us and serve.decode_us (medians) to `samples`.
void probe_lookup_layer(const reuse::serve::CompiledSnapshot& snapshot,
                        std::uint64_t seed, Samples& samples);

Result run_study(const RunOptions& options);
Result run_tick(const RunOptions& options);
Result run_serve(const RunOptions& options);

/// Prints the golden table for every pinned seed (maintenance mode).
int print_goldens(bool smoke);

}  // namespace perfbench
