// The one stage runner behind run_scenario, run_scenario_cached and
// evolve_scenario_cached (DESIGN §13). Internal to reuse_analysis: no
// public header includes this file.
#pragma once

#include <cstdint>
#include <optional>

#include "analysis/cache.h"
#include "analysis/scenario.h"

namespace reuse::analysis {

/// Runs world, ecosystem, crawl, fleet, pipeline and census once each,
/// taking a stage's product from `base` — the decoded cache of an earlier
/// run — where it is still valid:
///   - no base (fresh): every stage runs;
///   - a base without `resume_from` (cache hit): ecosystem and crawl come
///     from the base;
///   - a base with `resume_from`, the base's collection-span end in seconds
///     (resume): the ecosystem resumes from the base's carry, streams only
///     the days after `resume_from` and folds them into the base store; the
///     crawl comes from the base unless the crawler is restricted to
///     blocklisted /24s and that set moved;
///   - any base: the fleet is restored when its section matches the fleet
///     config.
/// The fault ledger is this run's injector plus the base's share of every
/// stage taken from it. Base products are moved, never copied.
/// `stage_times` may already hold the cache load; `carry`, when non-null,
/// receives the end-of-run feed cursors whenever the ecosystem stage runs.
/// Returns nullopt only when a resume's carry does not fit the catalogue.
[[nodiscard]] std::optional<Scenario> run_stages(
    ScenarioConfig config, CachedCore* base,
    std::optional<std::int64_t> resume_from, StageTimer stage_times,
    blocklist::EcosystemCarry* carry);

}  // namespace reuse::analysis
