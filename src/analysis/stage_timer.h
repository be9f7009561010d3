// Wall-clock accounting for the scenario runner's stages.
//
// Every stage of a scenario run (world build, ecosystem, crawl, fleet,
// pipeline, census, cache load) records its duration here; the bench
// binaries serialize the result as machine-readable JSON
// (BENCH_scenario.json) so perf regressions across --jobs settings are
// visible in CI artifacts, not just in someone's terminal scrollback.
//
// Timing is observability only: it never feeds back into the simulation, so
// it cannot perturb determinism.
#pragma once

#include <chrono>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace reuse::analysis {

struct StageTiming {
  std::string stage;
  double millis = 0.0;
  /// CPU-milliseconds summed across worker threads (record_cpu). Kept
  /// separate from `millis` on purpose: a parallel region's per-worker
  /// scopes overlap in wall-clock, so summing them into `millis` would
  /// make a sub-stage "longer" than its enclosing stage (the jobs=8
  /// attribution bug this field fixed). 0 for stages that never record
  /// CPU attribution.
  double cpu_millis = 0.0;
  /// Scopes recorded under this name (a re-run or nested sub-stage
  /// aggregates rather than replacing the entry, so millis is a sum).
  std::uint64_t scopes = 0;
};

class StageTimer {
 public:
  StageTimer() = default;
  /// Movable so Scenario stays movable. The mutex is not
  /// moved (each timer owns a fresh one); moving while another thread
  /// records into the source is a caller bug, as with any container.
  StageTimer(StageTimer&& other) noexcept : timings_(other.take()) {}
  StageTimer& operator=(StageTimer&& other) noexcept {
    if (this != &other) {
      std::vector<StageTiming> moved = other.take();
      std::lock_guard<std::mutex> lock(mutex_);
      timings_ = std::move(moved);
    }
    return *this;
  }

  /// Folds `millis` into the entry for `stage`, creating it on first use.
  /// Same-name recordings — a stage run twice, nested sub-scopes, or
  /// overlapping scopes on concurrent shard workers — accumulate; nothing
  /// is ever overwritten. Thread-safe: the sharded crawl records its
  /// per-shard sub-stages from pool workers while the scenario thread owns
  /// the enclosing "crawl" scope.
  void record(std::string_view stage, double millis);

  /// Folds CPU-milliseconds (work summed across threads) into the entry for
  /// `stage`, creating it with zero wall-clock on first use. Use this — not
  /// record() — for per-worker scope sums from parallel regions, so
  /// wall-clock attribution stays exclusive.
  void record_cpu(std::string_view stage, double cpu_millis);

  /// Snapshot of the timings in first-recorded order (by value: concurrent
  /// recorders may still be appending).
  [[nodiscard]] std::vector<StageTiming> timings() const;
  /// Sum over top-level stages only. Sub-stage entries (names containing
  /// '.', e.g. "crawl.events" inside "crawl") are attribution detail whose
  /// time is already inside their parent scope — counting them would double
  /// the total.
  [[nodiscard]] double total_millis() const;
  /// Aggregated duration of one stage; 0 when it never ran.
  [[nodiscard]] double millis(std::string_view stage) const;
  /// Aggregated CPU attribution of one stage; 0 when none was recorded.
  [[nodiscard]] double cpu_millis(std::string_view stage) const;

  /// One JSON object: {"jobs": N, "total_millis": ..., "stages": {...},
  /// "stages_cpu": {...}} — stages_cpu holds only entries that recorded
  /// CPU attribution, and is omitted when none did.
  [[nodiscard]] std::string to_json(int jobs) const;

  /// Runs `fn`, records its wall-clock under `stage`, and forwards its
  /// return value (also works for void). The recording happens in a scope
  /// guard, so a stage aborted by an exception (e.g. under fault
  /// injection) still accounts for the time it spent before throwing.
  template <typename Fn>
  auto time(std::string_view stage, Fn&& fn) {
    struct Guard {
      StageTimer* timer;
      std::string_view stage;
      std::chrono::steady_clock::time_point start;
      ~Guard() {
        // record() may allocate; swallow rather than terminate if that
        // fails while an exception is already unwinding through us.
        try {
          timer->record(stage, elapsed_millis(start));
        } catch (...) {
        }
      }
    } guard{this, stage, std::chrono::steady_clock::now()};
    return std::forward<Fn>(fn)();
  }

 private:
  [[nodiscard]] static double elapsed_millis(
      std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  [[nodiscard]] std::vector<StageTiming> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(timings_);
  }

  mutable std::mutex mutex_;
  std::vector<StageTiming> timings_;
};

}  // namespace reuse::analysis
