// Wall-clock and thread-CPU accounting for a run's stages: the one clock
// the scenario stages, the sharded crawl's sub-stages, the bench legs and
// the sweep cells are timed with.
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

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace reuse::net {

struct StageTiming {
  std::string stage;
  /// Wall-clock milliseconds summed over the `scopes` wall recordings.
  double millis = 0.0;
  /// CPU-milliseconds summed across threads (record_cpu). Kept separate
  /// from `millis` on purpose: a parallel region's per-worker scopes
  /// overlap in wall-clock, so summing them into `millis` would make a
  /// sub-stage "longer" than its enclosing stage. 0 for stages that never
  /// record CPU attribution.
  double cpu_millis = 0.0;
  /// Wall scopes recorded under this name (a re-run or nested sub-stage
  /// aggregates rather than replacing the entry, so millis is a sum). 0
  /// for a stage that only records CPU attribution.
  std::uint64_t scopes = 0;
};

/// (stage, milliseconds) pairs in first-recorded order; JsonWriter writes
/// one as a `{"stage": millis, ...}` object.
using StageMillis = std::vector<std::pair<std::string, double>>;

class JsonWriter;

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
  /// `stage`, creating it with no wall scope on first use. Use this — not
  /// record() — for per-worker scope sums from parallel regions, so
  /// wall-clock attribution stays exclusive.
  void record_cpu(std::string_view stage, double cpu_millis);

  /// Snapshot of the timings in first-recorded order (by value: concurrent
  /// recorders may still be appending).
  [[nodiscard]] std::vector<StageTiming> timings() const;
  /// Sum over top-level stages only. Sub-stage entries (names containing
  /// '.', e.g. "crawl.merge" inside "crawl") are attribution detail whose
  /// time is already inside their parent scope — counting them would double
  /// the total.
  [[nodiscard]] double total_millis() const;
  /// Aggregated duration of one stage; 0 when it never ran.
  [[nodiscard]] double millis(std::string_view stage) const;
  /// Aggregated CPU attribution of one stage; 0 when none was recorded.
  [[nodiscard]] double cpu_millis(std::string_view stage) const;
  /// Wall milliseconds of the stages that recorded a wall scope. A stage
  /// with CPU attribution only has no wall time and is left out.
  [[nodiscard]] StageMillis wall_map() const;
  /// CPU milliseconds of the stages that recorded CPU attribution.
  [[nodiscard]] StageMillis cpu_map() const;

  /// Writes one JSON object: {"jobs": N, "total_millis": ..., "stages":
  /// {...}, "stages_cpu": {...}} — stages is wall_map(), stages_cpu is
  /// cpu_map() and is omitted when empty.
  void write_json(JsonWriter& out, int jobs) const;
  /// write_json() as a standalone document.
  [[nodiscard]] std::string to_json(int jobs) const;

  /// Runs `fn`, records its wall-clock under `stage`, and forwards its
  /// return value (also works for void). The recording happens in a scope
  /// guard, so a stage aborted by an exception (e.g. under fault
  /// injection) still accounts for the time it spent before throwing.
  template <typename Fn>
  auto time(std::string_view stage, Fn&& fn) {
    return scope(stage, /*cpu=*/false, std::forward<Fn>(fn));
  }

  /// As time(), but records the CPU time the calling thread spent in `fn`
  /// (record_cpu): the per-worker scope of a parallel region, which does
  /// not count the time the thread waited for a core.
  template <typename Fn>
  auto time_cpu(std::string_view stage, Fn&& fn) {
    return scope(stage, /*cpu=*/true, std::forward<Fn>(fn));
  }

 private:
  /// The two readings every scope differences: the monotonic wall clock
  /// and the calling thread's CPU clock, in milliseconds.
  [[nodiscard]] static double wall_now_millis();
  [[nodiscard]] static double thread_cpu_now_millis();

  template <typename Fn>
  auto scope(std::string_view stage, bool cpu, Fn&& fn) {
    struct Guard {
      StageTimer* timer;
      std::string_view stage;
      bool cpu;
      double start;
      ~Guard() {
        // record() may allocate; swallow rather than terminate if that
        // fails while an exception is already unwinding through us.
        try {
          if (cpu) {
            timer->record_cpu(stage, thread_cpu_now_millis() - start);
          } else {
            timer->record(stage, wall_now_millis() - start);
          }
        } catch (...) {
        }
      }
    } guard{this, stage, cpu,
            cpu ? thread_cpu_now_millis() : wall_now_millis()};
    return std::forward<Fn>(fn)();
  }

  [[nodiscard]] std::vector<StageTiming> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(timings_);
  }

  mutable std::mutex mutex_;
  std::vector<StageTiming> timings_;
};

}  // namespace reuse::net
