#include "netbase/stage_timer.h"

#include <time.h>

#include <chrono>

#include "netbase/json.h"

namespace reuse::net {

double StageTimer::wall_now_millis() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double StageTimer::thread_cpu_now_millis() {
  timespec now{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

void StageTimer::record(std::string_view stage, double millis) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Same-name scopes (re-runs, nested sub-stages, concurrent shard workers)
  // fold into the existing entry so the JSON stays one value per stage.
  for (StageTiming& timing : timings_) {
    if (timing.stage == stage) {
      timing.millis += millis;
      ++timing.scopes;
      return;
    }
  }
  timings_.push_back(StageTiming{std::string(stage), millis, 0.0, 1});
}

void StageTimer::record_cpu(std::string_view stage, double cpu_millis) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (StageTiming& timing : timings_) {
    if (timing.stage == stage) {
      timing.cpu_millis += cpu_millis;
      return;
    }
  }
  // Entry exists purely for CPU attribution: zero wall, zero scopes.
  timings_.push_back(StageTiming{std::string(stage), 0.0, cpu_millis, 0});
}

std::vector<StageTiming> StageTimer::timings() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return timings_;
}

double StageTimer::total_millis() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const StageTiming& timing : timings_) {
    // Sub-stages ("crawl.merge") already ran inside their parent scope.
    if (timing.stage.find('.') != std::string::npos) continue;
    total += timing.millis;
  }
  return total;
}

double StageTimer::millis(std::string_view stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const StageTiming& timing : timings_) {
    if (timing.stage == stage) return timing.millis;
  }
  return 0.0;
}

double StageTimer::cpu_millis(std::string_view stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const StageTiming& timing : timings_) {
    if (timing.stage == stage) return timing.cpu_millis;
  }
  return 0.0;
}

StageMillis StageTimer::wall_map() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StageMillis stages;
  for (const StageTiming& timing : timings_) {
    if (timing.scopes > 0) stages.emplace_back(timing.stage, timing.millis);
  }
  return stages;
}

StageMillis StageTimer::cpu_map() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StageMillis stages;
  for (const StageTiming& timing : timings_) {
    if (timing.cpu_millis > 0.0) {
      stages.emplace_back(timing.stage, timing.cpu_millis);
    }
  }
  return stages;
}

void StageTimer::write_json(JsonWriter& out, int jobs) const {
  out.begin_object()
      .field("jobs", jobs)
      .field("total_millis", total_millis())
      .field("stages", wall_map());
  if (const StageMillis cpu = cpu_map(); !cpu.empty()) {
    out.field("stages_cpu", cpu);
  }
  out.end();
}

std::string StageTimer::to_json(int jobs) const {
  JsonWriter out;
  write_json(out, jobs);
  return out.str();
}

}  // namespace reuse::net
