// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms, exportable as structured JSON and as Prometheus text
// exposition.
//
// Design rules (see DESIGN.md §9):
//   * Cheap on hot paths. Recording is a relaxed atomic RMW on a
//     pre-resolved handle; the registry mutex is taken only at
//     registration and snapshot time, never per observation.
//   * Deterministic in value. Every metric counts simulation events —
//     packets, snapshots, records, funnel survivors — never wall-clock or
//     memory addresses. The one exception is the `pool_` family, whose
//     steal/queue-depth numbers depend on OS scheduling; those are
//     documented as scheduling-dependent and excluded from the
//     determinism contract (flat_values() can filter them out).
//   * Observability only. Nothing ever reads a metric to make a
//     simulation decision, so instrumentation cannot perturb products.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// process lifetime; idiomatic call sites cache them in a function-local
// static struct.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netbase/json.h"

namespace reuse::net::metrics {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void increment() { add(1); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  void reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written (or maximum) point-in-time value.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t v) { value_.fetch_add(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if `v` is larger (high-water mark).
  void record_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed,
                          std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  void reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram. Bucket bounds are inclusive upper bounds
/// ("le" in Prometheus terms), fixed at registration; observations above
/// the last bound land in an implicit overflow (+Inf) bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  void observe(std::int64_t v) {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] const std::vector<std::int64_t>& bounds() const {
    return bounds_;
  }
  /// Count in bucket i (i == bounds().size() is the +Inf overflow bucket).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  void reset();
  std::vector<std::int64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Named metric store. One global() instance serves the whole process;
/// independent instances exist only for tests.
class Registry {
 public:
  static Registry& global();

  /// Returns the counter registered under `name`, creating it on first
  /// use. Names must match [a-zA-Z_][a-zA-Z0-9_]* (valid Prometheus
  /// metric names). Re-registering an existing name with a different
  /// metric kind throws std::logic_error.
  Counter& counter(std::string_view name, std::string_view help);
  Gauge& gauge(std::string_view name, std::string_view help);
  /// `bounds` must be non-empty and strictly increasing; they are fixed by
  /// the first registration and ignored on later lookups of the same name.
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<std::int64_t> bounds);

  /// Zeroes every value but keeps all registrations. For tests and for
  /// processes that run several scenarios and want per-run snapshots.
  void reset();

  /// Writes one JSON object: {"counters": {name: value, ...}, "gauges":
  /// {...}, "histograms": {name: {"buckets": [{"le": B, "count": N}, ...],
  /// "overflow": N, "sum": S, "count": N}}}. Names are sorted, so equal
  /// registries produce identical documents.
  void write_json(JsonWriter& out) const;
  /// write_json() as a standalone document.
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition format (# HELP / # TYPE / samples).
  [[nodiscard]] std::string to_prometheus() const;

  /// Every metric flattened to sorted (name, value) pairs — histograms
  /// expand to one pair per bucket plus _sum/_count. Pairs whose name
  /// starts with `exclude_prefix` are skipped (empty prefix keeps all).
  /// This is the hook the determinism tests compare across --jobs values
  /// (excluding the scheduling-dependent "pool_" family).
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> flat_values(
      std::string_view exclude_prefix = {}) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  void check_kind(std::string_view name, Kind kind) const;

  mutable std::mutex mutex_;
  std::map<std::string, Kind, std::less<>> kinds_;
  std::map<std::string, std::string, std::less<>> help_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Shorthands against the global registry.
inline Counter& counter(std::string_view name, std::string_view help) {
  return Registry::global().counter(name, help);
}
inline Gauge& gauge(std::string_view name, std::string_view help) {
  return Registry::global().gauge(name, help);
}
inline Histogram& histogram(std::string_view name, std::string_view help,
                            std::vector<std::int64_t> bounds) {
  return Registry::global().histogram(name, help, std::move(bounds));
}

}  // namespace reuse::net::metrics
