// Wait-free-read query engine over atomically swappable compiled snapshots.
//
// Serving is read-mostly with rare whole-artifact replacement: a new day's
// snapshot arrives, readers must never stall, and the old artifact must
// stay valid for queries already in flight. Earlier versions pinned the
// snapshot shared_ptr under a tiny spinlock; that was correct but put every
// reader on one shared cache line (lock word + refcount), serializing the
// read side and exposing a livelock-shaped hazard under publish storms.
//
// The engine now uses epoch-based read-side reclamation (serve/epoch.h):
//   * Readers enter an epoch critical section (a store to their *own*
//     padded slot), load the raw live-snapshot pointer, and query the
//     immutable artifact. No shared cache line is written on the read
//     path; read throughput scales with cores.
//   * publish() stores the new raw pointer, then calls
//     EpochDomain::synchronize(), which waits until every reader that
//     could hold the old pointer has exited. Only then does the superseded
//     shared_ptr drop — so the artifact frees with provably zero readers,
//     and the engine never hands out a dangling pointer.
//   * Readers never wait for publishers; publishers wait (briefly — read
//     sections are one batch long) for readers. Concurrent publishers
//     serialize on a mutex, last write wins.
//
// The protocol is seq_cst atomics only — no standalone fences — so the
// TSan suite proves the swap safe rather than suppressing it (see
// epoch.h for the memory-model discussion).
//
// The hot path allocates nothing: verdicts are 32-bit words, batch output
// goes into caller-provided spans, and the serve_* metrics are cached
// registry handles doing relaxed atomic adds. Query *counters* are
// deterministic functions of the workload; the latency histogram
// (serve_batch_micros, fed by the load generator in serve/client.h with
// each request's time from its scheduled send to its answer) is wall-clock
// and — like the pool_ family — excluded from the determinism contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "netbase/metrics.h"
#include "serve/snapshot.h"

namespace reuse::serve {

/// Registry handles for the serve_ metric family, registered on first use
/// (same pattern as analysis::cache_metrics). Shared by the engine, the
/// load generator, and the run-manifest writer.
struct ServeMetrics {
  net::metrics::Counter& queries;        ///< single-address verdicts served
  net::metrics::Counter& batches;        ///< verdict_batch calls
  net::metrics::Counter& batch_queries;  ///< addresses answered in batches
  net::metrics::Counter& listed;         ///< verdicts with the listed bit
  net::metrics::Counter& reused;         ///< verdicts with NATed or dynamic
  net::metrics::Counter& swaps;          ///< snapshots published
  net::metrics::Gauge& entries;          ///< entry count of the live snapshot
  /// Load-generator request latency: scheduled send to answer read.
  net::metrics::Histogram& batch_micros;
};
ServeMetrics& serve_metrics();

class LookupEngine {
 public:
  /// An engine starts empty; queries against it answer all-clear verdicts.
  LookupEngine() = default;
  /// Waits for in-flight readers before the owned snapshot dies with the
  /// engine. Destroying an engine while queries are still being *issued*
  /// remains a caller bug, as with any object.
  ~LookupEngine();

  /// Atomically replaces the served snapshot. Safe to call concurrently
  /// with any number of in-flight queries (they finish against the
  /// snapshot they entered with) and with other publishers (last write
  /// wins). Returns only after the superseded artifact has zero readers.
  /// A null snapshot is rejected with std::invalid_argument: "serve
  /// nothing" is expressed by publishing an *empty* snapshot, never by
  /// letting nullptr reach the read path.
  void publish(std::shared_ptr<const CompiledSnapshot> snapshot);

  /// The currently served snapshot (nullptr before the first publish).
  /// Takes the publish mutex (cold path); the returned shared_ptr keeps
  /// the artifact alive independently of later publishes.
  [[nodiscard]] std::shared_ptr<const CompiledSnapshot> snapshot() const;

  /// Single-address query: one epoch enter/exit, one two-level lookup.
  [[nodiscard]] Verdict verdict(net::Ipv4Address address) const;

  /// Batched query: queries[i] answers into out[i]. One epoch section for
  /// the whole batch — the amortization that makes batching worthwhile.
  /// Precondition: out.size() >= queries.size().
  void verdict_batch(std::span<const net::Ipv4Address> queries,
                     std::span<Verdict> out) const;

  /// Hot reload with last-good fallback. `path` is sniffed by magic: a
  /// SnapshotDelta applies onto the live snapshot (and must be keyed to its
  /// fingerprint), anything else goes through CompiledSnapshot::load. The
  /// result is published; on any failure the live snapshot keeps serving,
  /// only reload_failures() moves, and `error` says why. Reloads serialize
  /// among themselves and are safe beside any number of queries.
  bool reload(const std::string& path, std::string* error = nullptr);
  [[nodiscard]] std::uint64_t reloads() const {
    return reloads_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t reload_failures() const {
    return reload_failures_.load(std::memory_order_relaxed);
  }

 private:
  /// Raw pointer the read path loads inside its epoch section; always
  /// either nullptr or owner_.get().
  std::atomic<const CompiledSnapshot*> live_{nullptr};
  /// Serializes publishers and guards owner_.
  mutable std::mutex publish_mutex_;
  /// Owns the artifact live_ points into; swapped only under publish_mutex_
  /// and only released after an epoch synchronize.
  std::shared_ptr<const CompiledSnapshot> owner_;
  /// Serializes reload(): a delta reads the live snapshot and publishes
  /// its successor, which must not interleave with another reload.
  std::mutex reload_mutex_;
  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> reload_failures_{0};
};

}  // namespace reuse::serve
