// Hostile-client-proof concurrent serving front end for LookupEngine.
//
// The offline pipeline produces verdicts; operationally they are consumed
// by many concurrent clients that misbehave in every way a network lets
// them: torn writes, garbage bytes, floods, half-open stalls, and plain
// slowness. This server is built so that none of those can take the
// service down or silently lose a request:
//
//   * Sharded worker loops. Client sessions are assigned round-robin to W
//     poll-based worker threads; a worker owns its sessions exclusively
//     (no cross-worker locks on session state). All workers share one
//     LookupEngine, whose epoch-based read side scales with cores.
//   * Bounded queues + explicit backpressure. Each session has a bounded
//     pending-request queue. When it is full, further decoded frames are
//     answered immediately with a SHED response — an explicit, accountable
//     backpressure signal, never a silent drop.
//   * Deadlines. A queued request older than deadline_ms is answered SHED
//     rather than served stale.
//   * Strict validation. A frame that fails validation (frame.h) poisons
//     its session: the rejection is counted by kind and the connection is
//     closed — once framing is wrong, nothing later in the stream can be
//     trusted. Torn streams (EOF mid-frame) count as torn.
//   * Slow-client eviction. A session stuck mid-frame longer than
//     stall_timeout_ms (slow-loris), or one that stops reading until its
//     outbound buffer exceeds max_outbound_bytes, is evicted; any queued
//     requests it had are counted as shed (evicted), keeping the ledger
//     law intact: served + shed + rejected == submitted, always.
//   * Hot reload with last-good fallback. reload() is LookupEngine::reload
//     on the served engine (a full snapshot or a delta, published under
//     full load); a file that fails validation/checksum leaves the previous
//     snapshot serving and only bumps reload_failures.
//   * Graceful drain. drain() stops reading, serves and flushes whatever
//     was already accepted, then closes every session and joins workers.
//
// Transport is a socketpair per client (connect_client returns the client
// end), so tests and the in-process load generator need no network stack;
// the protocol itself is stream-agnostic.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/frame.h"
#include "serve/lookup.h"

namespace reuse::serve {

struct ServerConfig {
  /// Worker threads (session shards). Clamped to >= 1.
  int workers = 1;
  /// Pending request frames a session may queue before SHED responses.
  std::size_t max_queue = 64;
  /// Outbound bytes buffered for a non-reading client before eviction.
  std::size_t max_outbound_bytes = 1 << 20;
  /// Queued requests older than this are shed instead of served; <= 0
  /// disables deadline shedding.
  int deadline_ms = 1000;
  /// Sessions stuck mid-frame longer than this are evicted (slow-loris);
  /// <= 0 disables stall eviction.
  int stall_timeout_ms = 1000;
};

/// Server-side ledger. Every counter is an order-independent sum, so the
/// totals are deterministic across worker counts for a deterministic
/// workload; the chaos suite reconciles them exactly against client-side
/// injection ledgers. Law: served + shed_total() + rejected_total() equals
/// submitted_valid + rejected_total() (i.e. every accepted frame is served
/// or shed; every invalid frame is rejected; nothing vanishes).
struct ServerStats {
  std::uint64_t submitted_valid = 0;  ///< well-formed frames decoded
  std::uint64_t served = 0;           ///< answered with OK verdicts
  std::uint64_t shed_overload = 0;    ///< SHED: queue full on arrival
  std::uint64_t shed_deadline = 0;    ///< SHED: rotted past deadline_ms
  std::uint64_t shed_evicted = 0;     ///< queued on a session when evicted
  std::uint64_t rejected_torn = 0;      ///< EOF mid-frame
  std::uint64_t rejected_garbage = 0;   ///< bad magic/length/count
  std::uint64_t rejected_oversized = 0;  ///< declared length over the cap
  std::uint64_t clients_evicted = 0;  ///< stalled or non-reading sessions
  std::uint64_t served_listed = 0;  ///< listed bits across served verdicts
  std::uint64_t served_reused = 0;  ///< reuse bits across served verdicts

  [[nodiscard]] std::uint64_t shed_total() const {
    return shed_overload + shed_deadline + shed_evicted;
  }
  [[nodiscard]] std::uint64_t rejected_total() const {
    return rejected_torn + rejected_garbage + rejected_oversized;
  }
  /// Everything that arrived: accepted frames plus detected rejects.
  [[nodiscard]] std::uint64_t submitted_total() const {
    return submitted_valid + rejected_total();
  }
  /// The no-silent-drops law; drain() guarantees it once clients are done.
  [[nodiscard]] bool reconciles() const {
    return served + shed_total() + rejected_total() == submitted_total();
  }
};

class LookupServer {
 public:
  /// The engine must outlive the server. Publishing to the engine from
  /// outside (e.g. a publish storm) is safe at any time.
  LookupServer(LookupEngine& engine, ServerConfig config);
  /// Drains (graceful) if the caller has not already.
  ~LookupServer();

  LookupServer(const LookupServer&) = delete;
  LookupServer& operator=(const LookupServer&) = delete;

  /// Creates a socketpair session, hands the server end to a worker shard
  /// (round-robin), and returns the connected client end. The caller owns
  /// the returned fd and must close() it. Returns -1 after drain() or on
  /// socketpair failure.
  [[nodiscard]] int connect_client();

  /// LookupEngine::reload on the served engine, counted in the lookupd_
  /// metrics. On any validation failure the last-good snapshot keeps
  /// serving and only the failure counter moves. Thread-safe.
  bool reload(const std::string& path, std::string* error = nullptr);
  /// The served engine's reload ledger.
  [[nodiscard]] std::uint64_t reloads() const { return engine_.reloads(); }
  [[nodiscard]] std::uint64_t reload_failures() const {
    return engine_.reload_failures();
  }

  /// Snapshot of the ledger (counters are atomics; the value is exact once
  /// clients have quiesced or after drain()).
  [[nodiscard]] ServerStats stats() const;

  /// Graceful shutdown: stop reading, answer/flush everything accepted,
  /// close sessions, join workers. Idempotent. Clients observe EOF after
  /// their last response.
  void drain();

 private:
  struct Session;
  struct Worker;

  void worker_loop(Worker& worker);
  void read_session(Session& session);
  void handle_frame(Session& session, RequestFrame frame);
  void process_queue(Session& session, std::vector<net::Ipv4Address>& scratch,
                     std::vector<Verdict>& verdicts);
  void flush_output(Session& session);
  void close_session(Session& session);
  void wake(Worker& worker);

  LookupEngine& engine_;
  const ServerConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> next_shard_{0};
  std::atomic<bool> draining_{false};
  bool drained_ = false;
  std::mutex drain_mutex_;

  // Ledger (see ServerStats). Relaxed atomics: order-independent sums.
  std::atomic<std::uint64_t> submitted_valid_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> shed_overload_{0};
  std::atomic<std::uint64_t> shed_deadline_{0};
  std::atomic<std::uint64_t> shed_evicted_{0};
  std::atomic<std::uint64_t> rejected_torn_{0};
  std::atomic<std::uint64_t> rejected_garbage_{0};
  std::atomic<std::uint64_t> rejected_oversized_{0};
  std::atomic<std::uint64_t> clients_evicted_{0};
  std::atomic<std::uint64_t> served_listed_{0};
  std::atomic<std::uint64_t> served_reused_{0};
};

/// Registry handles for the lookupd_ metric family (serving front end).
struct LookupdMetrics {
  net::metrics::Counter& submitted;  ///< valid frames decoded
  net::metrics::Counter& served;
  net::metrics::Counter& shed;
  net::metrics::Counter& rejected;
  net::metrics::Counter& evicted;
  net::metrics::Counter& reloads;
  net::metrics::Counter& reload_failures;
};
LookupdMetrics& lookupd_metrics();

}  // namespace reuse::serve
