// Client-side machinery for the lookupd serving front end: a blocking
// protocol client, the seeded load generator, and the ChaosClient fault
// plan.
//
// The load generator (run_load) is the one way this repo offers traffic to
// the lookup path. Each client thread runs one loop over a LoadSession —
// send a batch, read an answer by a deadline, half-close — and the session
// is either the framed socket (LookupClient on LookupServer::connect_client)
// or the in-process engine (LookupEngine::verdict_batch, answered at send).
// A request's latency runs from its *scheduled* send to the moment its
// answer is read, and a client reads answers while it waits for its next
// send slot, so a stall is charged to every request queued behind it
// instead of vanishing into a late send time (coordinated omission). How
// late each request actually went out is reported beside it, so a paced
// latency splits into the generator's own lateness and the lookup path.
//
// The chaos plan extends the deterministic fault-machinery idiom of
// simnet/faults.h to the serving boundary: every client's behavior is a
// pure function of (seed, client index) via net::substream, every injected
// fault is tallied in a client-side ledger at the moment it is sent, and
// the suite reconciles that ledger *exactly* against the server's
// ServerStats — torn writes against rejected_torn, garbage against
// rejected_garbage, oversized declarations against rejected_oversized,
// stalls against clients_evicted, and valid frames against served + shed.
// A server that silently drops or double-counts anything cannot pass.
//
// Determinism contract: which addresses a batch queries is a pure function
// of (seed, global batch index), whichever client sends it and over
// whichever transport; which fault each chaos client injects is a pure
// function of the seed. Latencies and the served/shed *split* under
// overload are wall-clock-dependent and are reported, not asserted on; the
// ledger laws above hold regardless of scheduling.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netbase/rng.h"
#include "serve/frame.h"
#include "serve/snapshot.h"

namespace reuse::serve {

class LookupEngine;
class LookupServer;

/// Substream salts for the client-side streams.
inline constexpr std::uint64_t kLoadSalt = 0x6c6f61646e6730ULL;
inline constexpr std::uint64_t kChaosSalt = 0x6368616f73706cULL;

/// The load generator's view of one connection: the seam between
/// run_load's client loop and whatever answers it. Used by one thread at a
/// time.
class LoadSession {
 public:
  using Clock = std::chrono::steady_clock;

  LoadSession() = default;
  LoadSession(const LoadSession&) = delete;
  LoadSession& operator=(const LoadSession&) = delete;
  virtual ~LoadSession() = default;
  /// Sends one request. False on transport failure.
  virtual bool send_batch(std::uint64_t request_id,
                          std::span<const std::uint32_t> addresses) = 0;
  /// The next answer, waiting for it until `deadline` at most
  /// (Clock::time_point::max() waits without limit). nullopt once the
  /// deadline has passed, or at once when no answer can arrive any more.
  [[nodiscard]] virtual std::optional<ResponseFrame> read_response(
      Clock::time_point deadline) = 0;
  /// Half-close: no more requests; answers still owed keep arriving.
  virtual void shutdown_write() = 0;
};

/// Blocking protocol client over a connected fd (as returned by
/// LookupServer::connect_client). Owns and closes the fd.
class LookupClient final : public LoadSession {
 public:
  explicit LookupClient(int fd) : fd_(fd) {}
  ~LookupClient() override;

  LookupClient(const LookupClient&) = delete;
  LookupClient& operator=(const LookupClient&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  /// Encodes and writes one request frame. False on transport failure.
  bool send_batch(std::uint64_t request_id,
                  std::span<const std::uint32_t> addresses) override;
  /// Writes raw bytes verbatim — the chaos clients' fault injector.
  bool send_bytes(std::string_view bytes);

  /// One complete response, or nullopt on EOF, on a protocol error from
  /// the server (which would be a server bug), or once `deadline` passes.
  [[nodiscard]] std::optional<ResponseFrame> read_response(
      Clock::time_point deadline) override;
  /// Blocks until one complete response decodes or the stream ends.
  [[nodiscard]] std::optional<ResponseFrame> read_response() {
    return read_response(Clock::time_point::max());
  }

  /// Half-close: signals end-of-requests while leaving the read side open
  /// for draining responses (the graceful client shutdown).
  void shutdown_write() override;
  /// Closes the fd outright — the torn-write client's abrupt exit.
  void close_now();
  [[nodiscard]] bool saw_eof() const { return eof_; }

 private:
  int fd_ = -1;
  ResponseDecoder decoder_;
  bool eof_ = false;
};

/// Listed/reused address pools sampled from a snapshot, shared by the load
/// generator and the chaos clients.
struct SamplePools {
  std::vector<std::uint32_t> listed;
  std::vector<std::uint32_t> reused;
};
[[nodiscard]] SamplePools sample_pools(const CompiledSnapshot& snapshot);

/// Fills `out` with a seeded listed/reused/random address mix. Pure
/// function of the rng stream state — the shared primitive that makes
/// generator and chaos batches deterministic.
void fill_batch(net::Rng& rng, const SamplePools& pools,
                double listed_fraction, double reused_fraction,
                std::span<std::uint32_t> out);

struct LoadConfig {
  std::uint64_t seed = 1;
  int clients = 4;
  /// Queries across all clients, rounded up to whole batches. Client c
  /// sends global batches c, c + clients, c + 2·clients, ...; batch k
  /// holds fill_batch over substream (seed, kLoadSalt, k), 40% listed and
  /// 30% reused entries, and travels as request id k.
  std::uint64_t queries = 65536;
  std::size_t batch_size = 64;
  /// Offered load across all clients in queries/second: each client sends
  /// its k-th batch at start + k·interval, interval = batch_size · clients /
  /// target_qps. 0 = unpaced: each client sends as fast as its window
  /// allows, and a request's schedule is its actual send.
  double target_qps = 0.0;
  /// Un-answered requests a client may have outstanding; at the limit it
  /// waits for an answer before sending. 1 = closed loop.
  std::size_t max_in_flight = 32;
};

struct LoadReport {
  /// latency_nanos entry of a request that was never answered.
  static constexpr std::uint64_t kUnanswered = ~std::uint64_t{0};
  /// send_late_nanos entry of a request that was never sent.
  static constexpr std::uint64_t kUnsent = ~std::uint64_t{0};

  std::uint64_t submitted = 0;  ///< request frames sent
  std::uint64_t ok = 0;         ///< responses with status kOk
  std::uint64_t shed = 0;       ///< responses with status kShed
  /// Verdict-bit tallies over kOk responses; deterministic given
  /// (seed, queries, batch_size, snapshot) when nothing is shed, at any
  /// client count and over either transport.
  std::uint64_t listed_words = 0;
  std::uint64_t reused_words = 0;
  double wall_seconds = 0.0;
  double throughput_qps = 0.0;  ///< served verdicts per wall second
  /// Latency of request id k, from its scheduled send to its answer being
  /// read; kUnanswered when no answer came.
  std::vector<std::uint64_t> latency_nanos;
  // Percentiles over the answered requests (wall-clock; reported only).
  std::uint64_t p50_nanos = 0;
  std::uint64_t p99_nanos = 0;
  std::uint64_t p999_nanos = 0;
  std::uint64_t max_nanos = 0;
  /// How late request id k went out: its actual send minus its scheduled
  /// send, so 0 unpaced, where the schedule is the send. A client held by
  /// a full window or waking late from its wait shows here; kUnsent when
  /// the request never went out.
  std::vector<std::uint64_t> send_late_nanos;
  // Percentiles over the sent requests (wall-clock; reported only).
  std::uint64_t send_late_p50_nanos = 0;
  std::uint64_t send_late_p99_nanos = 0;
};

/// Opens one client's session; called once per client, before the clock
/// starts.
using SessionFactory = std::function<std::unique_ptr<LoadSession>()>;

/// Runs `clients` concurrent client threads, each over its own session,
/// and blocks until every client has read the last answer it is owed.
/// Invariant on return (well-behaved transports): ok + shed == submitted.
[[nodiscard]] LoadReport run_load(const SessionFactory& connect,
                                  const CompiledSnapshot& sample_source,
                                  const LoadConfig& config);
/// Over the framed socket: one LookupClient per client on
/// server.connect_client().
[[nodiscard]] LoadReport run_load(LookupServer& server,
                                  const CompiledSnapshot& sample_source,
                                  const LoadConfig& config);
/// In process: each batch is answered by engine.verdict_batch at send.
[[nodiscard]] LoadReport run_load(const LookupEngine& engine,
                                  const CompiledSnapshot& sample_source,
                                  const LoadConfig& config);

/// One chaos client's scripted misbehavior. kWellBehaved is part of the
/// plan on purpose: faults are injected *among* normal traffic, not
/// instead of it.
enum class ChaosBehavior : std::uint8_t {
  kWellBehaved = 0,  ///< closed-loop valid batches only
  kTorn = 1,         ///< valid batches, then half a frame and abrupt close
  kGarbage = 2,      ///< valid batches, then a frame with a wrong magic
  kOversized = 3,    ///< valid batches, then an over-cap length declaration
  kFlood = 4,        ///< burst of valid frames with no reads until the end
  kStall = 5,        ///< half a frame, then silence until evicted
};
inline constexpr int kChaosBehaviorCount = 6;
[[nodiscard]] std::string_view to_string(ChaosBehavior behavior);

/// The seeded plan: clients 0..5 cycle through all six behaviors (coverage
/// is guaranteed, not probabilistic), later clients draw uniformly from
/// their substream. Pure function of (seed, client_index).
[[nodiscard]] ChaosBehavior chaos_behavior_for(std::uint64_t seed,
                                               int client_index);

struct ChaosConfig {
  std::uint64_t seed = 1;
  int clients = 12;
  /// Valid batches each client sends before (and, for kFlood, as) its
  /// scripted fault.
  std::uint64_t batches_per_client = 32;
  std::size_t batch_size = 16;
  double listed_fraction = 0.4;
  double reused_fraction = 0.3;
};

/// Client-side injection ledger, summed across all chaos clients. Each
/// counter is incremented at the moment the bytes hit the transport, so it
/// is the ground truth the server's ledger must reproduce.
struct ChaosLedger {
  std::uint64_t valid_sent = 0;
  std::uint64_t torn_sent = 0;
  std::uint64_t garbage_sent = 0;
  std::uint64_t oversized_sent = 0;
  std::uint64_t stalls = 0;
  std::uint64_t ok_received = 0;
  std::uint64_t shed_received = 0;
};

/// Runs the chaos plan: `clients` threads, each executing
/// chaos_behavior_for(seed, index). Blocks until every client is done
/// (stall clients block until the server evicts them, so the server's
/// stall_timeout_ms bounds the runtime). Reconciliation laws on return:
///   server rejected_torn      == ledger torn_sent
///   server rejected_garbage   == ledger garbage_sent
///   server rejected_oversized == ledger oversized_sent
///   server clients_evicted    == ledger stalls   (absent slow readers)
///   server served + shed      == ledger valid_sent
///   ledger ok + shed received == ledger valid_sent
[[nodiscard]] ChaosLedger run_chaos_clients(
    LookupServer& server, const CompiledSnapshot& sample_source,
    const ChaosConfig& config);

}  // namespace reuse::serve
