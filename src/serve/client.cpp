#include "serve/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "serve/lookup.h"
#include "serve/server.h"

namespace reuse::serve {
namespace {

using Clock = LoadSession::Clock;

/// The load generator's traffic mix (see LoadConfig::queries).
constexpr double kListedFraction = 0.4;
constexpr double kReusedFraction = 0.3;

[[nodiscard]] std::string u32_bytes(std::uint32_t value) {
  char bytes[4];
  std::memcpy(bytes, &value, sizeof bytes);
  return {bytes, sizeof bytes};
}

[[nodiscard]] std::uint64_t percentile(const std::vector<std::uint64_t>& sorted,
                                       double p) {
  if (sorted.empty()) return 0;
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

/// The entries of a by-request-id vector that hold a sample, sorted.
[[nodiscard]] std::vector<std::uint64_t> sorted_samples(
    const std::vector<std::uint64_t>& by_id, std::uint64_t missing) {
  std::vector<std::uint64_t> samples;
  for (const std::uint64_t value : by_id) {
    if (value != missing) samples.push_back(value);
  }
  std::sort(samples.begin(), samples.end());
  return samples;
}

[[nodiscard]] std::uint64_t nanos(Clock::duration duration) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(duration).count());
}

/// The in-process transport: verdict_batch answers each batch at send, and
/// the answers queue until run_load reads them.
class EngineSession final : public LoadSession {
 public:
  explicit EngineSession(const LookupEngine& engine) : engine_(engine) {}

  bool send_batch(std::uint64_t request_id,
                  std::span<const std::uint32_t> addresses) override {
    queries_.clear();
    for (const std::uint32_t value : addresses) queries_.emplace_back(value);
    verdicts_.resize(queries_.size());
    engine_.verdict_batch(queries_, verdicts_);
    ResponseFrame& answer = answers_.emplace_back();
    answer.request_id = request_id;
    answer.verdicts.reserve(verdicts_.size());
    for (const Verdict verdict : verdicts_) {
      answer.verdicts.push_back(verdict.bits);
    }
    return true;
  }

  std::optional<ResponseFrame> read_response(
      Clock::time_point deadline) override {
    if (answers_.empty()) {
      // Only a send makes an answer, so none can arrive while waiting.
      if (deadline != Clock::time_point::max()) {
        std::this_thread::sleep_until(deadline);
      }
      return std::nullopt;
    }
    ResponseFrame answer = std::move(answers_.front());
    answers_.pop_front();
    return answer;
  }

  void shutdown_write() override {}

 private:
  const LookupEngine& engine_;
  std::vector<net::Ipv4Address> queries_;
  std::vector<Verdict> verdicts_;
  std::deque<ResponseFrame> answers_;
};

}  // namespace

LookupClient::~LookupClient() { close_now(); }

void LookupClient::close_now() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void LookupClient::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

bool LookupClient::send_bytes(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a server that closed this session (poisoned stream,
    // eviction) must surface as EPIPE, never as a fatal SIGPIPE.
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool LookupClient::send_batch(std::uint64_t request_id,
                              std::span<const std::uint32_t> addresses) {
  return send_bytes(encode_request(request_id, addresses));
}

std::optional<ResponseFrame> LookupClient::read_response(
    Clock::time_point deadline) {
  for (;;) {
    if (auto response = decoder_.next()) return response;
    if (decoder_.error() != FrameError::kNone) return std::nullopt;
    if (eof_) return std::nullopt;
    if (deadline != Clock::time_point::max()) {
      // Wait for bytes until the deadline; once it has passed, take only
      // what has already arrived.
      const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::max(deadline - Clock::now(),
                                     Clock::duration::zero()))
                            .count();
      const timespec timeout{static_cast<time_t>(left / 1'000'000'000),
                             static_cast<long>(left % 1'000'000'000)};
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
      if (ready < 0 && errno == EINTR) continue;
      if (ready == 0) {
        if (Clock::now() >= deadline) return std::nullopt;
        continue;
      }
    }
    char buf[4096];
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n > 0) {
      decoder_.feed({buf, static_cast<std::size_t>(n)});
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    eof_ = true;  // orderly EOF or transport error: no more responses
  }
}

SamplePools sample_pools(const CompiledSnapshot& snapshot) {
  SamplePools pools;
  for (const net::Ipv4Address address :
       snapshot.entries_matching(kVerdictListed)) {
    pools.listed.push_back(address.value());
  }
  for (const net::Ipv4Address address :
       snapshot.entries_matching(kVerdictNated)) {
    pools.reused.push_back(address.value());
  }
  return pools;
}

void fill_batch(net::Rng& rng, const SamplePools& pools,
                double listed_fraction, double reused_fraction,
                std::span<std::uint32_t> out) {
  for (std::uint32_t& slot : out) {
    const double mix = rng.uniform_real();
    if (mix < listed_fraction && !pools.listed.empty()) {
      slot = pools.listed[rng.uniform(pools.listed.size())];
    } else if (mix < listed_fraction + reused_fraction &&
               !pools.reused.empty()) {
      slot = pools.reused[rng.uniform(pools.reused.size())];
    } else {
      slot = static_cast<std::uint32_t>(rng.uniform(1ULL << 32));
    }
  }
}

LoadReport run_load(const SessionFactory& connect,
                    const CompiledSnapshot& sample_source,
                    const LoadConfig& config) {
  const SamplePools pools = sample_pools(sample_source);
  const auto clients =
      static_cast<std::uint64_t>(std::max(config.clients, 1));
  const std::size_t batch_size = std::max<std::size_t>(config.batch_size, 1);
  const std::uint64_t batches = std::max<std::uint64_t>(
      (config.queries + batch_size - 1) / batch_size, 1);
  const std::size_t window = std::max<std::size_t>(config.max_in_flight, 1);
  // Each client offers 1/clients of target_qps, one batch per request.
  const auto interval =
      config.target_qps > 0.0
          ? std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(
                    static_cast<double>(batch_size * clients) /
                    config.target_qps))
          : Clock::duration::zero();
  ServeMetrics& metrics = serve_metrics();

  std::vector<std::unique_ptr<LoadSession>> sessions;
  for (std::uint64_t c = 0; c < clients; ++c) sessions.push_back(connect());

  std::mutex merge_mutex;
  LoadReport report;
  // Written by request id: each client owns the ids it sends.
  report.latency_nanos.assign(batches, LoadReport::kUnanswered);
  report.send_late_nanos.assign(batches, LoadReport::kUnsent);

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(sessions.size());
  for (std::uint64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadSession& session = *sessions[c];
      std::vector<std::uint32_t> batch(batch_size);
      std::vector<Clock::time_point> scheduled;  // by id / clients
      LoadReport tally;
      std::size_t in_flight = 0;

      const auto absorb = [&](const ResponseFrame& answer) {
        const std::uint64_t id = answer.request_id;
        if (id % clients != c || id / clients >= scheduled.size()) return;
        --in_flight;
        const std::uint64_t latency =
            nanos(Clock::now() - scheduled[id / clients]);
        report.latency_nanos[id] = latency;
        metrics.batch_micros.observe(
            static_cast<std::int64_t>(latency / 1000));
        if (answer.status == ResponseStatus::kShed) {
          ++tally.shed;
          return;
        }
        ++tally.ok;
        for (const std::uint32_t word : answer.verdicts) {
          const Verdict verdict{word};
          tally.listed_words += verdict.listed() ? 1 : 0;
          tally.reused_words += verdict.reused() ? 1 : 0;
        }
      };

      for (std::uint64_t id = c; id < batches; id += clients) {
        const Clock::time_point slot =
            interval > Clock::duration::zero()
                ? start + interval * static_cast<Clock::rep>(id / clients)
                : Clock::now();
        // Until the slot, read answers as they arrive; with the window
        // full, wait for one.
        while (auto answer = session.read_response(
                   in_flight >= window ? Clock::time_point::max() : slot)) {
          absorb(*answer);
        }
        // No answer before the deadline: the stream has ended.
        if (in_flight >= window || Clock::now() < slot) break;
        net::Rng rng = net::substream(config.seed, kLoadSalt, id);
        fill_batch(rng, pools, kListedFraction, kReusedFraction, batch);
        const Clock::time_point sent = Clock::now();
        scheduled.push_back(interval > Clock::duration::zero() ? slot : sent);
        if (!session.send_batch(id, batch)) break;
        report.send_late_nanos[id] = nanos(sent - scheduled.back());
        ++tally.submitted;
        ++in_flight;
      }
      session.shutdown_write();
      while (auto answer = session.read_response(Clock::time_point::max())) {
        absorb(*answer);
      }

      const std::lock_guard<std::mutex> lock(merge_mutex);
      report.submitted += tally.submitted;
      report.ok += tally.ok;
      report.shed += tally.shed;
      report.listed_words += tally.listed_words;
      report.reused_words += tally.reused_words;
    });
  }
  for (std::thread& thread : threads) thread.join();

  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  const std::vector<std::uint64_t> latencies =
      sorted_samples(report.latency_nanos, LoadReport::kUnanswered);
  report.p50_nanos = percentile(latencies, 0.50);
  report.p99_nanos = percentile(latencies, 0.99);
  report.p999_nanos = percentile(latencies, 0.999);
  report.max_nanos = latencies.empty() ? 0 : latencies.back();
  const std::vector<std::uint64_t> lateness =
      sorted_samples(report.send_late_nanos, LoadReport::kUnsent);
  report.send_late_p50_nanos = percentile(lateness, 0.50);
  report.send_late_p99_nanos = percentile(lateness, 0.99);
  if (report.wall_seconds > 0.0) {
    report.throughput_qps = static_cast<double>(report.ok * batch_size) /
                            report.wall_seconds;
  }
  return report;
}

LoadReport run_load(LookupServer& server,
                    const CompiledSnapshot& sample_source,
                    const LoadConfig& config) {
  return run_load(
      [&server] {
        return std::make_unique<LookupClient>(server.connect_client());
      },
      sample_source, config);
}

LoadReport run_load(const LookupEngine& engine,
                    const CompiledSnapshot& sample_source,
                    const LoadConfig& config) {
  return run_load(
      [&engine] { return std::make_unique<EngineSession>(engine); },
      sample_source, config);
}

std::string_view to_string(ChaosBehavior behavior) {
  switch (behavior) {
    case ChaosBehavior::kWellBehaved:
      return "well-behaved";
    case ChaosBehavior::kTorn:
      return "torn-write";
    case ChaosBehavior::kGarbage:
      return "garbage-magic";
    case ChaosBehavior::kOversized:
      return "oversized-length";
    case ChaosBehavior::kFlood:
      return "flood";
    case ChaosBehavior::kStall:
      return "stall";
  }
  return "unknown";
}

ChaosBehavior chaos_behavior_for(std::uint64_t seed, int client_index) {
  // First six clients cycle through every behavior so coverage is a
  // property of the plan, not of luck; the tail is seed-drawn.
  if (client_index < kChaosBehaviorCount) {
    return static_cast<ChaosBehavior>(client_index);
  }
  net::Rng rng = net::substream(seed, kChaosSalt,
                                static_cast<std::uint64_t>(client_index));
  return static_cast<ChaosBehavior>(
      rng.uniform(static_cast<std::uint64_t>(kChaosBehaviorCount)));
}

ChaosLedger run_chaos_clients(LookupServer& server,
                              const CompiledSnapshot& sample_source,
                              const ChaosConfig& config) {
  const SamplePools pools = sample_pools(sample_source);
  const int clients = std::max(config.clients, 1);

  std::mutex merge_mutex;
  ChaosLedger total;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const ChaosBehavior behavior = chaos_behavior_for(config.seed, c);
      LookupClient client(server.connect_client());
      if (!client.valid()) return;
      net::Rng rng = net::substream(config.seed, kChaosSalt + 1,
                                    static_cast<std::uint64_t>(c));
      std::vector<std::uint32_t> batch(std::max<std::size_t>(
          config.batch_size, 1));
      ChaosLedger ledger;

      const auto request_id = [c](std::uint64_t b) {
        return (static_cast<std::uint64_t>(c) << 20) | b;
      };
      const auto absorb = [&](const ResponseFrame& response) {
        if (response.status == ResponseStatus::kShed) {
          ++ledger.shed_received;
        } else {
          ++ledger.ok_received;
        }
      };
      // Closed-loop valid traffic: one frame in flight, answered before the
      // next — so when a scripted fault fires, no valid frame is pending
      // and the ledger laws are exact, not eventual.
      const auto closed_loop_batches = [&](std::uint64_t count) {
        for (std::uint64_t b = 0; b < count; ++b) {
          fill_batch(rng, pools, config.listed_fraction,
                     config.reused_fraction, batch);
          if (!client.send_batch(request_id(b), batch)) return;
          ++ledger.valid_sent;
          const auto response = client.read_response();
          if (!response) return;
          absorb(*response);
        }
      };
      const auto drain_to_eof = [&] {
        while (auto response = client.read_response()) absorb(*response);
      };

      switch (behavior) {
        case ChaosBehavior::kWellBehaved: {
          closed_loop_batches(config.batches_per_client);
          client.shutdown_write();
          drain_to_eof();
          break;
        }
        case ChaosBehavior::kTorn: {
          closed_loop_batches(config.batches_per_client);
          fill_batch(rng, pools, config.listed_fraction,
                     config.reused_fraction, batch);
          const std::string frame = encode_request(request_id(1u << 19), batch);
          if (client.send_bytes(
                  std::string_view(frame).substr(0, frame.size() / 2))) {
            ++ledger.torn_sent;
          }
          client.close_now();  // abrupt exit: the server sees EOF mid-frame
          break;
        }
        case ChaosBehavior::kGarbage: {
          closed_loop_batches(config.batches_per_client);
          // A length-sane frame whose magic word is wrong: poisons the
          // decoder as kBadMagic, never parses further.
          std::string frame = u32_bytes(
              static_cast<std::uint32_t>(kFrameHeaderBytes));
          frame += u32_bytes(0xdeadbeefu);
          frame.append(kFrameHeaderBytes - 4, '\0');
          if (client.send_bytes(frame)) ++ledger.garbage_sent;
          drain_to_eof();  // the server closes the poisoned session
          break;
        }
        case ChaosBehavior::kOversized: {
          closed_loop_batches(config.batches_per_client);
          // Four bytes are enough: the declared length alone trips the cap
          // before any payload is read or allocated.
          if (client.send_bytes(u32_bytes(
                  static_cast<std::uint32_t>(kMaxFrameBytes + 1)))) {
            ++ledger.oversized_sent;
          }
          drain_to_eof();
          break;
        }
        case ChaosBehavior::kFlood: {
          // Open-loop burst: every frame written before any response is
          // read, the shape that exercises queue-full SHED responses.
          // Volume stays far below socket buffers so the burst cannot
          // deadlock against the unread responses.
          std::uint64_t sent = 0;
          for (std::uint64_t b = 0; b < config.batches_per_client; ++b) {
            fill_batch(rng, pools, config.listed_fraction,
                       config.reused_fraction, batch);
            if (!client.send_batch(request_id(b), batch)) break;
            ++ledger.valid_sent;
            ++sent;
          }
          client.shutdown_write();
          drain_to_eof();
          (void)sent;
          break;
        }
        case ChaosBehavior::kStall: {
          closed_loop_batches(config.batches_per_client / 2);
          fill_batch(rng, pools, config.listed_fraction,
                     config.reused_fraction, batch);
          const std::string frame = encode_request(request_id(1u << 19), batch);
          if (client.send_bytes(
                  std::string_view(frame).substr(0, frame.size() / 2))) {
            ++ledger.stalls;
          }
          // Silence: hold the half-open frame until the server's stall
          // eviction closes the session (observed here as EOF).
          drain_to_eof();
          break;
        }
      }

      const std::lock_guard<std::mutex> lock(merge_mutex);
      total.valid_sent += ledger.valid_sent;
      total.torn_sent += ledger.torn_sent;
      total.garbage_sent += ledger.garbage_sent;
      total.oversized_sent += ledger.oversized_sent;
      total.stalls += ledger.stalls;
      total.ok_received += ledger.ok_received;
      total.shed_received += ledger.shed_received;
    });
  }
  for (std::thread& thread : threads) thread.join();
  return total;
}

}  // namespace reuse::serve
