// `serve` workload: LookupServer (2 workers) driven open-loop.
//
// Set-up simulates a small fresh scenario (no census: it only feeds the
// snapshot), compiles its snapshot,
// round-trips it through save/load and publishes it; it also evolves the
// scenario by one day and saves the snapshot delta that lands mid-run.
// The run drives the server from one generator thread over 2 connections
// (3 threads in total): a nominal-rate phase (with the delta reload at its
// midpoint, so reads run beside a write), then a fixed ladder of rates,
// then a closed-loop pass whose verdicts must match the in-process engine.
//
// The generator is open-loop: request i is due at t0 + i / rate whatever
// the server does, its latency is timed from that due time, and responses
// are read as they arrive (ppoll), so a stall shows in every request
// queued behind it. How late the generator itself sent is reported too.
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <thread>

#include "analysis/cache.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "serve/lookup.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace reuse;

struct ServeShape {
  std::size_t ases;
  std::size_t probes;
  int period_days;
  double nominal_rps;
  int rungs;
  int closed_loop_requests;
};
/// The server runs with the shipped session queue (ServerConfig's
/// max_queue of 64 frames, also reuse_lookupd's --queue-depth default), and
/// the nominal rate is one that queue rides through a guest stall at: at
/// 500 requests/s over 2 connections a worker or the generator can stall
/// for 256 ms before a session's queue fills and sheds. The ladder goes up
/// to 500 x 2^10 = 512000 requests/s.
constexpr ServeShape kFullShape{6, 200, 10, 500.0, 10, 512};
constexpr ServeShape kSmokeShape{6, 120, 6, 500.0, 2, 64};
/// Shares of --seconds: the nominal phase, the saturation phase, and the
/// ladder (split evenly across its rungs).
constexpr double kNominalShare = 0.35;
constexpr double kSaturationShare = 0.35;
constexpr double kLadderShare = 0.3;

constexpr std::size_t kBatch = 64;
constexpr std::size_t kBatchPool = 4096;
/// Requests in flight per connection at saturation (under max_queue), and
/// the answers per timing window there.
constexpr std::size_t kWindow = 16;
constexpr std::uint64_t kWindowRequests = 2000;
constexpr double kLatencyLimitUs = 10000.0;
constexpr std::size_t kMaxBacklog = 4096;
constexpr std::uint64_t kRequestSalt = 0x7365727665726571ULL;
constexpr std::uint64_t kServeScenarioSeed = 1;

struct Connection {
  int fd = -1;
  serve::ResponseDecoder decoder;
  std::string out;
  std::size_t out_offset = 0;

  /// Writes as much pending output as the socket takes; false on error.
  bool flush() {
    while (out_offset < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_offset,
                               out.size() - out_offset, MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
      out_offset += static_cast<std::size_t>(n);
    }
    out.clear();
    out_offset = 0;
    return true;
  }
};
using Connections = std::array<Connection, 2>;

/// Flushes both connections, waits (ppoll) up to `timeout` for one to be
/// readable, and hands every response that arrived to on_frame(k, frame).
/// False once a connection is closed, broken or out of protocol.
template <typename OnFrame>
bool exchange(Connections& conns, Clock::duration timeout, OnFrame&& on_frame) {
  pollfd pfds[2];
  for (int k = 0; k < 2; ++k) {
    if (!conns[k].flush()) return false;
    pfds[k] = pollfd{conns[k].fd,
                     static_cast<short>(POLLIN | (conns[k].out.empty() ? 0 : POLLOUT)),
                     0};
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::max(timeout, Clock::duration::zero()))
                      .count();
  const timespec ts{static_cast<time_t>(ns / 1000000000),
                    static_cast<long>(ns % 1000000000)};
  if (::ppoll(pfds, 2, &ts, nullptr) <= 0) return true;
  char buffer[1 << 16];
  for (int k = 0; k < 2; ++k) {
    if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t n = ::recv(conns[k].fd, buffer, sizeof buffer, 0);
    if (n == 0) return false;
    if (n < 0) continue;
    conns[k].decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    while (std::optional<serve::ResponseFrame> frame = conns[k].decoder.next()) {
      on_frame(k, *frame);
    }
    if (conns[k].decoder.error() != serve::FrameError::kNone) return false;
  }
  return true;
}

/// Restricts the calling thread, and the threads it creates from now on, to
/// `cpus`; a no-op on machines with fewer than 4 CPUs. The serve workload
/// gives the generator and the two server workers CPUs of their own, so
/// its throughput does not depend on where the scheduler places them.
void pin_to(std::initializer_list<int> cpus) {
  if (std::thread::hardware_concurrency() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Appends request `id` (batch id mod kBatchPool) to `c`'s output.
void enqueue(Connection& c, const std::vector<std::uint32_t>& batches,
             std::uint64_t id) {
  const std::size_t b = id % kBatchPool;
  c.out += serve::encode_request(
      id, std::span<const std::uint32_t>(batches.data() + b * kBatch, kBatch));
}

struct Phase {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t other = 0;  ///< non-OK, non-SHED statuses and stray ids
  std::uint64_t unanswered = 0;
  bool transport_error = false;
  bool backlogged = false;  ///< stopped early: kMaxBacklog unanswered
  std::vector<double> latency_us;
  std::vector<double> late_us;
  double generator_cpu_s = 0.0;

  [[nodiscard]] bool clean() const {
    return shed == 0 && other == 0 && unanswered == 0 && !transport_error &&
           !backlogged;
  }
};

/// Open-loop phase: `rate` requests/s for `seconds`, alternating the
/// connections, then up to `grace_s` for stragglers. Request ids start at
/// `first_id` and never repeat across phases. Once kMaxBacklog requests
/// are unanswered the backlog is growing: the phase stops sending and only
/// collects what is in flight, so the next phase starts from an idle server.
Phase drive(Connections& conns, const std::vector<std::uint32_t>& batches,
            std::uint64_t first_id, double rate, double seconds, double grace_s) {
  pin_to({1});
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const double cpu0 = thread_cpu_seconds();
  Phase phase;
  const auto total = static_cast<std::size_t>(rate * seconds);
  std::vector<char> answered(total, 0);
  phase.latency_us.reserve(total);
  phase.late_us.reserve(total);
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  auto due_at = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / rate));
  };
  const auto deadline =
      due_at(total) + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(grace_s));
  std::size_t next = 0;
  std::size_t received = 0;
  auto on_frame = [&](int, const serve::ResponseFrame& frame) {
    const std::uint64_t i = frame.request_id - first_id;
    if (frame.request_id < first_id || i >= total || answered[i] != 0) {
      ++phase.other;
      return;
    }
    answered[i] = 1;
    ++received;
    phase.latency_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - due_at(i)).count());
    if (frame.status == serve::ResponseStatus::kOk) {
      ++phase.ok;
    } else if (frame.status == serve::ResponseStatus::kShed) {
      ++phase.shed;
    } else {
      ++phase.other;
    }
  };
  std::size_t limit = total;
  while (received < limit) {
    const auto now = Clock::now();
    for (; next < limit && due_at(next) <= now; ++next, ++phase.sent) {
      phase.late_us.push_back(
          std::chrono::duration<double, std::micro>(now - due_at(next)).count());
      enqueue(conns[next % 2], batches, first_id + next);
    }
    if (next - received > kMaxBacklog) {
      phase.backlogged = true;
      limit = next;
    }
    if (now >= deadline) break;
    if (!exchange(conns, (next < limit ? due_at(next) : deadline) - now, on_frame)) {
      phase.transport_error = true;
      break;
    }
  }
  phase.unanswered = next - received;
  phase.generator_cpu_s = thread_cpu_seconds() - cpu0;
  return phase;
}

struct Saturation {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  ///< shed, rejected, stray or unanswered
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU: generator plus server workers
  /// When each kWindowRequests-th answer arrived.
  std::vector<Clock::time_point> marks;

  /// Wall seconds per answered request in the fast tail of the windows
  /// (their 10th percentile). Steal and other tenants only ever add time
  /// to a window, so the fast windows carry the serving path's own cost;
  /// in six runs on a 4-vCPU guest with 2-6 s of steal each, the median
  /// window's run-to-run spread was 0.27 of its median, the 10th
  /// percentile's 0.12.
  [[nodiscard]] double seconds_per_request() const {
    std::vector<double> windows;
    for (std::size_t i = 1; i < marks.size(); ++i) {
      windows.push_back(std::chrono::duration<double>(marks[i] - marks[i - 1]).count() /
                        static_cast<double>(kWindowRequests));
    }
    return quantile(windows, 0.1);
  }
};

/// Closed loop with `window` requests in flight per connection for
/// `seconds`: neither side waits for a wakeup between requests, so the
/// time and CPU per request are the serving path's own cost.
Saturation saturate(Connections& conns, const std::vector<std::uint32_t>& batches,
                    std::uint64_t first_id, double seconds, std::size_t window) {
  pin_to({1});
  Saturation sat;
  std::array<std::size_t, 2> in_flight{0, 0};
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  const auto deadline = stop + std::chrono::seconds(2);
  auto on_frame = [&](int k, const serve::ResponseFrame& frame) {
    std::size_t& pending = in_flight[static_cast<std::size_t>(k)];
    if (frame.request_id < first_id || pending == 0) {
      ++sat.failed;  // a late answer to an earlier phase
      return;
    }
    --pending;
    if (frame.status != serve::ResponseStatus::kOk) {
      ++sat.failed;
    } else if (++sat.ok % kWindowRequests == 0) {
      sat.marks.push_back(Clock::now());
    }
  };
  for (auto now = start; now < deadline; now = Clock::now()) {
    for (int k = 0; k < 2 && now < stop; ++k) {
      for (; in_flight[k] < window; ++in_flight[k], ++sat.sent) {
        enqueue(conns[k], batches, first_id + sat.sent);
      }
    }
    if (now >= stop && in_flight[0] + in_flight[1] == 0) break;
    if (!exchange(conns, std::chrono::milliseconds(100), on_frame)) break;
  }
  sat.wall_s = seconds_since(start);
  sat.cpu_s = process_cpu_seconds() - cpu0;
  sat.failed += in_flight[0] + in_flight[1];
  return sat;
}

/// Sends request `id` on connection 0 and waits for its answer; answers to
/// an abandoned ladder rung that arrive meanwhile are skipped.
std::optional<serve::ResponseFrame> round_trip(
    Connections& conns, const std::vector<std::uint32_t>& batches,
    std::uint64_t id) {
  enqueue(conns[0], batches, id);
  std::optional<serve::ResponseFrame> answer;
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  while (!answer && Clock::now() < deadline) {
    if (!exchange(conns, std::chrono::milliseconds(100),
                  [&](int, const serve::ResponseFrame& frame) {
                    if (frame.request_id == id) answer = frame;
                  })) {
      break;
    }
  }
  return answer;
}

}  // namespace

Result run_serve(const RunOptions& options) {
  Result result;
  const ServeShape shape = options.smoke ? kSmokeShape : kFullShape;
  // One pinned scenario: --seed drives the request stream.
  const analysis::ScenarioConfig config = shaped_config(
      kServeScenarioSeed, shape.ases, shape.probes, false, shape.period_days);
  const std::string base_path = options.work_dir + "/serve_base.cache";
  const std::string next_path = options.work_dir + "/serve_next.cache";
  const std::string snapshot_path = options.work_dir + "/served.snapshot";
  const std::string delta_path = options.work_dir + "/next_day.delta";

  Tracer tracer;
  serve::LookupEngine engine;
  std::shared_ptr<const serve::CompiledSnapshot> served;
  std::uint64_t next_fingerprint = 0;
  std::size_t delta_upserts = 0;
  double build_ms = 0.0, diff_ms = 0.0;
  const double setup_s = median_setup_seconds(3, [&] {
    tracer.span("serve.setup", [&] {
      std::remove(base_path.c_str());
      std::remove(next_path.c_str());
      const analysis::CachedScenario base =
          analysis::run_scenario_cached(config, base_path);
      auto start = Clock::now();
      const serve::CompiledSnapshot built = build_snapshot(base);
      build_ms = seconds_since(start) * 1000.0;
      result.gate(built.save(snapshot_path), "snapshot save failed");
      std::string error;
      std::optional<serve::CompiledSnapshot> loaded =
          serve::CompiledSnapshot::load(snapshot_path, &error);
      result.gate(loaded && loaded->fingerprint() == built.fingerprint(),
                  "snapshot save/load round trip: " + error);
      const analysis::EvolvedScenario evolved =
          analysis::evolve_scenario_cached(config, 1, base_path, next_path);
      result.gate(evolved.path == analysis::EvolvePath::kResumed,
                  "serve set-up evolve fell back to a fresh run");
      const serve::CompiledSnapshot next = build_snapshot(evolved.scenario);
      start = Clock::now();
      const serve::SnapshotDelta delta = serve::SnapshotBuilder::diff(built, next);
      diff_ms = seconds_since(start) * 1000.0;
      result.gate(delta.save(delta_path), "delta save failed");
      next_fingerprint = next.fingerprint();
      delta_upserts = delta.upsert_count();
      served = std::make_shared<const serve::CompiledSnapshot>(
          loaded ? std::move(*loaded) : built);
      engine.publish(served);
    });
  });
  result.metrics["setup_s"] = setup_s;

  // Request batches: a seeded listed/reused/random mix (40/30/30).
  const serve::SamplePools pools = serve::sample_pools(*served);
  std::vector<std::uint32_t> batches(kBatchPool * kBatch);
  {
    net::Rng rng = net::substream(options.seed, kRequestSalt, 0);
    serve::fill_batch(rng, pools, 0.4, 0.3, batches);
  }

  serve::ServerConfig server_config;
  server_config.workers = 2;
  pin_to({2, 3});  // the workers start in the constructor and inherit this
  serve::LookupServer server(engine, server_config);
  pin_to({0});
  Connections conns;
  for (Connection& c : conns) {
    c.fd = server.connect_client();
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  std::uint64_t next_id = 1;

  // Nominal phase with the delta reload landing at its midpoint.
  const double nominal_s = kNominalShare * options.seconds;
  const double rung_s = kLadderShare * options.seconds / shape.rungs;
  Phase nominal;
  double reload_ms = 0.0;
  bool reloaded = false;
  const double main_cpu0 = thread_cpu_seconds();
  const double cpu0 = process_cpu_seconds();
  tracer.span("serve.nominal", [&] {
    std::thread generator([&] {
      nominal = drive(conns, batches, next_id, shape.nominal_rps, nominal_s, 1.0);
    });
    std::this_thread::sleep_for(std::chrono::duration<double>(nominal_s / 2));
    tracer.span("serve.reload", [&] {
      const auto start = Clock::now();
      std::string error;
      reloaded = server.reload(delta_path, &error);
      reload_ms = seconds_since(start) * 1000.0;
    });
    generator.join();
  });
  const double server_cpu_s = process_cpu_seconds() - cpu0 -
                              nominal.generator_cpu_s -
                              (thread_cpu_seconds() - main_cpu0);
  next_id += nominal.sent;

  result.attempted += nominal.sent;
  result.failed += nominal.shed + nominal.other + nominal.unanswered;
  result.gate(!nominal.transport_error, "transport error at the nominal rate");
  result.gate(!nominal.backlogged, "backlog grew at the nominal rate");
  result.gate(reloaded && server.reload_failures() == 0, "mid-run delta reload failed");
  result.gate(engine.snapshot()->fingerprint() == next_fingerprint,
              "served snapshot after the delta != the rebuilt next-day snapshot");

  // Saturation: the cost per request when the pipeline never idles.
  Saturation sat;
  reset_peak_rss();
  tracer.span("serve.saturation", [&] {
    std::thread generator([&] {
      sat = saturate(conns, batches, next_id, kSaturationShare * options.seconds,
                     kWindow);
    });
    generator.join();
  });
  const double peak_mb = peak_rss_mb();
  next_id += sat.sent;
  result.attempted += sat.sent;
  result.failed += sat.failed;

  // Fixed ladder: nominal x 2, 4, 8, ... until a rung misses the limit.
  double max_rps = nominal.clean() && quantile(nominal.latency_us, 0.99) <= kLatencyLimitUs
                       ? shape.nominal_rps
                       : 0.0;
  for (int k = 1; k <= shape.rungs && max_rps > 0.0; ++k) {
    const double rate = shape.nominal_rps * static_cast<double>(1 << k);
    Phase rung;
    tracer.span("serve.rung", [&] {
      std::thread generator(
          [&] { rung = drive(conns, batches, next_id, rate, rung_s, 0.5); });
      generator.join();
    });
    next_id += rung.sent;
    const bool kept_up = rung.clean() &&
                         quantile(rung.latency_us, 0.99) <= kLatencyLimitUs &&
                         quantile(rung.late_us, 0.99) <= kLatencyLimitUs;
    if (!kept_up || rung.transport_error) break;
    max_rps = rate;
  }

  // Closed loop on connection 0: every verdict word must match the
  // in-process engine serving the same (delta-applied) snapshot.
  tracer.span("serve.closed_loop", [&] {
    std::vector<net::Ipv4Address> queries(kBatch);
    std::vector<serve::Verdict> expected(kBatch);
    for (int r = 0; r < shape.closed_loop_requests; ++r, ++next_id) {
      const std::optional<serve::ResponseFrame> frame =
          round_trip(conns, batches, next_id);
      const std::size_t b = next_id % kBatchPool;
      for (std::size_t i = 0; i < kBatch; ++i) {
        queries[i] = net::Ipv4Address(batches[b * kBatch + i]);
      }
      engine.verdict_batch(queries, expected);
      bool match = frame && frame->status == serve::ResponseStatus::kOk &&
                   frame->verdicts.size() == kBatch;
      for (std::size_t i = 0; match && i < kBatch; ++i) {
        match = frame->verdicts[i] == expected[i].bits;
      }
      ++result.attempted;
      if (!match) ++result.failed;
    }
  });

  for (Connection& c : conns) ::shutdown(c.fd, SHUT_WR);
  server.drain();
  for (Connection& c : conns) ::close(c.fd);
  const serve::ServerStats stats = server.stats();
  result.gate(stats.reconciles(), "server ledger: served + shed + rejected != submitted");
  result.gate(stats.submitted_valid == next_id - 1,
              "server saw a different number of requests than were sent");
  result.gate(stats.rejected_total() == 0, "server rejected well-formed frames");

  const double p50 = quantile(nominal.latency_us, 0.5);
  const double p99 = quantile(nominal.latency_us, 0.99);
  const double samples = static_cast<double>(nominal.latency_us.size());
  result.gate(samples * 0.01 >= 10.0, "fewer than 10 samples beyond p99");
  result.metrics["op_s"] = sat.seconds_per_request();
  result.metrics["op_cpu_s"] =
      sat.ok > 0 ? sat.cpu_s / static_cast<double>(sat.ok) : 0.0;
  result.metrics["peak_rss_mb"] = peak_mb;
  result.context["lookup_samples"] = samples;
  result.context["lookup_p50_us"] = p50;
  result.context["saturation_rps"] = sat.ok / std::max(sat.wall_s, 1e-9);
  result.context["lookup_p99_us"] = p99;
  result.context["max_rps"] = max_rps;

  if (options.trace) {
    Samples& l = result.layers;
    l.add("serve.lookup_p50_us", p50);
    l.add("serve.lookup_p99_us", p99);
    l.add("serve.lookup_samples", samples);
    l.add("serve.gen_late_p99_us", quantile(nominal.late_us, 0.99));
    l.add("serve.max_rps", max_rps);
    l.add("serve.server_cpu_us",
          nominal.ok > 0 ? server_cpu_s * 1e6 / static_cast<double>(nominal.ok) : 0.0);
    l.add("serve.shed", static_cast<double>(stats.shed_total()));
    l.add("serve.rejected", static_cast<double>(stats.rejected_total()));
    l.add("serve.reload_ms", reload_ms);
    l.add("serve.build_ms", build_ms);
    l.add("serve.diff_ms", diff_ms);
    l.add("serve.delta_upserts", static_cast<double>(delta_upserts));
    l.add("serve.entries", static_cast<double>(engine.snapshot()->entry_count()));
    probe_lookup_layer(*engine.snapshot(), options.seed, l);
    if (!options.trace_out.empty()) tracer.write_chrome(options.trace_out);
  }
  return result;
}

}  // namespace perfbench
