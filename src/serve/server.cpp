#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>

#include "serve/frame.h"

namespace reuse::serve {
namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

LookupdMetrics& lookupd_metrics() {
  static LookupdMetrics metrics{
      net::metrics::counter("lookupd_frames_submitted_total",
                            "well-formed request frames decoded"),
      net::metrics::counter("lookupd_frames_served_total",
                            "request frames answered with OK verdicts"),
      net::metrics::counter("lookupd_frames_shed_total",
                            "request frames answered SHED (overload, "
                            "deadline, or eviction)"),
      net::metrics::counter("lookupd_frames_rejected_total",
                            "invalid frames (torn/garbage/oversized)"),
      net::metrics::counter("lookupd_clients_evicted_total",
                            "sessions evicted for stalling or not reading"),
      net::metrics::counter("lookupd_reloads_total",
                            "snapshot hot reloads published under load"),
      net::metrics::counter("lookupd_reload_failures_total",
                            "reload attempts rejected; last-good kept"),
  };
  return metrics;
}

/// One accepted request waiting on a session's bounded queue.
struct PendingRequest {
  std::uint64_t request_id = 0;
  std::vector<std::uint32_t> addresses;
  Clock::time_point arrival;
};

/// One client connection, owned exclusively by its worker thread.
struct LookupServer::Session {
  int fd = -1;
  RequestDecoder decoder;
  std::deque<PendingRequest> queue;
  std::string out;
  std::size_t out_pos = 0;
  Clock::time_point last_byte = Clock::now();
  bool open = true;
  /// Clean EOF seen (client shutdown_write): finish the queue and flush
  /// before closing, so a half-closed client still gets every answer it
  /// is owed.
  bool read_closed = false;

  [[nodiscard]] bool has_output() const { return out_pos < out.size(); }
};

struct LookupServer::Worker {
  std::thread thread;
  int wake_read = -1;
  int wake_write = -1;
  std::mutex inbox_mutex;
  std::vector<int> inbox;  ///< fds of freshly connected sessions
  std::vector<std::unique_ptr<Session>> sessions;
};

LookupServer::LookupServer(LookupEngine& engine, ServerConfig config)
    : engine_(engine), config_(config) {
  const int workers = std::max(config_.workers, 1);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    auto worker = std::make_unique<Worker>();
    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) == 0) {
      set_nonblocking(pipe_fds[0]);
      set_nonblocking(pipe_fds[1]);
      worker->wake_read = pipe_fds[0];
      worker->wake_write = pipe_fds[1];
    }
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    Worker* raw = worker.get();
    worker->thread = std::thread([this, raw] { worker_loop(*raw); });
  }
}

LookupServer::~LookupServer() { drain(); }

void LookupServer::wake(Worker& worker) {
  if (worker.wake_write < 0) return;
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(worker.wake_write, &byte, 1);
}

int LookupServer::connect_client() {
  if (draining_.load(std::memory_order_acquire)) return -1;
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return -1;
  set_nonblocking(fds[0]);  // server end; the client end stays blocking
  Worker& shard = *workers_[next_shard_.fetch_add(
                               1, std::memory_order_relaxed) %
                           workers_.size()];
  {
    const std::lock_guard<std::mutex> lock(shard.inbox_mutex);
    shard.inbox.push_back(fds[0]);
  }
  wake(shard);
  return fds[1];
}

bool LookupServer::reload(const std::string& path, std::string* error) {
  const bool ok = engine_.reload(path, error);
  (ok ? lookupd_metrics().reloads : lookupd_metrics().reload_failures)
      .increment();
  return ok;
}

ServerStats LookupServer::stats() const {
  ServerStats out;
  out.submitted_valid = submitted_valid_.load(std::memory_order_relaxed);
  out.served = served_.load(std::memory_order_relaxed);
  out.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  out.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  out.shed_evicted = shed_evicted_.load(std::memory_order_relaxed);
  out.rejected_torn = rejected_torn_.load(std::memory_order_relaxed);
  out.rejected_garbage = rejected_garbage_.load(std::memory_order_relaxed);
  out.rejected_oversized =
      rejected_oversized_.load(std::memory_order_relaxed);
  out.clients_evicted = clients_evicted_.load(std::memory_order_relaxed);
  out.served_listed = served_listed_.load(std::memory_order_relaxed);
  out.served_reused = served_reused_.load(std::memory_order_relaxed);
  return out;
}

void LookupServer::drain() {
  const std::lock_guard<std::mutex> lock(drain_mutex_);
  if (drained_) return;
  draining_.store(true, std::memory_order_release);
  for (auto& worker : workers_) wake(*worker);
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
    if (worker->wake_read >= 0) ::close(worker->wake_read);
    if (worker->wake_write >= 0) ::close(worker->wake_write);
  }
  drained_ = true;
}

void LookupServer::close_session(Session& session) {
  if (!session.open) return;
  // Accepted-but-unserved requests must not vanish from the ledger: they
  // are shed by eviction/close, the third leg of the no-silent-drops law.
  if (!session.queue.empty()) {
    bump(shed_evicted_, session.queue.size());
    lookupd_metrics().shed.add(session.queue.size());
    session.queue.clear();
  }
  ::close(session.fd);
  session.fd = -1;
  session.open = false;
}

void LookupServer::handle_frame(Session& session, RequestFrame frame) {
  bump(submitted_valid_);
  lookupd_metrics().submitted.increment();
  if (session.queue.size() >= config_.max_queue) {
    // Explicit backpressure: the queue is bounded and the client is told
    // so, immediately, with a SHED response carrying its request id.
    bump(shed_overload_);
    lookupd_metrics().shed.increment();
    session.out += encode_response(frame.request_id, ResponseStatus::kShed,
                                   {});
    return;
  }
  PendingRequest pending;
  pending.request_id = frame.request_id;
  pending.addresses = std::move(frame.addresses);
  pending.arrival = Clock::now();
  session.queue.push_back(std::move(pending));
}

void LookupServer::read_session(Session& session) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(session.fd, buf, sizeof buf);
    if (n > 0) {
      session.last_byte = Clock::now();
      session.decoder.feed({buf, static_cast<std::size_t>(n)});
      while (auto frame = session.decoder.next()) {
        handle_frame(session, *std::move(frame));
      }
      switch (session.decoder.error()) {
        case FrameError::kNone:
          break;
        case FrameError::kOversized:
          bump(rejected_oversized_);
          lookupd_metrics().rejected.increment();
          close_session(session);
          return;
        default:
          // kBadMagic / kBadLength / kBadCount: the stream desynced; no
          // later byte can be trusted to start a frame.
          bump(rejected_garbage_);
          lookupd_metrics().rejected.increment();
          close_session(session);
          return;
      }
      continue;
    }
    if (n == 0) {  // orderly EOF
      if (session.decoder.mid_frame()) {
        // Torn write: the stream ended inside a frame. Nothing valid can
        // be pending on such a connection worth keeping it open for.
        bump(rejected_torn_);
        lookupd_metrics().rejected.increment();
        close_session(session);
      } else {
        // Clean half-close: serve what was accepted, then close.
        session.read_closed = true;
      }
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    close_session(session);  // transport error
    return;
  }
}

void LookupServer::process_queue(Session& session,
                                 std::vector<net::Ipv4Address>& scratch,
                                 std::vector<Verdict>& verdicts) {
  const auto deadline = std::chrono::milliseconds(
      config_.deadline_ms > 0 ? config_.deadline_ms : 0);
  while (!session.queue.empty()) {
    PendingRequest& pending = session.queue.front();
    if (config_.deadline_ms > 0 &&
        Clock::now() - pending.arrival > deadline) {
      bump(shed_deadline_);
      lookupd_metrics().shed.increment();
      session.out += encode_response(pending.request_id,
                                     ResponseStatus::kShed, {});
      session.queue.pop_front();
      continue;
    }
    scratch.clear();
    scratch.reserve(pending.addresses.size());
    for (const std::uint32_t value : pending.addresses) {
      scratch.emplace_back(value);
    }
    verdicts.resize(scratch.size());
    engine_.verdict_batch(scratch, verdicts);
    std::uint64_t listed = 0;
    std::uint64_t reused = 0;
    static_assert(sizeof(Verdict) == sizeof(std::uint32_t));
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      listed += verdicts[i].listed() ? 1 : 0;
      reused += verdicts[i].reused() ? 1 : 0;
    }
    session.out += encode_response(
        pending.request_id, ResponseStatus::kOk,
        {reinterpret_cast<const std::uint32_t*>(verdicts.data()),
         verdicts.size()});
    bump(served_);
    lookupd_metrics().served.increment();
    if (listed != 0) bump(served_listed_, listed);
    if (reused != 0) bump(served_reused_, reused);
    session.queue.pop_front();
  }
}

void LookupServer::flush_output(Session& session) {
  while (session.has_output()) {
    // MSG_NOSIGNAL: a hostile client that already closed its end must
    // produce EPIPE here, never a process-killing SIGPIPE.
    const ssize_t n =
        ::send(session.fd, session.out.data() + session.out_pos,
               session.out.size() - session.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      session.out_pos += static_cast<std::size_t>(n);
      session.last_byte = Clock::now();  // flush progress counts as liveness
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_session(session);  // peer closed or transport error
    return;
  }
  if (!session.has_output()) {
    session.out.clear();
    session.out_pos = 0;
  } else if (session.out.size() - session.out_pos >
             config_.max_outbound_bytes) {
    // The client stopped reading; buffering forever is how one slow client
    // takes down a shard. Evict.
    bump(clients_evicted_);
    lookupd_metrics().evicted.increment();
    close_session(session);
  }
}

void LookupServer::worker_loop(Worker& worker) {
  std::vector<pollfd> pfds;
  std::vector<net::Ipv4Address> scratch;
  std::vector<Verdict> verdicts;
  // Tick granularity for deadline/stall checks; fine-grained enough for
  // test timeouts, coarse enough to stay idle-cheap.
  const int tick_ms = 10;

  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(worker.inbox_mutex);
      for (const int fd : worker.inbox) {
        auto session = std::make_unique<Session>();
        session->fd = fd;
        session->last_byte = Clock::now();
        worker.sessions.push_back(std::move(session));
      }
      worker.inbox.clear();
    }
    const bool draining = draining_.load(std::memory_order_acquire);

    pfds.clear();
    pfds.push_back({worker.wake_read, POLLIN, 0});
    for (const auto& session : worker.sessions) {
      short events = 0;
      // While draining, accepted work is finished but nothing new is read.
      if (!draining && !session->read_closed) events |= POLLIN;
      if (session->has_output()) events |= POLLOUT;
      pfds.push_back({session->fd, events, 0});
    }
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), tick_ms);
    if (worker.wake_read >= 0 && (pfds[0].revents & POLLIN) != 0) {
      char sink[64];
      while (::read(worker.wake_read, sink, sizeof sink) > 0) {
      }
    }

    std::size_t index = 1;
    for (const auto& session : worker.sessions) {
      const short revents = pfds[index++].revents;
      if (!session->open) continue;
      if (!draining && !session->read_closed &&
          (revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_session(*session);
      }
    }
    for (const auto& session : worker.sessions) {
      if (!session->open) continue;
      process_queue(*session, scratch, verdicts);
      flush_output(*session);
      // Slow-loris: a frame started but not finished within the stall
      // budget means the client is holding a parser hostage on purpose
      // (or is broken); either way the session goes.
      if (session->open && config_.stall_timeout_ms > 0 &&
          session->decoder.mid_frame() &&
          Clock::now() - session->last_byte >
              std::chrono::milliseconds(config_.stall_timeout_ms)) {
        bump(clients_evicted_);
        lookupd_metrics().evicted.increment();
        close_session(*session);
      }
      // Half-closed and fully answered: nothing left to owe this client.
      if (session->open && session->read_closed && session->queue.empty() &&
          !session->has_output()) {
        close_session(*session);
      }
      // A drain must terminate even if a client holds its fd open without
      // ever reading its answers: stalled unflushable output is an
      // eviction, not a hang.
      if (session->open && draining && session->has_output() &&
          config_.stall_timeout_ms > 0 &&
          Clock::now() - session->last_byte >
              std::chrono::milliseconds(config_.stall_timeout_ms)) {
        bump(clients_evicted_);
        lookupd_metrics().evicted.increment();
        close_session(*session);
      }
    }
    std::erase_if(worker.sessions,
                  [](const std::unique_ptr<Session>& s) { return !s->open; });

    if (draining) {
      bool quiet = true;
      for (const auto& session : worker.sessions) {
        if (!session->queue.empty() || session->has_output()) {
          quiet = false;
          break;
        }
      }
      if (quiet) {
        for (const auto& session : worker.sessions) {
          close_session(*session);
        }
        worker.sessions.clear();
        return;
      }
    }
  }
}

}  // namespace reuse::serve
