// Discrete-event scheduler driving every time-based simulation (DHT churn,
// crawler cooldowns, Atlas lease renewals, blocklist snapshots).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "netbase/sim_time.h"

namespace reuse::sim {

/// A minimal discrete-event loop. Events fire in time order; ties fire in
/// scheduling order (a monotonically increasing sequence number breaks them),
/// which keeps runs deterministic.
class EventQueue {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] net::SimTime now() const { return now_; }

  void schedule_at(net::SimTime when, Action action);
  void schedule_after(net::Duration delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  /// Pops and runs the next event; returns false when the queue is empty.
  bool run_next();

  /// Runs every event scheduled strictly before `deadline`, then advances the
  /// clock to `deadline`.
  void run_until(net::SimTime deadline);

  /// Drains the queue completely (use only for workloads that terminate).
  void run_all();

  /// When the next pending event fires; nullopt when none is pending.
  [[nodiscard]] std::optional<net::SimTime> next_time() const {
    if (queue_.empty()) return std::nullopt;
    return queue_.top().when;
  }

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    net::SimTime when;
    std::uint64_t sequence;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  net::SimTime now_ = net::SimTime::epoch();
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace reuse::sim
