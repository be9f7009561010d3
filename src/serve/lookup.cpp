#include "serve/lookup.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "serve/epoch.h"

namespace reuse::serve {

ServeMetrics& serve_metrics() {
  static ServeMetrics metrics{
      net::metrics::counter("serve_queries_total",
                            "single-address verdicts served"),
      net::metrics::counter("serve_batches_total", "verdict_batch calls"),
      net::metrics::counter("serve_batch_queries_total",
                            "addresses answered through batches"),
      net::metrics::counter("serve_listed_total",
                            "verdicts carrying the listed bit"),
      net::metrics::counter("serve_reused_total",
                            "verdicts carrying a reuse bit (NATed/dynamic)"),
      net::metrics::counter("serve_snapshot_swaps_total",
                            "snapshots published to the engine"),
      net::metrics::gauge("serve_snapshot_entries",
                          "entry count of the live snapshot"),
      net::metrics::histogram(
          "serve_batch_micros",
          "load-generator request latency from scheduled send to answer "
          "read (scheduling-dependent, excluded from the determinism "
          "contract like pool_)",
          {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
           20000, 50000, 100000}),
  };
  return metrics;
}

LookupEngine::~LookupEngine() {
  // Whoever still held a raw pointer from a read section must be gone
  // before owner_ (and with it the artifact) is destroyed.
  EpochDomain::instance().synchronize();
}

std::shared_ptr<const CompiledSnapshot> LookupEngine::snapshot() const {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  return owner_;
}

void LookupEngine::publish(std::shared_ptr<const CompiledSnapshot> snapshot) {
  if (snapshot == nullptr) {
    throw std::invalid_argument(
        "LookupEngine::publish: null snapshot (publish an empty "
        "CompiledSnapshot to serve nothing)");
  }
  ServeMetrics& metrics = serve_metrics();
  metrics.entries.set(static_cast<std::int64_t>(snapshot->entry_count()));
  std::shared_ptr<const CompiledSnapshot> superseded;
  {
    const std::lock_guard<std::mutex> lock(publish_mutex_);
    live_.store(snapshot.get(), std::memory_order_seq_cst);
    superseded = std::exchange(owner_, std::move(snapshot));
    // Wait out every reader that could have loaded the superseded pointer.
    // Readers entering from here on can only see the new pointer, so after
    // this returns the old artifact has zero readers, forever.
    EpochDomain::instance().synchronize();
  }
  // `superseded` drops here, outside the critical section: if this was the
  // last reference, the whole artifact deallocates with no reader in sight.
  metrics.swaps.increment();
}

Verdict LookupEngine::verdict(net::Ipv4Address address) const {
  ServeMetrics& metrics = serve_metrics();
  metrics.queries.increment();
  const ReadGuard guard;
  const CompiledSnapshot* pinned = live_.load(std::memory_order_seq_cst);
  if (pinned == nullptr) return Verdict{};
  const Verdict v = pinned->verdict(address);
  if (v.listed()) metrics.listed.increment();
  if (v.reused()) metrics.reused.increment();
  return v;
}

void LookupEngine::verdict_batch(std::span<const net::Ipv4Address> queries,
                                 std::span<Verdict> out) const {
  ServeMetrics& metrics = serve_metrics();
  metrics.batches.increment();
  metrics.batch_queries.add(queries.size());
  std::uint64_t listed = 0;
  std::uint64_t reused = 0;
  {
    const ReadGuard guard;
    const CompiledSnapshot* pinned = live_.load(std::memory_order_seq_cst);
    if (pinned == nullptr) {
      for (std::size_t i = 0; i < queries.size(); ++i) out[i] = Verdict{};
      return;
    }
    pinned->verdict_batch(queries, out);
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    listed += out[i].listed() ? 1 : 0;
    reused += out[i].reused() ? 1 : 0;
  }
  if (listed != 0) metrics.listed.add(listed);
  if (reused != 0) metrics.reused.add(reused);
}

bool LookupEngine::reload(const std::string& path, std::string* error) {
  const std::lock_guard<std::mutex> lock(reload_mutex_);
  std::string why;
  std::optional<CompiledSnapshot> next;
  if (file_magic(path) == kSnapshotDeltaMagic) {
    if (auto delta = SnapshotDelta::load(path, &why)) {
      if (const std::shared_ptr<const CompiledSnapshot> base = snapshot()) {
        next = delta->apply(*base, &why);
      } else {
        why = "delta apply failed: no live snapshot to apply it to";
      }
    }
  } else {
    next = CompiledSnapshot::load(path, &why);
  }
  if (!next) {
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    if (error != nullptr) *error = std::move(why);
    return false;
  }
  publish(std::make_shared<const CompiledSnapshot>(*std::move(next)));
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace reuse::serve
