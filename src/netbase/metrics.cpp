#include "netbase/metrics.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "netbase/json.h"

namespace reuse::net::metrics {

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  const auto head_ok = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head_ok(name.front())) return false;
  for (const char c : name) {
    if (!head_ok(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

// Prometheus HELP text escapes only backslash and newline.
std::string prometheus_escape_help(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::logic_error("metrics: histogram needs at least one bound");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::logic_error(
          "metrics: histogram bounds must be strictly increasing");
    }
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

void Registry::check_kind(std::string_view name, Kind kind) const {
  if (!valid_metric_name(name)) {
    throw std::logic_error("metrics: invalid metric name \"" +
                           std::string(name) + '"');
  }
  const auto it = kinds_.find(name);
  if (it != kinds_.end() && it->second != kind) {
    throw std::logic_error("metrics: \"" + std::string(name) +
                           "\" already registered as a different kind");
  }
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  check_kind(name, Kind::kCounter);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
    kinds_.emplace(it->first, Kind::kCounter);
    help_.emplace(it->first, std::string(help));
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  check_kind(name, Kind::kGauge);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
    kinds_.emplace(it->first, Kind::kGauge);
    help_.emplace(it->first, std::string(help));
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               std::vector<std::int64_t> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  check_kind(name, Kind::kHistogram);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
    kinds_.emplace(it->first, Kind::kHistogram);
    help_.emplace(it->first, std::string(help));
  }
  return *it->second;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

void Registry::write_json(JsonWriter& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out.begin_object().key("counters").begin_object();
  for (const auto& [name, counter] : counters_) {
    out.field(name, counter->value());
  }
  out.end().key("gauges").begin_object();
  for (const auto& [name, gauge] : gauges_) out.field(name, gauge->value());
  out.end().key("histograms").begin_object();
  for (const auto& [name, histogram] : histograms_) {
    out.key(name).begin_object().key("buckets").begin_array();
    const auto& bounds = histogram->bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      out.begin_object()
          .field("le", bounds[i])
          .field("count", histogram->bucket_count(i))
          .end();
    }
    out.end()
        .field("overflow", histogram->bucket_count(bounds.size()))
        .field("sum", histogram->sum())
        .field("count", histogram->count())
        .end();
  }
  out.end().end();
}

std::string Registry::to_json() const {
  JsonWriter out;
  write_json(out);
  return out.str();
}

std::string Registry::to_prometheus() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    out << "# HELP " << name << ' '
        << prometheus_escape_help(help_.at(name)) << '\n';
    out << "# TYPE " << name << " counter\n";
    out << name << ' ' << counter->value() << '\n';
  }
  for (const auto& [name, gauge] : gauges_) {
    out << "# HELP " << name << ' '
        << prometheus_escape_help(help_.at(name)) << '\n';
    out << "# TYPE " << name << " gauge\n";
    out << name << ' ' << gauge->value() << '\n';
  }
  for (const auto& [name, histogram] : histograms_) {
    out << "# HELP " << name << ' '
        << prometheus_escape_help(help_.at(name)) << '\n';
    out << "# TYPE " << name << " histogram\n";
    const auto& bounds = histogram->bounds();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += histogram->bucket_count(i);
      out << name << "_bucket{le=\"" << bounds[i] << "\"} " << cumulative
          << '\n';
    }
    cumulative += histogram->bucket_count(bounds.size());
    out << name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
    out << name << "_sum " << histogram->sum() << '\n';
    out << name << "_count " << histogram->count() << '\n';
  }
  return out.str();
}

std::vector<std::pair<std::string, std::int64_t>> Registry::flat_values(
    std::string_view exclude_prefix) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto excluded = [&](std::string_view name) {
    return !exclude_prefix.empty() &&
           name.substr(0, exclude_prefix.size()) == exclude_prefix;
  };
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (const auto& [name, counter] : counters_) {
    if (excluded(name)) continue;
    out.emplace_back(name, static_cast<std::int64_t>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    if (excluded(name)) continue;
    out.emplace_back(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    if (excluded(name)) continue;
    const auto& bounds = histogram->bounds();
    for (std::size_t i = 0; i <= bounds.size(); ++i) {
      out.emplace_back(
          name + "_bucket_" +
              (i < bounds.size() ? std::to_string(bounds[i])
                                 : std::string("inf")),
          static_cast<std::int64_t>(histogram->bucket_count(i)));
    }
    out.emplace_back(name + "_sum", histogram->sum());
    out.emplace_back(name + "_count",
                     static_cast<std::int64_t>(histogram->count()));
  }
  // The three per-kind maps are each sorted; a final sort merges them into
  // one name-ordered list.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace reuse::net::metrics
