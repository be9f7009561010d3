// Shared machinery of the perfbench binary: clocks, per-op peak RSS,
// machine context, order statistics, the span tracer, the run's tally, and
// the forked, rotated timing of ops.
//
// Everything here measures the program from outside: spans wrap the
// benchmark's own calls into each layer's public functions, and nothing in
// the program is instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double cpu_clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
inline double process_cpu_seconds() {
  return cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
}
inline double thread_cpu_seconds() {
  return cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID);
}
/// CPU seconds of this process plus its reaped children (forked ops).
inline double total_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return process_cpu_seconds() + seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Returns freed heap to the kernel and resets the process's RSS high-water
/// mark to its current RSS, so the next peak_rss_mb() reads the peak of
/// what ran in between, not of earlier ops.
inline void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM of this process in MiB.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Steal time summed over all CPUs, in seconds, from /proc/stat.
inline double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};
  in >> cpu;
  for (std::uint64_t& field : fields) in >> field;
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(fields[7]) / static_cast<double>(hz)
                : 0.0;
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// In-memory span recorder. Spans nest by call order (a span begun while
/// another is open is its child); nothing is written until write_chrome().
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  template <typename Fn>
  decltype(auto) span(std::string name, Fn&& fn) {
    const int index = begin(std::move(name));
    struct Closer {
      Tracer* tracer;
      int index;
      ~Closer() { tracer->end(index); }
    } closer{this, index};
    return fn();
  }

  /// Opens a span and returns its index; end() must close it.
  int begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), parent, now_us(), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int index) {
    spans_[static_cast<std::size_t>(index)].end_us = now_us();
    open_.pop_back();
  }

  /// Index of the next span to be recorded: spans from here on belong to
  /// the op that starts now (see self_ms / total_ms).
  [[nodiscard]] std::size_t mark() const { return spans_.size(); }

  /// Self time per span name (duration minus the time its direct children
  /// cover), summed over the spans recorded since `from`.
  [[nodiscard]] std::map<std::string, double> self_ms(std::size_t from) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const int parent = spans_[i].parent;
      if (parent >= static_cast<int>(from)) {
        child_us[static_cast<std::size_t>(parent)] += duration_us(i);
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      out[spans_[i].name] += (duration_us(i) - child_us[i]) / 1000.0;
    }
    return out;
  }
  /// Inclusive duration per span name since `from`.
  [[nodiscard]] std::map<std::string, double> total_ms(std::size_t from) const {
    std::map<std::string, double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      out[spans_[i].name] += duration_us(i) / 1000.0;
    }
    return out;
  }

  /// Serializes the spans recorded since `from`, one "span ..." line each
  /// (read back by add_span_line in the process that forked this one).
  void write_spans(std::ostream& out, std::size_t from) const {
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "span " << s.name << ' ' << s.parent << ' ' << s.start_us << ' '
          << s.end_us << '\n';
    }
  }
  void add_span_line(std::istream& in) {
    Span s;
    in >> s.name >> s.parent >> s.start_us >> s.end_us;
    spans_.push_back(std::move(s));
  }

  /// Chrome trace-event JSON ("X" complete events), loadable in Perfetto
  /// or about:tracing. Parents are recorded in args for offline tools.
  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                    duration_us(i), i, s.parent);
      out << line;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  [[nodiscard]] double duration_us(std::size_t i) const {
    return spans_[i].end_us - spans_[i].start_us;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Per-layer samples of one traced op, from the spans recorded since
/// `mark` under the root span `root`: every other span name's self time as
/// "<name>_ms", the root's self time (the benchmark's own glue) as
/// trace.unattributed_ms, the root's duration as trace.op_ms, and that
/// minus the untraced twin's wall time as trace.overhead_ms. The "_ms"
/// self times plus trace.unattributed_ms sum to trace.op_ms.
inline std::map<std::string, double> span_samples(const Tracer& tracer,
                                                  std::size_t mark,
                                                  const std::string& root,
                                                  double untraced_s) {
  std::map<std::string, double> out;
  for (const auto& [name, ms] : tracer.self_ms(mark)) {
    out[name == root ? "trace.unattributed_ms" : name + "_ms"] = ms;
  }
  const double op_ms = tracer.total_ms(mark).at(root);
  out["trace.op_ms"] = op_ms;
  out["trace.overhead_ms"] = op_ms - untraced_s * 1000.0;
  return out;
}

/// Accumulates per-op samples of named metrics; reports their medians
/// (end-to-end) or means (per-layer).
class Samples {
 public:
  void add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  void add_all(const std::map<std::string, double>& values) {
    for (const auto& [name, value] : values) add(name, value);
  }
  [[nodiscard]] double median_of(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : median(it->second);
  }
  /// Means are additive: a traced op's layer self times sum to the op,
  /// and so do their means over the run's ops (see span_samples).
  [[nodiscard]] std::map<std::string, double> means() const {
    std::map<std::string, double> out;
    for (const auto& [name, values] : values_) {
      double sum = 0.0;
      for (const double value : values) sum += value;
      out[name] = sum / static_cast<double>(values.size());
    }
    return out;
  }
  /// One "sample <name> <value>" line per value.
  void write(std::ostream& out) const {
    for (const auto& [name, values] : values_) {
      for (const double value : values) {
        out << "sample " << name << ' ' << value << '\n';
      }
    }
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// One workload run's outcome: the gates' tally and the named metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metric values (reported with --trace 0).
  std::map<std::string, double> metrics;
  /// Per-op samples of per-layer metrics (reported with --trace 1).
  Samples layers;
  /// Context (machine, sample counts) printed on the line before the result.
  std::map<std::string, double> context;

  /// Counts one correctness gate; a failure is reported on stderr.
  bool gate(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: gate failed: %s\n", what.c_str());
    }
    return ok;
  }
};

/// Run-wide knobs shared by every workload.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;   ///< per-run temp dir (caches, snapshots, deltas)
  std::string trace_out;  ///< Chrome trace path ("" = do not write)
};

/// Runs `fn` once per set-up and returns the median wall seconds. The last
/// set-up's state is the one the timed ops use.
inline double median_setup_seconds(int times, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    const auto start = Clock::now();
    fn();
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

/// What one untraced op cost: wall and process-CPU seconds, peak RSS.
struct OpCost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_mb = 0.0;
};

/// Runs `op` in a forked child and folds what the child recorded (gates,
/// per-layer samples, spans) into `result` and `tracer`. Each op thus starts
/// from the same heap whatever ran before it, its CPU clock and peak RSS
/// are its own, and it cannot leave state behind; a child that dies counts
/// as a failed gate. The parent must be single-threaded.
inline OpCost run_forked(Result& result, Tracer& tracer,
                         const std::function<OpCost()>& op) {
  malloc_trim(0);
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) {
    result.gate(false, "pipe() failed");
    return {};
  }
  const std::size_t mark = tracer.mark();
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    // The op dies with the benchmark (e.g. killed on a timeout).
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    const std::uint64_t attempted = result.attempted;
    const std::uint64_t failed = result.failed;
    result.layers = Samples{};
    std::ostringstream out;
    out.precision(17);
    int code = 0;
    try {
      const OpCost cost = op();
      out << "cost " << cost.wall_s << ' ' << cost.cpu_s << ' ' << cost.peak_mb
          << '\n';
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: op aborted: %s\n", e.what());
      code = 1;
    }
    out << "gates " << result.attempted - attempted << ' '
        << result.failed - failed << '\n';
    result.layers.write(out);
    tracer.write_spans(out, mark);
    const std::string bytes = out.str();
    for (std::size_t done = 0; done < bytes.size();) {
      const ssize_t n = write(fds[1], bytes.data() + done, bytes.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<std::size_t>(n);
    }
    _exit(code);
  }
  close(fds[1]);
  std::string bytes;
  char buffer[1 << 16];
  for (ssize_t n; (n = read(fds[0], buffer, sizeof buffer)) > 0;) {
    bytes.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  const bool exited = pid > 0 && waitpid(pid, &status, 0) == pid &&
                      WIFEXITED(status) && WEXITSTATUS(status) == 0;
  OpCost cost;
  bool costed = false;
  std::istringstream in(bytes);
  for (std::string kind; in >> kind;) {
    if (kind == "cost") {
      in >> cost.wall_s >> cost.cpu_s >> cost.peak_mb;
      costed = true;
    } else if (kind == "gates") {
      std::uint64_t attempted = 0, failed = 0;
      in >> attempted >> failed;
      result.attempted += attempted;
      result.failed += failed;
    } else if (kind == "sample") {
      std::string name;
      double value = 0.0;
      in >> name >> value;
      result.layers.add(name, value);
    } else if (kind == "span") {
      tracer.add_span_line(in);
    }
  }
  result.gate(exited && costed, "forked op did not finish");
  return cost;
}

/// Runs op(0..count-1) — one op per pinned scenario — in whole rotations
/// until `seconds` have passed (at least one rotation). Each rotation adds
/// one sample of op_s and op_cpu_s (the rotation's mean per op) and of
/// peak_rss_mb (its largest op), so every sample covers the same scenarios
/// whichever one the run starts at. Returns the number of ops run.
inline std::size_t time_rotations(std::size_t count, double seconds,
                                  const std::function<OpCost(std::size_t)>& op,
                                  Samples& samples) {
  std::size_t ops = 0;
  const auto start = Clock::now();
  do {
    OpCost rotation;
    for (std::size_t k = 0; k < count; ++k, ++ops) {
      const OpCost cost = op(k);
      rotation.wall_s += cost.wall_s / static_cast<double>(count);
      rotation.cpu_s += cost.cpu_s / static_cast<double>(count);
      rotation.peak_mb = std::max(rotation.peak_mb, cost.peak_mb);
    }
    samples.add("op_s", rotation.wall_s);
    samples.add("op_cpu_s", rotation.cpu_s);
    samples.add("peak_rss_mb", rotation.peak_mb);
  } while (seconds_since(start) < seconds);
  return ops;
}

}  // namespace perfbench
