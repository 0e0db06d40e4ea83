// Measurement plumbing for the repository benchmark (perfbench.cpp): clocks,
// process CPU and memory probes, sample statistics, the benchmark's own span
// recorder, the per-repetition determinism digest and the result report.
//
// Everything here observes the library from the outside -- spans are cut
// around calls into a layer, counters are read with metrics_snapshot() at
// quiescent points -- so the library itself carries no benchmark code.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/instrument.hpp"

namespace perfbench {

using gncg::instrument::Counter;
using gncg::instrument::CounterArray;

// --- clocks and process probes ---------------------------------------------

/// Steady-clock seconds since an arbitrary fixed origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by every thread of the process so far.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Current resident set size in MB (/proc/self/statm), 0 when unreadable.
inline double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long long size_pages = 0;
  long long resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0.0;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Process high-water resident set size in MB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

// --- sample statistics -------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// a / b, or 0 when b is 0 (ratios of counters a workload never bumps).
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

inline double counter(const CounterArray& counters, Counter c) {
  return static_cast<double>(counters[static_cast<std::size_t>(c)]);
}

inline void accumulate(CounterArray& into, const CounterArray& delta) {
  for (std::size_t i = 0; i < into.size(); ++i) into[i] += delta[i];
}

/// Counter work done between construction and delta(), process-wide.  Only
/// read at quiescent points (no parallel region in flight).
class CounterWindow {
 public:
  CounterWindow() : before_(gncg::instrument::metrics_snapshot()) {}
  CounterArray delta() const {
    return gncg::instrument::counters_delta(
        before_, gncg::instrument::metrics_snapshot());
  }

 private:
  gncg::instrument::MetricsSnapshot before_;
};

// --- span recorder -------------------------------------------------------------

/// The benchmark's own spans, one per call into a layer, kept in memory and
/// written out when the run ends.  All spans are cut on the calling thread,
/// so a span's children are the spans opened while it was the innermost open
/// one, and self time = duration - children's durations.
class Tracer {
 public:
  struct Span {
    std::string layer;
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span (no-op returning -1 while disabled).
  int open(const std::string& layer, const std::string& name) {
    if (!enabled_) return -1;
    spans_.push_back({layer, name, now_s(), 0.0, innermost()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Records an already-finished span as a child of the innermost open span
  /// (dynamics rounds: cut at StepObserver::on_round_end boundaries).
  void add_closed(const std::string& layer, const std::string& name,
                  double start, double end) {
    if (!enabled_) return;
    spans_.push_back({layer, name, start, end, innermost()});
  }

  /// Total self time per layer, seconds.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].layer] +=
          (spans_[i].end - spans_[i].start) - child_time[i];
    return out;
  }

  /// Durations (seconds) of every span of `layer` named `name`.
  std::vector<double> durations(const std::string& layer,
                                const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.layer == layer && s.name == name) out.push_back(s.end - s.start);
    return out;
  }

  /// Chrome trace-event JSON (load in ui.perfetto.dev), one event a line.
  std::string chrome_json() const {
    std::ostringstream out;
    out << "[\n";
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1}%s\n",
                    s.name.c_str(), s.layer.c_str(), (s.start - origin) * 1e6,
                    (s.end - s.start) * 1e6,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
    return out.str();
  }

 private:
  int innermost() const { return stack_.empty() ? -1 : stack_.back(); }

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span over one call into a layer.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& layer, const std::string& name)
      : tracer_(tracer), id_(tracer.open(layer, name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// --- determinism digest -----------------------------------------------------

/// Counters the instrumentation contract calls deterministic for the calls
/// this benchmark makes (full-mode BR searches, SSSP/repair/ladder/engine/
/// transposition/MGM event counts).  Pool and arena counters depend on the
/// thread count and are left out, so one seed's digest must also match
/// across the 1-thread re-run.
inline bool digest_counter(Counter c) {
  return c != Counter::kPoolRegions && c != Counter::kPoolTasks &&
         c != Counter::kArenaShrinkEvents;
}

/// Everything a repetition computed that must not change between
/// repetitions of one seed: trajectories, search work, costs, and the
/// deterministic kernel counters.  Doubles are printed with all 17 digits,
/// so equal text means bitwise-equal values.
class Digest {
 public:
  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    items_.emplace_back(key, buf);
  }
  void add(const std::string& key, std::uint64_t value) {
    items_.emplace_back(key, std::to_string(value));
  }
  void add_counters(const std::string& prefix, const CounterArray& counters) {
    for (std::size_t i = 0; i < counters.size(); ++i) {
      const auto c = static_cast<Counter>(i);
      if (digest_counter(c) && counters[i] != 0)
        add(prefix + gncg::instrument::counter_name(c), counters[i]);
    }
  }

  /// `{"key": "value", ...}` -- also the text compared across repetitions.
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i)
      out += (i ? ", \"" : "\"") + items_[i].first + "\": \"" +
             items_[i].second + "\"";
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

// --- the result -------------------------------------------------------------

/// Metrics in insertion order (each name set once) plus the
/// operation/failure tally.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  void attempt(std::uint64_t n = 1) { attempted_ += n; }

  /// One failed check: counted against the operations attempted, with the
  /// first few messages kept for the report.
  void fail(const std::string& message) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(message);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", message.c_str());
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// `"name": {"value": v, "unit": "u"}, ...` (non-finite values become 0).
  std::string metrics_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].name.c_str(), v,
                    metrics_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

  /// The one-line result the benchmark prints last on stdout.
  std::string result_line() const {
    char head[128];
    std::snprintf(head, sizeof head,
                  "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                  failed_ == 0 ? "true" : "false",
                  static_cast<unsigned long long>(std::max<std::uint64_t>(
                      attempted_, 1)),
                  static_cast<unsigned long long>(failed_));
    return head + std::string("\"metrics\": ") + metrics_json() + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Writes `text` to `path` through a temporary sibling and a rename, so an
/// interrupted run never leaves a truncated or empty file under `path`.
inline bool write_atomically(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << text;
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
