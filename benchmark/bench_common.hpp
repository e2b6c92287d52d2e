// Helpers shared by dws_bench's workloads and its layer ledger: clocks,
// order statistics, the in-memory span recorder and the metric sink.
//
// Nothing here calls into the DWS libraries. The statistics the benchmark
// reports must not change when the code under test changes, so the
// benchmark carries its own quantile and geomean instead of util::Samples.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread, workers included).
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

/// Arithmetic mean; 0 for an empty sample.
inline double mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

/// Geometric mean of positive samples; NaN if any sample is not positive,
/// so a broken measurement surfaces instead of being averaged away.
inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return std::nan("");
  double log_sum = 0.0;
  for (double x : xs) {
    if (!(x > 0.0)) return std::nan("");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

/// Keeps a computed value alive so the optimiser cannot drop the loop
/// that produced it.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// A fixed single-thread integer loop, timed as an index of host speed.
/// On a shared host it drifts by several percent between processes, which
/// is context for every other time in a result file.
inline double host_calib_ms() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 1;
  for (int i = 0; i < 1'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 13;
  }
  keep(x);
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// Shortest text that reads back as the same double.
inline std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Spans recorded from the benchmark's own code around calls into the
/// library, kept in memory and written as JSONL at exit. Span ids start
/// at 1; parent 0 means "no parent". Both co-run driver threads record,
/// hence the lock.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::string attrs = "{}";  // JSON object text
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  std::uint64_t begin(const std::string& name, std::uint64_t parent,
                      std::string attrs = "{}") {
    if (!enabled_) return 0;
    const std::int64_t start = now_ns();
    const std::lock_guard<std::mutex> lock(m_);
    spans_.push_back({name, spans_.size() + 1, parent, start, 0,
                      std::move(attrs)});
    return spans_.size();
  }

  void end(std::uint64_t id) {
    if (id == 0) return;
    const std::int64_t stop = now_ns();
    const std::lock_guard<std::mutex> lock(m_);
    spans_[id - 1].end_ns = stop;
  }

  void end(std::uint64_t id, std::string attrs) {
    if (id == 0) return;
    const std::int64_t stop = now_ns();
    const std::lock_guard<std::mutex> lock(m_);
    spans_[id - 1].end_ns = stop;
    spans_[id - 1].attrs = std::move(attrs);
  }

  /// Call only after every recording thread has been joined.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":%s,\"id\":%llu,\"parent\":%llu,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"attrs\":%s}\n",
                   json_string(s.name).c_str(),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.attrs.c_str());
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::mutex m_;
  std::vector<Span> spans_;  // guarded by m_
};

/// RAII span; a null tracer (an untraced round) records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* t, const std::string& name, std::uint64_t parent,
            std::string attrs = "{}")
      : t_(t), id_(t != nullptr ? t->begin(name, parent, std::move(attrs))
                                : 0) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (t_ != nullptr) t_->end(id_);
  }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  /// Close now with final attributes (the destructor then does nothing).
  void close(std::string attrs) {
    if (t_ != nullptr) t_->end(id_, std::move(attrs));
    t_ = nullptr;
  }

 private:
  Tracer* t_;
  std::uint64_t id_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

}  // namespace bench
