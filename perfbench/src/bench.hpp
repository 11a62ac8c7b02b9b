// Shared pieces of the repo benchmark: the clock, sample statistics, the
// span tracer of the traced run, the metric table an invocation prints, and
// the tally of attempted and failed operations.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Raw samples of one quantity, reduced on demand.
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  void append(const Samples& other) {
    xs_.insert(xs_.end(), other.xs_.begin(), other.xs_.end());
  }
  [[nodiscard]] std::size_t size() const { return xs_.size(); }
  [[nodiscard]] bool empty() const { return xs_.empty(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double median() const;
  /// p in [0, 1], as bsr::stats::percentile.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::vector<double> xs_;
};

/// Spans recorded by the traced run: one per call into a layer's public
/// functions, with the span that caused it and the run it belongs to. Kept
/// in memory and written as Chrome trace JSON at the end. A disabled tracer
/// records nothing, so the untraced runs pay one branch per call site.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  ///< since the tracer was created
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 for roots
    std::uint64_t run_id = 0;  ///< groups the spans of one run or request
    int thread = 0;            ///< small per-thread number
  };

  /// Opens a span on construction and closes it on destruction; nested
  /// scopes on the same thread become its children.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t run_id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records an already finished span under the calling thread's open scope.
  void add(std::string name, Clock::time_point t0, Clock::time_point t1,
           std::uint64_t run_id = 0);

  /// Self time per span name: each span's duration minus the part of it its
  /// children cover, summed over spans of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  [[nodiscard]] std::size_t size() const;

  /// Writes every span as Chrome trace-event JSON ("X" events, microseconds).
  void write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t open(std::string name, std::uint64_t run_id);
  void close(std::int64_t index);
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// One reported number with its unit and the statistic behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< how many measurements the value reduces
  std::string stat;         ///< "median", "p99", "rate", "total", ...
};

/// The metrics one invocation reports, by name.
using Results = std::map<std::string, Metric>;

inline void put(Results& r, const std::string& name, double value,
                const std::string& unit, std::size_t samples,
                const std::string& stat) {
  r[name] = Metric{value, unit, samples, stat};
}

/// Operations attempted and failed, with the first few failure messages.
class Tally {
 public:
  void ok(std::uint64_t n = 1);
  void fail(const std::string& why);
  /// ok() when `good`, fail(why) otherwise.
  void check(bool good, const std::string& why);
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] std::vector<std::string> notes() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> notes_;
};

/// What every phase receives from the driver.
struct Context {
  std::uint64_t seed = 0;   ///< the workload seed (--seed)
  Tracer& tracer;           ///< enabled only in the traced run
  Tally& tally;             ///< every operation and check counts here
  std::string out_dir;      ///< scratch and trace output, inside the checkout
};

}  // namespace perfbench
