#include "bench.hpp"

#include <atomic>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "common/json.hpp"
#include "common/stats.hpp"

namespace perfbench {

double Samples::sum() const {
  return std::accumulate(xs_.begin(), xs_.end(), 0.0);
}

double Samples::median() const { return bsr::stats::median(xs_); }

double Samples::percentile(double p) const {
  return bsr::stats::percentile(xs_, p);
}

namespace {

thread_local std::vector<std::int64_t> t_open_spans;

int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t run_id)
    : tracer_(tracer) {
  if (tracer_.enabled_) index_ = tracer_.open(std::move(name), run_id);
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) tracer_.close(index_);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int64_t Tracer::open(std::string name, std::uint64_t run_id) {
  Span span;
  span.name = std::move(name);
  span.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  span.run_id = run_id;
  span.thread = thread_number();
  std::int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int64_t>(spans_.size());
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
  }
  t_open_spans.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  const std::int64_t end = now_ns();
  t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

void Tracer::add(std::string name, Clock::time_point t0, Clock::time_point t1,
                 std::uint64_t run_id) {
  if (!enabled_) return;
  Span span;
  span.name = std::move(name);
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - origin_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - origin_)
          .count();
  span.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  span.run_id = run_id;
  span.thread = thread_number();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - covered[i]) * 1e-9;
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  bsr::JsonWriter w;
  w.obj_open();
  w.key("traceEvents").arr_open();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.obj_open();
      w.key("name").value(s.name);
      w.key("cat").value(s.name.substr(0, s.name.find('.')));
      w.key("ph").value("X");
      w.key("ts").value(static_cast<double>(s.start_ns) * 1e-3);
      w.key("dur").value(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      w.key("pid").value(1);
      w.key("tid").value(s.thread);
      w.key("args").obj_open();
      w.key("id").value(static_cast<std::int64_t>(i));
      w.key("parent").value(s.parent);
      w.key("run").value_u64(s.run_id);
      w.obj_close();
      w.obj_close();
    }
  }
  w.arr_close();
  w.key("displayTimeUnit").value("ms");
  w.obj_close();
  std::ofstream out(path);
  out << w.str() << '\n';
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

void Tally::ok(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += n;
}

void Tally::fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  ++failed_;
  if (notes_.size() < 20) notes_.push_back(why);
}

void Tally::check(bool good, const std::string& why) {
  if (good) {
    ok();
  } else {
    fail(why);
  }
}

std::uint64_t Tally::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::uint64_t Tally::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

std::vector<std::string> Tally::notes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return notes_;
}

}  // namespace perfbench
