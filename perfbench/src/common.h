// Shared plumbing of the benchmark binary: options, the result line, the
// statistics helpers, layer timers and the span recorder behind the
// traced run's Chrome trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Milliseconds since the process started (static initialisation).
double msSinceStart();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// 0..n-1 in an order drawn from `seed`.
std::vector<int> seededOrder(std::size_t n, std::uint64_t seed);

/// Passes of a fixed operation set that fill about `seconds` at the
/// pass's nominal cost on the reference host.  The count depends only on
/// `seconds`, so every run with the same arguments does the same work.
int passesFor(double seconds, double nominalPassSeconds, int minPasses);

/// The benchmark's result line plus the failures found while checking.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void put(const std::string& name, double value, const std::string& unit);
  /// Record a failed output check; the run then reports correct=false.
  void fail(const std::string& why);
  std::string json() const;
};

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);
/// Peak resident set of this process in MB (getrusage).
double peakRssMb();
/// Runs `setUp` kSetups times and keeps the first state.  `seconds` gets
/// the median set-up time; the first set-up is measured from process
/// start, the others are timed re-runs of the same set-up.
constexpr int kSetups = 5;
template <class F>
auto repeatedSetUp(F&& setUp, double& seconds) {
  auto state = setUp();
  std::vector<double> ms{msSinceStart()};
  for (int k = 1; k < kSetups; ++k) {
    const Clock::time_point t0 = Clock::now();
    setUp();
    ms.push_back(msSince(t0));
  }
  seconds = median(ms) / 1000.0;
  return state;
}

/// Span recorder for the traced run.  Spans carry a parent and an
/// operation id (all spans of one attack, flow or request share it) and
/// are kept in memory until writeChrome().  A null Tracer* disables
/// recording; Span then only keeps its own start time.
class Tracer {
 public:
  void writeChrome(const std::string& path) const;
  std::size_t size() const;

 private:
  friend class Span;
  struct Event {
    std::string name;
    double startUs = 0;
    double durUs = 0;
    std::int64_t op = 0;
    int parent = -1;
    std::uint64_t tid = 0;
  };
  int open(const std::string& name, std::int64_t op, double startUs);
  void close(int idx, double durUs);
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

class Span {
 public:
  Span(Tracer* t, const std::string& name, std::int64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  double elapsedMs() const { return msSince(t0_); }

 private:
  Tracer* t_;
  int idx_ = -1;
  int savedParent_ = -1;
  Clock::time_point t0_;
};

/// Accumulated wall time per layer metric of the traced run.  Each call
/// to time() runs `f` inside a span named after the metric and adds its
/// duration to the metric's total.
class Layers {
 public:
  explicit Layers(Tracer* t) : tracer_(t) {}
  template <class F>
  auto time(const std::string& metric, std::int64_t op, F&& f) {
    Span s(tracer_, metric, op);
    auto result = f();
    ms_[metric] += s.elapsedMs();
    return result;
  }
  double ms(const std::string& metric) const;

 private:
  Tracer* tracer_;
  std::map<std::string, double> ms_;
};

/// Layers::time when `l` is set, a plain call otherwise — set-up code is
/// shared by the untimed runs and the traced probe.
template <class F>
auto timedIf(Layers* l, const std::string& metric, F&& f) {
  if (l) return l->time(metric, 0, f);
  return f();
}

}  // namespace pb
