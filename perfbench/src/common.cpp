#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <thread>

namespace pb {
namespace {

const Clock::time_point kStart = Clock::now();

thread_local int tCurrentSpan = -1;

std::string escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double msSinceStart() { return msSince(kStart); }

std::vector<int> seededOrder(std::size_t n, std::uint64_t seed) {
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

int passesFor(double seconds, double nominalPassSeconds, int minPasses) {
  const int n = static_cast<int>(std::lround(seconds / nominalPassSeconds));
  return std::max(minPasses, n);
}

void Result::put(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void Result::fail(const std::string& why) {
  if (correct) std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  correct = false;
}

std::string Result::json() const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += '"';
    s += escape(metrics[i].first);
    s += "\": {\"value\": ";
    s += number(metrics[i].second.first);
    s += ", \"unit\": \"";
    s += escape(metrics[i].second.second);
    s += "\"}";
  }
  return s + "}}";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Tracer::open(const std::string& name, std::int64_t op, double startUs) {
  std::lock_guard<std::mutex> g(mu_);
  Event e;
  e.name = name;
  e.startUs = startUs;
  e.op = op;
  e.parent = tCurrentSpan;
  e.tid = std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  events_.push_back(std::move(e));
  return static_cast<int>(events_.size()) - 1;
}

void Tracer::close(int idx, double durUs) {
  std::lock_guard<std::mutex> g(mu_);
  events_[static_cast<std::size_t>(idx)].durUs = durUs;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return events_.size();
}

void Tracer::writeChrome(const std::string& path) const {
  std::lock_guard<std::mutex> g(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (i) out << ",\n";
    out << "{\"name\":\"" << escape(e.name) << "\",\"cat\":\"perfbench\","
        << "\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
        << ",\"ts\":" << number(e.startUs) << ",\"dur\":" << number(e.durUs)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << e.parent
        << ",\"op\":" << e.op << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

Span::Span(Tracer* t, const std::string& name, std::int64_t op)
    : t_(t), t0_(Clock::now()) {
  if (!t_) return;
  idx_ = t_->open(name, op, msSinceStart() * 1000.0);
  savedParent_ = tCurrentSpan;
  tCurrentSpan = idx_;
}

Span::~Span() {
  if (!t_) return;
  t_->close(idx_, elapsedMs() * 1000.0);
  tCurrentSpan = savedParent_;
}

double Layers::ms(const std::string& metric) const {
  auto it = ms_.find(metric);
  return it == ms_.end() ? 0.0 : it->second;
}

}  // namespace pb
