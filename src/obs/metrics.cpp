#include "obs/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace hp::obs {

namespace {

void atomic_add_double(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: need at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "Histogram: bucket bounds must be strictly increasing");
  }
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // == size() = overflow
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t seen = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, v);
  if (seen == 0) {
    // First observation seeds min/max; races with concurrent first
    // observations resolve through the min/max CAS loops below.
    double zero = 0.0;
    min_.compare_exchange_strong(zero, v, std::memory_order_relaxed);
    zero = 0.0;
    max_.compare_exchange_strong(zero, v, std::memory_order_relaxed);
  }
  atomic_min_double(min_, v);
  atomic_max_double(max_, v);
}

std::uint64_t Histogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

double Histogram::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::percentile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t in_bucket =
        buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    const double reach = static_cast<double>(cumulative + in_bucket);
    if (reach >= target) {
      // Interpolate within [lower, upper]; clamp the open-ended edges to
      // the exactly tracked min/max.
      const double lower =
          i == 0 ? min() : std::max(min(), bounds_[i - 1]);
      const double upper = i == bounds_.size() ? max() : bounds_[i];
      const double frac =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (std::min(upper, max()) - lower) *
                         std::clamp(frac, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return max();
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count) {
  if (start <= 0.0 || factor <= 1.0 || count == 0) {
    throw std::invalid_argument(
        "exponential_buckets: need start > 0, factor > 1, count > 0");
  }
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

std::vector<double> duration_buckets() {
  // 1 µs .. ~104 s in half-decade steps.
  return exponential_buckets(1e-6, 3.1622776601683795, 17);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(upper_bounds.empty()
                                           ? duration_buckets()
                                           : std::move(upper_bounds));
  }
  return *slot;
}

void MetricsRegistry::reset() {
  MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

JsonValue MetricsRegistry::to_json() const {
  MutexLock lock(mutex_);
  JsonValue root = JsonValue::object();
  JsonValue& counters = (root["counters"] = JsonValue::object());
  for (const auto& [name, c] : counters_) counters[name] = c->value();
  JsonValue& gauges = (root["gauges"] = JsonValue::object());
  for (const auto& [name, g] : gauges_) gauges[name] = g->value();
  JsonValue& histograms = (root["histograms"] = JsonValue::object());
  for (const auto& [name, h] : histograms_) {
    JsonValue& out = histograms[name];
    out["count"] = h->count();
    out["sum"] = h->sum();
    out["min"] = h->min();
    out["max"] = h->max();
    out["mean"] = h->mean();
    out["p50"] = h->percentile(0.50);
    out["p95"] = h->percentile(0.95);
    out["p99"] = h->percentile(0.99);
    JsonValue& bounds = out["bounds"];
    bounds = JsonValue::array();
    for (double b : h->bounds()) bounds.push_back(b);
    JsonValue& buckets = out["buckets"];
    buckets = JsonValue::array();
    for (std::uint64_t b : h->bucket_counts()) buckets.push_back(b);
  }
  return root;
}

void MetricsRegistry::write_json(std::ostream& os, int indent) const {
  to_json().dump(os, indent, 0);
  os << '\n';
}

void MetricsRegistry::write_json_file(const std::string& path,
                                      int indent) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("MetricsRegistry: cannot open " + path);
  }
  write_json(os, indent);
}

MetricsRegistry& metrics() {
  static MetricsRegistry instance;
  return instance;
}

}  // namespace hp::obs
