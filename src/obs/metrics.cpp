#include "obs/metrics.hpp"

#include <fstream>
#include <stdexcept>

namespace hp::obs {

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

void MetricsRegistry::reset() {
  MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
}

JsonValue MetricsRegistry::to_json() const {
  MutexLock lock(mutex_);
  JsonValue root = JsonValue::object();
  JsonValue& counters = (root["counters"] = JsonValue::object());
  for (const auto& [name, c] : counters_) counters[name] = c->value();
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
