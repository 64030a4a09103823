#include "common/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace hp::bench {

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  root_ = obs::JsonValue::object();
  root_["bench"] = name_;
}

BenchReport::~BenchReport() {
  try {
    (void)write();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "BENCH_%s.json not written: %s\n", name_.c_str(),
                 e.what());
  }
}

void BenchReport::add_table(const std::string& key, const TextTable& table) {
  root_[key] = table.to_json();
}

void BenchReport::add_series(const std::string& key,
                             const std::vector<std::string>& labels,
                             const std::vector<std::vector<double>>& series) {
  obs::JsonValue out = obs::JsonValue::object();
  for (std::size_t i = 0; i < labels.size() && i < series.size(); ++i) {
    obs::JsonValue curve = obs::JsonValue::array();
    for (double v : series[i]) curve.push_back(obs::JsonValue(v));
    out[labels[i]] = std::move(curve);
  }
  root_[key] = std::move(out);
}

std::string BenchReport::output_dir() {
  const char* dir = std::getenv("HYPERPOWER_BENCH_DIR");
  return dir != nullptr && dir[0] != '\0' ? dir : ".";
}

std::string BenchReport::write() {
  const std::string path = output_dir() + "/BENCH_" + name_ + ".json";
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("BenchReport: cannot open " + path);
  }
  root_.dump(os, 2);
  os << '\n';
  if (!os) {
    throw std::runtime_error("BenchReport: write failed for " + path);
  }
  return path;
}

}  // namespace hp::bench
