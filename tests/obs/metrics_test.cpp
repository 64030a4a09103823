// Unit coverage of the metrics registry: counter semantics, stable
// fetch-or-create by name, and the JSON export shape (including the
// regression that an empty counter section serializes as {} rather than
// null).

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"

namespace hp::obs {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsRegistryTest, InstrumentsAreStableByName) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &reg.counter("y"));
}

TEST(MetricsRegistryTest, EnabledFlagDefaultsOff) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.enabled());
  reg.set_enabled(true);
  EXPECT_TRUE(reg.enabled());
  reg.set_enabled(false);
  EXPECT_FALSE(reg.enabled());
}

TEST(MetricsRegistryTest, EmptySectionsSerializeAsObjects) {
  // Regression: auto-vivified members start as null; to_json must still
  // emit {} so downstream JSON parsers see an object for the counters.
  MetricsRegistry reg;
  EXPECT_EQ(reg.to_json().dump(), "{\"counters\":{}}");
}

TEST(MetricsRegistryTest, JsonExportShape) {
  // Counters only, sorted by name, under the one "counters" key.
  MetricsRegistry reg;
  reg.counter("opt.samples").add(3);
  reg.counter("gp.cholesky_calls").add(2);
  EXPECT_EQ(reg.to_json().dump(),
            "{\"counters\":{\"gp.cholesky_calls\":2,\"opt.samples\":3}}");
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.reset();
  EXPECT_EQ(reg.counter("c").value(), 0u);
  const std::string json = reg.to_json().dump();
  EXPECT_NE(json.find("\"c\":0"), std::string::npos) << json;
}

}  // namespace
}  // namespace hp::obs
