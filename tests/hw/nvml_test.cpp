#include "hw/nvml.hpp"

#include <gtest/gtest.h>

namespace hp::hw::nvml {
namespace {

nn::CnnSpec small_spec() {
  nn::CnnSpec spec;
  spec.input = {1, 1, 28, 28};
  spec.conv_stages = {{30, 3, 2}};
  spec.dense_stages = {{300}};
  spec.num_classes = 10;
  return spec;
}

class NvmlTest : public ::testing::Test {
 protected:
  NvmlTest() : server_(gtx1070(), 1), tegra_(tegra_tx1(), 2) {
    server_handle_ = session_.add_device(&server_);
    tegra_handle_ = session_.add_device(&tegra_);
  }
  GpuSimulator server_;
  GpuSimulator tegra_;
  Session session_;
  std::size_t server_handle_ = 0;
  std::size_t tegra_handle_ = 0;
};

TEST_F(NvmlTest, UninitializedCallsFail) {
  unsigned mw = 0;
  EXPECT_EQ(session_.device_get_power_usage(server_handle_, &mw),
            Return::ErrorUninitialized);
}

TEST_F(NvmlTest, InitShutdownLifecycle) {
  EXPECT_EQ(session_.init(), Return::Success);
  EXPECT_EQ(session_.shutdown(), Return::Success);
  EXPECT_EQ(session_.shutdown(), Return::ErrorUninitialized);
}

TEST_F(NvmlTest, NullPointersAreInvalidArguments) {
  ASSERT_EQ(session_.init(), Return::Success);
  EXPECT_EQ(session_.device_get_power_usage(server_handle_, nullptr),
            Return::ErrorInvalidArgument);
  EXPECT_EQ(session_.device_get_memory_info(server_handle_, nullptr),
            Return::ErrorInvalidArgument);
}

TEST_F(NvmlTest, UnknownHandleNotFound) {
  ASSERT_EQ(session_.init(), Return::Success);
  unsigned mw = 0;
  EXPECT_EQ(session_.device_get_power_usage(99, &mw), Return::ErrorNotFound);
}

TEST_F(NvmlTest, PowerUsageReportedInMilliwatts) {
  ASSERT_EQ(session_.init(), Return::Success);
  unsigned mw = 0;
  ASSERT_EQ(session_.device_get_power_usage(server_handle_, &mw),
            Return::Success);
  // Idle GTX 1070 is ~35 W = ~35000 mW.
  EXPECT_GT(mw, 20000u);
  EXPECT_LT(mw, 60000u);
}

TEST_F(NvmlTest, MemoryInfoInBytesOnServer) {
  ASSERT_EQ(session_.init(), Return::Success);
  server_.load_model(small_spec());
  Memory mem;
  ASSERT_EQ(session_.device_get_memory_info(server_handle_, &mem),
            Return::Success);
  EXPECT_EQ(mem.total, static_cast<std::uint64_t>(8.0 * 1024 * 1024 * 1024));
  EXPECT_GT(mem.used, 100ull * 1024 * 1024);
  EXPECT_EQ(mem.free, mem.total - mem.used);
}

TEST_F(NvmlTest, MemoryInfoNotSupportedOnTegra) {
  // Paper footnote 1: Tegra does not support the NVML memory query.
  ASSERT_EQ(session_.init(), Return::Success);
  tegra_.load_model(small_spec());
  Memory mem;
  EXPECT_EQ(session_.device_get_memory_info(tegra_handle_, &mem),
            Return::ErrorNotSupported);
}

TEST_F(NvmlTest, PowerQueryWorksOnTegra) {
  ASSERT_EQ(session_.init(), Return::Success);
  unsigned mw = 0;
  EXPECT_EQ(session_.device_get_power_usage(tegra_handle_, &mw),
            Return::Success);
  EXPECT_GT(mw, 1000u);   // > 1 W
  EXPECT_LT(mw, 20000u);  // < 20 W
}

TEST_F(NvmlTest, InjectedPowerFaultSurfacesAsErrorUnknown) {
  ASSERT_EQ(session_.init(), Return::Success);
  SensorFaultSpec faults;
  faults.failure_rate = 1.0;
  server_.set_sensor_faults(faults);
  unsigned mw = 0;
  EXPECT_EQ(session_.device_get_power_usage(server_handle_, &mw),
            Return::ErrorUnknown);
  // The session survives the failed read; disarming the fault heals it.
  faults.failure_rate = 0.0;
  server_.set_sensor_faults(faults);
  EXPECT_EQ(session_.device_get_power_usage(server_handle_, &mw),
            Return::Success);
}

TEST_F(NvmlTest, InjectedMemoryFaultIsTypedNotASentinel) {
  ASSERT_EQ(session_.init(), Return::Success);
  server_.load_model(small_spec());
  SensorFaultSpec faults;
  faults.failure_rate = 1.0;
  faults.fail_memory = true;
  server_.set_sensor_faults(faults);
  Memory mem;
  // Transient read failure: ErrorUnknown, NOT the permanent
  // ErrorNotSupported the old sentinel path conflated it with.
  EXPECT_EQ(session_.device_get_memory_info(server_handle_, &mem),
            Return::ErrorUnknown);
  faults.failure_rate = 0.0;
  server_.set_sensor_faults(faults);
  EXPECT_EQ(session_.device_get_memory_info(server_handle_, &mem),
            Return::Success);
  EXPECT_GT(mem.used, 0u);
}

TEST_F(NvmlTest, MemoryFaultScheduleIsDeterministic) {
  ASSERT_EQ(session_.init(), Return::Success);
  SensorFaultSpec faults;
  faults.failure_rate = 0.5;
  faults.fail_memory = true;
  faults.seed = 77;
  const auto pattern = [&] {
    server_.set_sensor_faults(faults);  // resets the fault stream
    std::vector<Return> results;
    Memory mem;
    for (int i = 0; i < 32; ++i) {
      results.push_back(session_.device_get_memory_info(server_handle_, &mem));
    }
    return results;
  };
  EXPECT_EQ(pattern(), pattern());
}

TEST(NvmlStrings, ErrorStringsDistinct) {
  EXPECT_EQ(error_string(Return::Success), "Success");
  EXPECT_NE(error_string(Return::ErrorNotSupported),
            error_string(Return::ErrorNotFound));
}

}  // namespace
}  // namespace hp::hw::nvml
