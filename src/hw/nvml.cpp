#include "hw/nvml.hpp"

#include <cmath>

namespace hp::hw::nvml {

std::string error_string(Return r) {
  switch (r) {
    case Return::Success:
      return "Success";
    case Return::ErrorUninitialized:
      return "Uninitialized";
    case Return::ErrorInvalidArgument:
      return "Invalid Argument";
    case Return::ErrorNotSupported:
      return "Not Supported";
    case Return::ErrorNotFound:
      return "Not Found";
    case Return::ErrorUnknown:
      return "Unknown Error";
  }
  return "Unknown Error";
}

std::size_t Session::add_device(GpuSimulator* simulator) {
  devices_.push_back(simulator);
  return devices_.size() - 1;
}

Return Session::init() {
  initialized_ = true;
  return Return::Success;
}

Return Session::shutdown() {
  if (!initialized_) return Return::ErrorUninitialized;
  initialized_ = false;
  return Return::Success;
}

Return Session::check_handle(std::size_t handle) const {
  if (!initialized_) return Return::ErrorUninitialized;
  if (handle >= devices_.size() || devices_[handle] == nullptr) {
    return Return::ErrorNotFound;
  }
  return Return::Success;
}

Return Session::device_get_power_usage(std::size_t handle,
                                       unsigned* milliwatts) {
  if (const Return r = check_handle(handle); r != Return::Success) return r;
  if (milliwatts == nullptr) return Return::ErrorInvalidArgument;
  try {
    const double watts = devices_[handle]->read_power_w();
    *milliwatts = static_cast<unsigned>(std::lround(watts * 1000.0));
  } catch (const SensorError&) {
    // Failed sensor read surfaces as NVML's catch-all transient code —
    // typed C++ exceptions do not cross a C-style API boundary.
    return Return::ErrorUnknown;
  }
  return Return::Success;
}

Return Session::device_get_memory_info(std::size_t handle,
                                       Memory* memory) const {
  if (const Return r = check_handle(handle); r != Return::Success) return r;
  if (memory == nullptr) return Return::ErrorInvalidArgument;
  const GpuSimulator::MemoryReading reading = devices_[handle]->read_memory();
  switch (reading.status) {
    case GpuSimulator::MemoryQueryStatus::NotSupported:
      return Return::ErrorNotSupported;
    case GpuSimulator::MemoryQueryStatus::ReadError:
      return Return::ErrorUnknown;
    case GpuSimulator::MemoryQueryStatus::Ok:
      break;
  }
  memory->total =
      static_cast<std::uint64_t>(reading.info.total_mb * 1024.0 * 1024.0);
  memory->used =
      static_cast<std::uint64_t>(reading.info.used_mb * 1024.0 * 1024.0);
  memory->free = memory->total - memory->used;
  return Return::Success;
}

}  // namespace hp::hw::nvml
