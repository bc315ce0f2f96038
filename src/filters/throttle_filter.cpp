#include "filters/throttle_filter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace rapidware::filters {

ThrottleFilter::ThrottleFilter(double bytes_per_sec, double burst_bytes,
                               util::Clock* clock)
    : PacketFilter("throttle"),
      rate_(bytes_per_sec),
      burst_(burst_bytes > 0 ? burst_bytes : bytes_per_sec / 2),
      clock_(clock != nullptr ? clock : &wall_) {
  if (bytes_per_sec <= 0) {
    throw std::invalid_argument("ThrottleFilter: rate must be positive");
  }
}

std::string ThrottleFilter::describe() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "throttle(%.0fB/s)", rate_.load());
  return buf;
}

core::ParamMap ThrottleFilter::params() const {
  return {{"bytes_per_sec", std::to_string(rate_.load())}};
}

bool ThrottleFilter::set_param(const std::string& key,
                               const std::string& value) {
  if (key != "bytes_per_sec") return false;
  try {
    const double v = std::stod(value);
    if (v <= 0) return false;
    rate_.store(v);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

void ThrottleFilter::on_packet(util::Bytes packet) {
  const double rate = rate_.load();
  const util::Micros now = clock_->now();
  if (!primed_) {
    tokens_ = burst_;
    last_refill_ = now;
    primed_ = true;
  }
  tokens_ = std::min(
      burst_, tokens_ + rate * static_cast<double>(now - last_refill_) / 1e6);
  last_refill_ = now;
  // A packet larger than the bucket goes once the bucket is full, leaving
  // the tokens in debt, rather than waiting for credit that never comes.
  const auto cost = static_cast<double>(packet.size());
  const double need = std::min(cost, burst_);
  if (tokens_ < need) {
    // Park the packet, not the worker, until the deficit has refilled.
    const auto wait_us =
        static_cast<std::int64_t>((need - tokens_) / rate * 1e6) + 1;
    defer(std::move(packet), std::chrono::microseconds(wait_us));
    return;
  }
  tokens_ -= cost;
  emit(std::move(packet));
}

}  // namespace rapidware::filters
