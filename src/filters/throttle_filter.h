// Token-bucket rate limiter filter: caps the byte rate a chain forwards
// toward a slow link (bandwidth conservation for handheld clients). A packet
// that finds the bucket short is deferred (PacketFilter::defer) until the
// deficit refills: pacing never blocks the worker the filter runs on.
#pragma once

#include <atomic>

#include "core/filter.h"
#include "util/clock.h"

namespace rapidware::filters {

class ThrottleFilter final : public core::PacketFilter {
 public:
  /// `bytes_per_sec` > 0; `burst_bytes` is the bucket depth (defaults to
  /// half a second of credit). The clock is injectable for tests.
  explicit ThrottleFilter(double bytes_per_sec, double burst_bytes = 0,
                          util::Clock* clock = nullptr);

  std::string describe() const override;
  core::ParamMap params() const override;
  bool set_param(const std::string& key, const std::string& value) override;

 protected:
  void on_packet(util::Bytes packet) override;

 private:
  std::atomic<double> rate_;
  double burst_;
  util::Clock* clock_;
  util::WallClock wall_;
  double tokens_ = 0;
  util::Micros last_refill_ = 0;
  bool primed_ = false;
};

}  // namespace rapidware::filters
