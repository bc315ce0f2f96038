// The chain_fanout job, shared by the workload and by the ladder rungs that
// time pieces of it (single-worker baseline, per-stage cost, splices,
// worker balance).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct FanoutConfig {
  unsigned workers = 1;
  unsigned chains = 1;
  unsigned stages = 8;
  std::size_t payload = 1024;
  double warm_s = 0.1;      // before the first round
  int rounds = 1;           // rounds of flood, ping and splice
  double window_s = 1.0;    // flood, all rounds together
  double ping_s = 0.0;      // one packet in flight on chain 0, all rounds
  double splice_s = 0.0;    // live insert/remove, still pinging, all rounds
  bool small_setup = true;  // time one set-up, not kSetups
  std::uint64_t seed = 1;
  bool plant = false;
  bool bind_metrics = false;  // pool and chain-0 rows in obs::registry()
};

struct FanoutStats {
  double setup_s = 0.0;        // see median_setup()
  double peak_rss_mb = 0.0;    // when the measured job ended
  double pps = 0.0;            // packets at the sinks per second (flood)
  std::uint64_t delivered = 0;  // all packets, whole run
  std::vector<Sample> latency_us;  // source->sink on chain 0, pings
  std::vector<Sample> reference_s;  // reference job runs, before the pings
  std::vector<Sample> insert_us, remove_us;
  double pool_hit_rate = 0.0;  // worker arenas, over the rounds
  std::uint64_t global_locks = 0;  // default_pool() locks, over the rounds
  // Registry rows read after the rounds (bind_metrics only): name -> value.
  std::map<std::string, double> rows;
};

/// Runs the job and checks every sink; failed checks land in `checks`.
FanoutStats run_fanout(const FanoutConfig& cfg, Result& checks);

}  // namespace perfbench
