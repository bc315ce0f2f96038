// fleet_fec: sim::FleetSim with 10 000 stations on virtual time, the FEC
// controller on, FleetConfig's default mobility (every station static at
// the paper's 25 m point, so the per-tick work does not drift over virtual
// time) and per-flow classification on. The harness advances the fleet one
// control tick (1 virtual second) at a time until the run's budget is
// spent, and after each tick swaps a rule in the fleet's own
// FlowClassifier kSwapsPerTick times.
//
// The fleet is one thread, so it is timed on that thread's CPU clock, not
// the wall clock: on a shared host the wall time of a CPU-bound loop also
// counts the time the thread waited for a core (preemption, the
// hypervisor's steal). The core's own speed still moves with the host's
// load, so after each tick the thread also runs the reference job (see
// common.h), and every figure is read against the job's median CPU time
// over the same slice of ticks. The run's length is wall time.
//
// Checks: delivered <= sent; FEC overhead within [1, 2] (2.0 is the largest
// n/k on the policy ladder); two fleets with the same seed over a short
// span give byte-identical stats_text().
#include <cstdio>

#include "common.h"
#include "core/flow_classifier.h"
#include "sim/fleet.h"
#include "sim/virtual_clock.h"

namespace perfbench {
namespace {

using namespace rapidware;

constexpr int kSwapsPerTick = 16;

sim::FleetConfig fleet_config(std::uint64_t seed, std::size_t stations) {
  sim::FleetConfig c;
  c.stations = stations;
  c.seed = seed;
  c.controller_enabled = true;
  c.classify_flows = true;
  return c;
}

std::string short_dump(std::uint64_t seed) {
  sim::VirtualClock clock;
  sim::FleetSim fleet(clock, fleet_config(seed, 500));
  fleet.run_for(util::seconds_to_micros(120));
  return fleet.stats_text();
}

core::FlowRule swap_rule(std::uint64_t i) {
  core::FlowRule rule;
  rule.name = "bench-swap";
  rule.priority = 5;
  rule.regime = core::LossRegime::kDegraded;
  rule.chain.name = i % 2 == 0 ? "fec-light-a" : "fec-light-b";
  rule.chain.stages.push_back(core::FilterSpec{
      "fec-encode", {{"n", "6"}, {"k", "4"}}});
  return rule;
}

}  // namespace

Result run_fleet_fec(const Options& opt) {
  Result r;
  const std::size_t stations = opt.small ? 500 : 10'000;
  const double budget = opt.small ? 0.5 : opt.seconds;

  // Determinism first (its time is not part of any metric).
  const std::string dump_a = short_dump(opt.seed);
  const std::string dump_b = short_dump(opt.seed);
  r.check(dump_a == dump_b,
          "fleet_fec: two runs with the same seed differ in stats_text()");
  if (opt.plant) {
    // A flipped byte, a dropped line and a duplicated line in the second
    // dump must each be caught by the same comparison.
    std::string flipped = dump_b;
    flipped[flipped.size() / 2] ^= 0x01;
    const std::size_t cut = dump_b.find('\n', dump_b.size() / 3);
    const std::size_t cut_end = dump_b.find('\n', cut + 1);
    std::string dropped = dump_b;
    dropped.erase(cut, cut_end - cut);
    std::string duplicated = dump_b;
    duplicated.insert(cut, dump_b.substr(cut, cut_end - cut));
    for (const auto& [what, planted] :
         {std::pair{"byte flip", flipped}, {"dropped line", dropped},
          {"duplicated line", duplicated}}) {
      r.check(dump_a == planted, std::string("fleet_fec: stats_text() "
                                             "differs between same-seed runs (") +
                                     what + ")");
    }
  }

  // A fleet and the virtual clock it runs on.
  struct Built {
    std::unique_ptr<sim::VirtualClock> clock = std::make_unique<sim::VirtualClock>();
    std::unique_ptr<sim::FleetSim> fleet;
  };
  const auto build = [&] {
    Built b;
    b.fleet = std::make_unique<sim::FleetSim>(*b.clock, fleet_config(opt.seed, stations));
    return b;
  };
  Built built = build();
  sim::FleetSim* const fleet = built.fleet.get();

  const util::Micros tick = fleet->config().tick_us;
  // Per tick: the fleet thread's CPU time for the tick, for its swaps, and
  // the data packets the tick delivered.
  struct Tick {
    std::int64_t t_ns;
    double tick_cpu_s;
    double swaps_cpu_s;
    double ref_cpu_s;  // the reference job, after the swaps
    std::uint64_t delivered;
  };
  std::vector<Tick> ticks;
  ticks.reserve(1 << 16);
  const double cpu0 = thread_cpu_s();
  const std::uint64_t sent0 = fleet->data_sent();
  const auto end = Clock::now() + std::chrono::duration<double>(budget);
  while (Clock::now() < end) {
    const std::uint64_t n = ticks.size();
    const std::uint64_t d0 = fleet->data_delivered();
    const double c0 = thread_cpu_s();
    {
      Span span("sim.tick", n);
      fleet->run_for(tick);
    }
    const double c1 = thread_cpu_s();
    for (int s = 0; s < kSwapsPerTick; ++s) {
      Span span("core.classifier.add_rule", n);
      fleet->classifier().add_rule(swap_rule(n * kSwapsPerTick + s));
    }
    const double c2 = thread_cpu_s();
    const std::uint64_t delivered = fleet->data_delivered() - d0;
    ticks.push_back({now_ns(), c1 - c0, c2 - c1, reference_job_cpu_s(), delivered});
  }
  const std::uint64_t sent = fleet->data_sent() - sent0;

  r.check(fleet->data_delivered() <= fleet->data_sent(),
          "fleet_fec: delivered exceeds sent");
  const double overhead = fleet->fec_overhead();
  r.check(overhead >= 1.0 && overhead <= 2.0,
          "fleet_fec: FEC overhead " + std::to_string(overhead) +
              " outside [1, 2]");
  std::printf(
      "fleet_fec: stations=%zu ticks=%llu virtual_s=%.0f sent=%llu "
      "received=%.5f raw_loss=%.5f overhead=%.4f inserts=%llu removes=%llu "
      "reclassifications=%llu\n",
      stations, static_cast<unsigned long long>(ticks.size()),
      static_cast<double>(ticks.size()) * util::micros_to_seconds(tick),
      static_cast<unsigned long long>(sent), fleet->received_rate(),
      fleet->raw_loss_rate(), overhead,
      static_cast<unsigned long long>(fleet->inserts()),
      static_cast<unsigned long long>(fleet->removes()),
      static_cast<unsigned long long>(fleet->reclassifications()));

  // kSlices runs of consecutive ticks. In each, `slow` is the reference
  // job's median CPU time over kReferenceJobS, and every CPU time of the
  // slice is divided by it; the rates are the slice's virtual
  // station-seconds (or delivered packets) over its fleet CPU seconds.
  std::vector<double> station_rates, pkt_rates, slowness;
  std::vector<Sample> tick_us, swap_us;
  for (int k = 0; k < kSlices; ++k) {
    const std::size_t lo = ticks.size() * k / kSlices;
    const std::size_t hi = ticks.size() * (k + 1) / kSlices;
    if (lo == hi) continue;
    std::vector<double> ref;
    for (std::size_t i = lo; i < hi; ++i) ref.push_back(ticks[i].ref_cpu_s);
    const double slow = median(ref) / kReferenceJobS;
    slowness.push_back(slow);
    double cpu = 0.0, delivered = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      const Tick& t = ticks[i];
      cpu += t.tick_cpu_s / slow;
      delivered += static_cast<double>(t.delivered);
      tick_us.push_back({t.t_ns, t.tick_cpu_s / slow * 1e6});
      swap_us.push_back({t.t_ns, t.swaps_cpu_s / slow * 1e6 / kSwapsPerTick});
    }
    station_rates.push_back(static_cast<double>(hi - lo) *
                            static_cast<double>(stations) *
                            util::micros_to_seconds(tick) / cpu);
    pkt_rates.push_back(delivered / cpu);
  }
  std::printf("host slowness (reference job / %.0f us) per slice: min=%.3f "
              "p50=%.3f max=%.3f\n",
              kReferenceJobS * 1e6, percentile(slowness, 0),
              percentile(slowness, 50), percentile(slowness, 100));
  r.check(ticks.size() >= static_cast<std::size_t>(kSlices) || opt.small,
          "fleet_fec: only " + std::to_string(ticks.size()) + " ticks ran");

  r.attempted = ticks.size() * (1 + kSwapsPerTick);
  r.set("pkts_per_s", interquartile_mean(pkt_rates), "pkt/s");
  r.set("station_s_per_s", interquartile_mean(station_rates), "station-s/s");
  set_timings(r, tick_us, swap_us);
  r.set("bench.gen_lateness_p99_us", 0.0, "us");
  r.set("bench.harness_cpu_s", thread_cpu_s() - cpu0, "s");
  r.set("peak_rss_MB", peak_rss_mb(), "MB");
  built.fleet.reset();  // before the clock its events live on
  built.clock.reset();
  r.set("setup_s", median_setup(opt.small, build), "s");
  return r;
}

}  // namespace perfbench
