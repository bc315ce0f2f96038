// flow_reconfig: a proxy::FlowTable over a core::WorkerPool of
// min(nproc, 4) - 1 workers, with 256 flows of 320 B seed-derived packets.
//
// Control, throughout: a control client swaps FlowRules at kSwapRate
// through core::ControlManager (local transport). The rule table has one
// rule per group of kFlowsPerRule flows; a swap replaces one group's rule
// with a different composition, and the server's rules-changed hook
// re-resolves the table, which splices the group's flows in place.
// Data, phase A (saturation): a closed loop on the main thread keeps at
//   most kWindow packets per flow pushed but not yet at the flow's sink.
//   Packets at the sinks per second give pkts_per_s.
// Data, phase B (open loop): kOpenRate packets per second round-robin over
//   the flows -- each flow one of the paper's 50 pkt/s audio streams --
//   every 8th packet timed from when it was due to its sink. Swaps made in
//   this phase give reconfig_p50_us, read against the reference job
//   (common.h), which the control client runs after each of them: a swap
//   is CPU work on the control thread and the workers, and its time
//   follows the host's speed.
//
// Every composition the rotation uses is one whose every prefix is an
// identity, so each flow's output must equal its input across every swap.
//
// Inverse pairs: every kRoundSwaps swaps the control client also runs one
// probe per two-stage inverse pair (fec-encode+fec-decode, encrypt+decrypt,
// compress+decompress) on a flow of its own: splice the flow from null+null
// to the pair, push one packet and wait until the flow's worker has moved
// it as far as it goes, splice the flow back to null+null, and check that
// the packet came out once and unchanged. The probe's input does not
// depend on the seed. FlowTable swaps a chain one stage at a time (the old
// stages out back to front, then the new ones in), so on the swap back the
// decoder is gone before the encoder flushes the partial group it holds,
// and the flow emits FEC-framed packets instead of its packet: the
// fec-encode+fec-decode probe fails on every round and is counted in
// `failed`, not as a failed check. Under live traffic a packet that
// crosses the chain while one half of any pair is in place also leaves it
// transformed, but only now and then, so the rotation does not use the
// pairs (see CHANGES.md).
#include <condition_variable>
#include <iterator>
#include <map>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common.h"
#include "core/control.h"
#include "core/endpoint.h"
#include "core/filter_chain.h"
#include "core/filter_registry.h"
#include "core/flow_classifier.h"
#include "core/worker_pool.h"
#include "proxy/flow_table.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace rapidware;

constexpr std::size_t kPayload = 320;
constexpr std::uint64_t kWindow = 32;
constexpr std::uint32_t kFlowsPerRule = 4;
constexpr std::uint64_t kSampleEvery = 8;
constexpr std::size_t kStampSlots = 64;  // slots * kSampleEvery > any backlog
constexpr double kSwapRate = 50.0;      // rule swaps per second
constexpr double kStreamRate = 50.0;    // one paper audio stream, pkt/s
constexpr std::uint64_t kRoundSwaps = 16;  // rotation swaps per probe round

core::ChainSpec spec(const std::string& name,
                     std::vector<std::string> stages) {
  core::ChainSpec s;
  s.name = name;
  for (auto& st : stages) s.stages.push_back(core::FilterSpec{st, {}});
  return s;
}

/// The compositions a rule may hold. All have two stages, so every swap
/// is the same work (two stages out, two in) whichever pair the seed
/// picks.
std::vector<core::ChainSpec> identity_specs() {
  return {spec("stats-null", {"stats", "null"}),
          spec("null-stats", {"null", "stats"}),
          spec("stats-stats", {"stats", "stats"}),
          spec("null-null", {"null", "null"})};
}

/// The inverse pairs the probe splices in and out, each with whether the
/// program is known to fail it (see the header comment).
struct Pair {
  const char* name;
  const char* encode;
  const char* decode;
  bool known_fault;
};
constexpr Pair kPairs[] = {{"fec", "fec-encode", "fec-decode", true},
                           {"crypto", "encrypt", "decrypt", false},
                           {"compress", "compress", "decompress", false}};
constexpr std::uint64_t kProbeSeed = 0x70726f6265ULL;  // not --seed

/// The probe flow's sink: keeps what arrives for the probe to inspect.
class ProbeSink final : public core::PacketSink {
 public:
  void deliver(util::ByteSpan packet) override {
    std::lock_guard<std::mutex> lk(mu_);
    got_.emplace_back(packet.begin(), packet.end());
    cv_.notify_all();
  }
  /// Waits up to `timeout` for a first packet, then returns all of them.
  std::vector<util::Bytes> take(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, timeout, [&] { return !got_.empty(); });
    return std::exchange(got_, {});
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<util::Bytes> got_;
};

struct Waker {
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> waiting{false};
  std::atomic<std::uint64_t> wake_at{0};
  std::atomic<std::uint64_t> delivered{0};
};

class FlowSink final : public core::PacketSink {
 public:
  FlowSink(const PayloadBook& book, std::uint32_t flow, Waker& waker,
           bool plant)
      : book_(book), flow_(flow), waker_(waker), planter_(plant, 20, 30, 40) {}

  void deliver(util::ByteSpan packet) override {
    {
      const std::uint64_t n = delivered_.load(std::memory_order_relaxed);
      Span span(sampled("bench.sink.check", n), n);
      planter_.pass(packet, [this](util::ByteSpan p) {
        ledger_.record(book_, flow_, p);
      });
    }
    std::uint32_t s = 0;
    std::uint64_t seq = 0;
    if (PayloadBook::header(packet, &s, &seq) && seq % kSampleEvery == 0 &&
        recording.load(std::memory_order_acquire)) {
      const std::int64_t now = now_ns();
      const std::int64_t due = stamp[(seq / kSampleEvery) % kStampSlots];
      latency_us.push_back({now, static_cast<double>(now - due) / 1e3});
    }
    delivered_.fetch_add(1, std::memory_order_release);
    const std::uint64_t total = waker_.delivered.fetch_add(1) + 1;
    if (waker_.waiting.load() && total >= waker_.wake_at.load()) {
      std::lock_guard<std::mutex> lk(waker_.mu);
      waker_.cv.notify_one();
    }
  }

  std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }
  const StreamLedger& ledger() const { return ledger_; }

  // Due times of sampled packets, written by the generator before the push
  // of the packet they time (the flow's queue orders the two).
  std::int64_t stamp[kStampSlots] = {};
  std::atomic<bool> recording{false};
  std::vector<Sample> latency_us;  // the flow's worker only

 private:
  const PayloadBook& book_;
  const std::uint32_t flow_;
  Waker& waker_;
  FaultPlanter planter_;
  StreamLedger ledger_;
  std::atomic<std::uint64_t> delivered_{0};
};

struct Table {
  std::unique_ptr<core::WorkerPool> pool;
  core::FilterSpecTable specs;
  core::FlowClassifier clf{&specs};
  std::shared_ptr<core::ControlServer> server;
  std::unique_ptr<core::ControlManager> manager;
  std::vector<std::shared_ptr<FlowSink>> sinks;
  std::shared_ptr<ProbeSink> probe_sink = std::make_shared<ProbeSink>();
  std::unique_ptr<proxy::FlowTable> flows;
  std::vector<int> rule_spec;  // current spec index per rule

  ~Table() {
    if (flows) flows->shutdown_all();
    flows.reset();
    if (pool) pool->stop();
  }
};

core::FlowRule group_rule(std::uint32_t g, const core::ChainSpec& s) {
  core::FlowRule rule;
  rule.name = "group-" + std::to_string(g);
  rule.priority = 10;
  rule.station_lo = g * kFlowsPerRule;
  rule.station_hi = g * kFlowsPerRule + kFlowsPerRule - 1;
  rule.chain = s;
  return rule;
}

core::FlowKey key_of(std::uint32_t flow) {
  return {flow, "audio", core::LossRegime::kClean};
}

/// The probe flow's rule: station `probe` alone, `s` as its chain.
core::FlowRule probe_rule(std::uint32_t probe, const core::ChainSpec& s) {
  core::FlowRule rule;
  rule.name = "probe";
  rule.priority = 10;
  rule.station_lo = rule.station_hi = probe;
  rule.chain = s;
  return rule;
}

std::unique_ptr<Table> build(const Options& opt, std::uint32_t n_flows,
                             const PayloadBook& book, Waker& waker) {
  auto t = std::make_unique<Table>();
  t->pool = std::make_unique<core::WorkerPool>(std::max(1u, opt.workers - 1));
  auto dummy = std::make_shared<core::FilterChain>(
      std::make_shared<core::NullFilter>(), std::make_shared<core::NullFilter>());
  t->server = std::make_shared<core::ControlServer>(dummy);
  t->server->set_classifier(&t->clf);
  Table* raw = t.get();
  t->server->on_rules_changed([raw] {
    Span span("proxy.reresolve");
    raw->flows->reresolve();
  });
  t->manager = std::make_unique<core::ControlManager>(
      core::ControlManager::local(t->server));
  for (std::uint32_t f = 0; f < n_flows; ++f) {
    t->sinks.push_back(
        std::make_shared<FlowSink>(book, f, waker, opt.plant && f == 0));
  }
  t->flows = std::make_unique<proxy::FlowTable>(
      t->clf, core::global_registry(),
      [raw](const core::FlowKey& key) {
        proxy::FlowTable::Endpoints eps;
        eps.source = std::make_shared<core::QueuePacketSource>();
        eps.head = std::make_shared<core::PacketReaderEndpoint>("rx", eps.source);
        std::shared_ptr<core::PacketSink> sink;
        if (key.station < raw->sinks.size()) {
          sink = raw->sinks[key.station];
        } else {
          sink = raw->probe_sink;
        }
        eps.tail = std::make_shared<core::PacketWriterEndpoint>("tx", sink);
        return eps;
      },
      t->pool.get(), /*idle_timeout_ms=*/0);
  const auto specs = identity_specs();
  util::Rng rng(opt.seed ^ 0x72756c6573ULL);
  for (std::uint32_t g = 0; g < n_flows / kFlowsPerRule; ++g) {
    const int s = static_cast<int>(rng.next_below(specs.size()));
    t->rule_spec.push_back(s);
    t->manager->rule_add(group_rule(g, specs[s]));
  }
  t->manager->rule_add(probe_rule(n_flows, spec("null-null", {"null", "null"})));
  for (std::uint32_t f = 0; f <= n_flows; ++f) t->flows->acquire(key_of(f));
  return t;
}

/// One probe of `pair` on flow `probe` (see the header comment); true if
/// its packet came out once and unchanged. With `plant`, the packet of the
/// first probe (seq 1: the first encrypt+decrypt probe) gets a byte
/// flipped after it arrives.
bool probe_pair(Table& t, std::uint32_t probe, const Pair& pair,
                const PayloadBook& book, std::uint64_t seq, bool plant) {
  const core::FlowKey key = key_of(probe);
  core::EventLoop* const loop = t.flows->acquire(key)->host();
  // Every hop of the packet along the chain is a task on the flow's
  // worker, queued by the hop before it; each sync() waits out every task
  // queued before it, so kSettle of them outlast the chain's few hops.
  constexpr int kSettle = 16;
  const auto settle = [&] {
    for (int i = 0; i < kSettle; ++i) loop->sync();
  };
  {
    Span span("core.control.rule_add", seq);
    t.manager->rule_add(
        probe_rule(probe, spec(pair.name, {pair.encode, pair.decode})));
  }
  util::Bytes pkt;
  book.fill(probe, seq, pkt);
  t.flows->push(key, pkt);
  settle();
  {
    Span span("core.control.rule_add", seq);
    t.manager->rule_add(probe_rule(probe, spec("null-null", {"null", "null"})));
  }
  settle();
  std::vector<util::Bytes> got = t.probe_sink->take(std::chrono::seconds(2));
  settle();
  for (auto& p : t.probe_sink->take(std::chrono::milliseconds(0))) {
    got.push_back(std::move(p));
  }
  if (plant && seq == 1 && !got.empty()) got[0].back() ^= 0x5a;
  return got.size() == 1 && book.matches(got[0], probe, seq);
}

}  // namespace

Result run_flow_reconfig(const Options& opt) {
  Result r;
  const std::uint32_t n_flows = opt.small ? 32 : 256;
  const double open_rate = kStreamRate * n_flows;
  const double budget = opt.small ? 0.5 : opt.seconds;
  const PayloadBook book(opt.seed, kPayload);
  const PayloadBook probe_book(kProbeSeed, kPayload);

  auto waker = std::make_unique<Waker>();
  std::unique_ptr<Table> t = build(opt, n_flows, book, *waker);
  const std::uint64_t reconfigured0 = t->flows->reconfigured();

  const double warm = budget * 0.05, phase_a = budget * 0.45,
               phase_b = budget * 0.5;
  const auto t_start = Clock::now();
  const auto b_start =
      t_start + std::chrono::duration<double>(warm + phase_a);

  // Control client: open loop at kSwapRate, timed from the due time, in
  // rounds of kRoundSwaps swaps and one probe of each inverse pair. Once
  // the data phases end it finishes its round without waiting.
  std::vector<Sample> swap_us, reference_s;
  std::vector<double> lateness_us;
  std::uint64_t swaps = 0, probes = 0;
  std::map<std::string, std::uint64_t> probe_failures;  // by pair
  std::atomic<bool> stop_swaps{false};
  std::mutex swap_mu;
  std::condition_variable swap_cv;
  double control_cpu = 0.0;
  std::thread control([&] {
    util::Rng rng(opt.seed ^ 0x73776170ULL);
    const auto specs = identity_specs();
    for (std::uint64_t i = 0;; ++i) {
      if (i % kRoundSwaps == 0 && i > 0) {
        for (const Pair& pair : kPairs) {
          if (!probe_pair(*t, n_flows, pair, probe_book, probes++, opt.plant)) {
            ++probe_failures[pair.name];
          }
        }
      }
      if (i % kRoundSwaps == 0 && stop_swaps.load()) break;
      const auto due =
          t_start + std::chrono::duration<double>(static_cast<double>(i) / kSwapRate);
      bool stopping = false;
      {
        std::unique_lock<std::mutex> lk(swap_mu);
        stopping = swap_cv.wait_until(lk, due, [&] { return stop_swaps.load(); });
      }
      const auto g = static_cast<std::uint32_t>(rng.next_below(t->rule_spec.size()));
      int s = static_cast<int>(rng.next_below(specs.size() - 1));
      if (s >= t->rule_spec[g]) ++s;  // always a different composition
      t->rule_spec[g] = s;
      const auto a = Clock::now();
      {
        Span span("core.control.rule_add", i);
        t->manager->rule_add(group_rule(g, specs[s]));
      }
      if (a >= b_start && !stopping) {
        swap_us.push_back({now_ns(), seconds_since(a) * 1e6});
        reference_s.push_back({now_ns(), reference_job_cpu_s()});
      }
      ++swaps;
    }
    control_cpu = thread_cpu_s();
  });

  const double cpu0 = thread_cpu_s();
  std::vector<std::uint64_t> pushed(n_flows, 0);
  std::uint64_t total_pushed = 0;
  util::Bytes pkt;
  const auto push = [&](std::uint32_t f, std::int64_t due_ns) {
    const std::uint64_t seq = pushed[f]++;
    book.fill(f, seq, pkt);
    if (seq % kSampleEvery == 0) {
      t->sinks[f]->stamp[(seq / kSampleEvery) % kStampSlots] = due_ns;
    }
    Span span(sampled("proxy.flow_push", seq), seq);
    t->flows->push(key_of(f), pkt);
    ++total_pushed;
  };

  // Phase A: closed loop over every flow; rate read at kSlices + 1 instants.
  const auto a_window = t_start + std::chrono::duration<double>(warm);
  const auto slice = std::chrono::duration<double>(phase_a / kSlices);
  RateSlices rate;
  int marks = 0;
  while (marks <= kSlices) {
    const auto now = Clock::now();
    if (now >= a_window + slice * marks) {
      rate.mark(waker->delivered.load());
      ++marks;
      continue;
    }
    std::uint64_t pushed_now = 0;
    for (std::uint32_t f = 0; f < n_flows; ++f) {
      while (pushed[f] < t->sinks[f]->delivered() + kWindow) {
        push(f, now_ns());
        ++pushed_now;
      }
    }
    if (pushed_now == 0) {
      // Every window is full: sleep until a quarter of them drained.
      std::unique_lock<std::mutex> lk(waker->mu);
      waker->wake_at.store(total_pushed - n_flows * kWindow +
                           n_flows * kWindow / 4);
      waker->waiting.store(true);
      const bool moved = waker->cv.wait_for(lk, std::chrono::seconds(10), [&] {
        return waker->delivered.load() >= waker->wake_at.load();
      });
      waker->waiting.store(false);
      if (!moved) {
        r.fail("flow_reconfig: no flow drained for 10 s");
        break;
      }
    }
  }
  const double pps = rate.slice_rate();

  // Phase B: open loop, each packet timed from when it was due.
  for (auto& s : t->sinks) s->recording.store(true);
  const std::uint64_t n_open = static_cast<std::uint64_t>(phase_b * open_rate);
  for (std::uint64_t i = 0; i < n_open; ++i) {
    const auto due =
        b_start + std::chrono::duration<double>(static_cast<double>(i) / open_rate);
    std::this_thread::sleep_until(due);
    lateness_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - due).count());
    push(static_cast<std::uint32_t>(i % n_flows),
         std::chrono::duration_cast<std::chrono::nanoseconds>(due.time_since_epoch())
             .count());
  }
  const double gen_cpu = thread_cpu_s() - cpu0;
  {
    std::lock_guard<std::mutex> lk(swap_mu);
    stop_swaps.store(true);
    swap_cv.notify_all();
  }
  control.join();

  // Drain every flow (each stage flushes), then check every ledger.
  for (std::uint32_t f = 0; f < n_flows; ++f) {
    r.check(t->flows->expire(key_of(f)),
            "flow_reconfig: flow " + std::to_string(f) + " vanished");
  }
  std::vector<Sample> latency;
  for (std::uint32_t f = 0; f < n_flows; ++f) {
    t->sinks[f]->recording.store(false);
    t->sinks[f]->ledger().verify(pushed[f], "flow_reconfig flow " + std::to_string(f), r);
    latency.insert(latency.end(), t->sinks[f]->latency_us.begin(),
                   t->sinks[f]->latency_us.end());
  }
  r.check(!swap_us.empty(), "flow_reconfig: no rule swap completed");
  const std::uint64_t reconfigured = t->flows->reconfigured() - reconfigured0;
  r.check(reconfigured == kFlowsPerRule * swaps + 2 * probes,
          "flow_reconfig: " + std::to_string(reconfigured) +
              " flows spliced, not " + std::to_string(kFlowsPerRule) + " per " +
              std::to_string(swaps) + " swaps and 2 per " +
              std::to_string(probes) + " probes");
  for (const Pair& pair : kPairs) {
    const std::uint64_t n = probe_failures[pair.name];
    if (n == 0) continue;
    r.failed += n;
    const std::string what = "flow_reconfig: " + std::to_string(n) + " of " +
                             std::to_string(probes / std::size(kPairs)) + " " +
                             pair.encode + "+" + pair.decode +
                             " probes changed the flow's packet";
    if (pair.known_fault) {
      std::printf("KNOWN FAULT: %s\n", what.c_str());
    } else {
      r.fail(what);
    }
  }
  r.check(!latency.empty(), "flow_reconfig: no latency sample");
  std::printf(
      "flow_reconfig: flows=%u pushed=%llu swaps=%llu probes=%llu "
      "reconfigured_flows=%llu\n",
      n_flows, static_cast<unsigned long long>(total_pushed),
      static_cast<unsigned long long>(swaps),
      static_cast<unsigned long long>(probes),
      static_cast<unsigned long long>(reconfigured));

  // An operation is one rule swap or one probe; the packets are checked
  // as part of them (a ledger failure also fails the run).
  r.attempted = swaps + probes;
  r.set("pkts_per_s", pps, "pkt/s");
  r.set("station_s_per_s", pps / kStreamRate, "station-s/s");
  set_timings(r, latency, against_reference(swap_us, reference_s));
  r.set("bench.gen_lateness_p99_us", percentile(lateness_us, 99), "us");
  r.set("bench.harness_cpu_s", gen_cpu + control_cpu, "s");
  r.set("peak_rss_MB", peak_rss_mb(), "MB");
  t.reset();
  Waker spare;
  r.set("setup_s", median_setup(opt.small, [&] {
          return build(opt, n_flows, book, spare);
        }),
        "s");
  return r;
}

}  // namespace perfbench
