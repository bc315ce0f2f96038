// chain_fanout: 2 * min(nproc, 4) event-hosted FilterChains on a
// core::WorkerPool of min(nproc, 4) workers, placed by the pool's own
// least-loaded next(). Each chain is an always-ready source -> 8
// pass-through packet stages -> sink, carrying 1 KiB seed-derived packets.
// No socket, no FEC, no control protocol.
//
// The run is kSlices rounds of three parts:
// Flood: every source is always ready; packets at the sinks per second
//   give pkts_per_s.
// Ping: chain 0's source holds back until its last packet reached the
//   sink, so one packet at a time crosses it while the other chains hold;
//   source-to-sink time of each is the chain's traversal latency without
//   queueing. The whole traversal runs on chain 0's worker, one thread, so
//   it is read against the reference job (common.h), which the main thread
//   runs kRefsPerRound times before each round's pings.
// Splice: still pinging, the main thread splices a pass-through stage into
//   the middle of each live chain in turn and removes it again
//   (FilterChain::insert/remove), timing each pair.
#include <cstdio>
#include <mutex>
#include <thread>

#include "core/endpoint.h"
#include "core/filter.h"
#include "core/filter_chain.h"
#include "core/worker_pool.h"
#include "fanout.h"
#include "obs/metrics.h"
#include "util/buffer_pool.h"

namespace perfbench {
namespace {

using namespace rapidware;

constexpr std::size_t kRing = 16384;
constexpr std::uint64_t kPingSampleEvery = 16;
constexpr int kRefsPerRound = 3;

// kHold: the source produces nothing until the mode changes.
enum class Mode : int { kFlood, kPing, kHold, kStop };

/// State one chain's source and sink share. Both run on the chain's
/// worker; the mutex only orders the source's readiness arming against
/// the main thread's mode changes and the sink's wake-up.
struct Link {
  std::atomic<Mode> mode{Mode::kFlood};
  std::mutex mu;
  core::Scheduler* sched = nullptr;  // guarded by mu
  bool armed = false;                // guarded by mu
  bool ended = false;                // guarded by mu
  std::int64_t ping_sent_ns = 0;     // guarded by mu
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> delivered{0};
  std::vector<Sample> latency_us;  // guarded by mu
  std::uint64_t pings = 0;         // guarded by mu
  std::atomic<bool> timing{false};  // set by the main thread

  /// Fires the source's readiness watcher if it is armed. Requires mu.
  void wake_locked() {
    if (armed && sched != nullptr) {
      armed = false;
      sched->on_readable();
    }
  }
};

class FanoutSource final : public core::PacketSource {
 public:
  FanoutSource(const PayloadBook& book, std::uint32_t stream, Link& link)
      : book_(book), stream_(stream), link_(link) {}

  std::optional<util::Bytes> next_packet() override {
    bool finished = false;
    return poll_packet(&finished);
  }
  bool pollable() const override { return true; }
  void set_scheduler(core::Scheduler* sched) override {
    std::lock_guard<std::mutex> lk(link_.mu);
    link_.sched = sched;
  }

  std::optional<util::Bytes> poll_packet(bool* finished) override {
    *finished = false;
    const std::uint64_t seq = link_.produced.load(std::memory_order_relaxed);
    if (link_.mode.load(std::memory_order_acquire) != Mode::kFlood) {
      std::lock_guard<std::mutex> lk(link_.mu);
      if (link_.mode.load(std::memory_order_acquire) == Mode::kStop) {
        link_.ended = true;
        *finished = true;
        return std::nullopt;
      }
      if (link_.mode.load(std::memory_order_acquire) == Mode::kHold ||
          link_.delivered.load(std::memory_order_acquire) < seq) {
        link_.armed = true;  // held, or a packet in flight: woken later
        return std::nullopt;
      }
      link_.ping_sent_ns = now_ns();
    }
    util::Bytes b;
    {
      Span span(sampled("util.pool.acquire", seq), seq);
      b = util::BufferPool::local().acquire(book_.size());
    }
    book_.fill(stream_, seq, b);
    link_.produced.store(seq + 1, std::memory_order_release);
    return b;
  }

 private:
  const PayloadBook& book_;
  const std::uint32_t stream_;
  Link& link_;
};

class FanoutSink final : public core::PacketSink {
 public:
  FanoutSink(const PayloadBook& book, std::uint32_t stream, Link& link,
             bool plant)
      : book_(book), stream_(stream), link_(link), planter_(plant, 100, 200, 300) {}

  void deliver(util::ByteSpan packet) override {
    {
      const std::uint64_t n = link_.delivered.load(std::memory_order_relaxed);
      Span span(sampled("bench.sink.check", n), n);
      planter_.pass(packet, [this](util::ByteSpan p) {
        ledger_.record(book_, stream_, p);
      });
    }
    link_.delivered.fetch_add(1, std::memory_order_release);
    if (link_.mode.load(std::memory_order_acquire) != Mode::kFlood) {
      const std::int64_t now = now_ns();
      std::lock_guard<std::mutex> lk(link_.mu);
      // Pings are timed only between splices: a splice stalls the ping
      // behind it.
      if (link_.ping_sent_ns != 0 && link_.timing.load() &&
          link_.delivered.load(std::memory_order_relaxed) ==
              link_.produced.load(std::memory_order_relaxed)) {
        // Every kPingSampleEvery-th ping is kept: all of them would make
        // the harness's sample store a large, speed-dependent share of
        // peak_rss_MB.
        if (link_.pings++ % kPingSampleEvery == 0) {
          link_.latency_us.push_back(
              {now, static_cast<double>(now - link_.ping_sent_ns) / 1e3});
        }
        link_.ping_sent_ns = 0;
      }
      link_.wake_locked();
    }
  }

  const StreamLedger& ledger() const { return ledger_; }

 private:
  const PayloadBook& book_;
  const std::uint32_t stream_;
  Link& link_;
  FaultPlanter planter_;
  StreamLedger ledger_;
};

class PassThrough final : public core::PacketFilter {
 public:
  using PacketFilter::PacketFilter;

 protected:
  void on_packet(util::Bytes packet) override { emit(std::move(packet)); }
};

struct Job {
  std::unique_ptr<core::WorkerPool> pool;
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::shared_ptr<FanoutSink>> sinks;
  std::vector<std::unique_ptr<core::FilterChain>> chains;

  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const auto& l : links) n += l->delivered.load(std::memory_order_relaxed);
    return n;
  }
  void set_mode(Mode mode) {
    for (auto& l : links) set_mode(*l, mode);
  }
  static void set_mode(Link& l, Mode mode) {
    std::lock_guard<std::mutex> lk(l.mu);
    l.mode.store(mode, std::memory_order_release);
    l.ping_sent_ns = 0;
    l.wake_locked();
  }
};

std::unique_ptr<Job> start_job(const FanoutConfig& cfg, const PayloadBook& book,
                               bool bind) {
  auto job = std::make_unique<Job>();
  job->pool = std::make_unique<core::WorkerPool>(cfg.workers);
  if (bind) job->pool->bind_metrics(obs::registry(), "bench-fanout");
  for (unsigned c = 0; c < cfg.chains; ++c) {
    auto link = std::make_unique<Link>();
    auto source = std::make_shared<FanoutSource>(book, c, *link);
    auto sink = std::make_shared<FanoutSink>(book, c, *link, cfg.plant && c == 0);
    auto chain = std::make_unique<core::FilterChain>(
        std::make_shared<core::PacketReaderEndpoint>("rx", source, kRing),
        std::make_shared<core::PacketWriterEndpoint>("tx", sink, kRing));
    for (unsigned f = 0; f < cfg.stages; ++f) {
      chain->insert(std::make_shared<PassThrough>("p" + std::to_string(f), kRing),
                    f);
    }
    if (bind && c == 0) chain->bind_metrics(obs::registry(), "bench-fanout-chain0");
    chain->host_on(job->pool->next());
    chain->start();
    job->links.push_back(std::move(link));
    job->sinks.push_back(std::move(sink));
    job->chains.push_back(std::move(chain));
  }
  return job;
}

/// Ends every source, waits until every sink has taken everything its
/// source produced, checks the ledgers and tears the job down. A finished
/// head leaves its output connected (the removal protocol), so the sinks
/// never see an end of stream here; the wait is on the counts instead.
void finish_job(Job& job, Result& checks, bool verify) {
  job.set_mode(Mode::kStop);
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  for (std::size_t c = 0; c < job.chains.size(); ++c) {
    Link& l = *job.links[c];
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(l.mu);
        if (l.ended && l.delivered.load() == l.produced.load()) break;
      }
      if (Clock::now() > deadline) {
        checks.fail("chain_fanout: chain " + std::to_string(c) +
                    " did not drain within 20 s");
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (verify) {
    for (std::size_t c = 0; c < job.chains.size(); ++c) {
      job.sinks[c]->ledger().verify(job.links[c]->produced.load(),
                                    "chain_fanout chain " + std::to_string(c),
                                    checks);
    }
  }
  for (auto& chain : job.chains) chain->begin_shutdown();
  job.chains.clear();
  job.pool->stop();
}

double row_value(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& e : snap) {
    if (e.name == name) return std::strtod(e.value.c_str(), nullptr);
  }
  return -1.0;
}

/// The main thread's waits: blocked, so it takes no core from the workers.
void wait_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

}  // namespace

FanoutStats run_fanout(const FanoutConfig& cfg, Result& checks) {
  FanoutStats st;
  const PayloadBook book(cfg.seed, cfg.payload);
  std::unique_ptr<Job> job = start_job(cfg, book, cfg.bind_metrics);

  const auto pool_hits = [&](std::uint64_t* hits, std::uint64_t* misses) {
    *hits = *misses = 0;
    for (std::size_t w = 0; w < job->pool->size(); ++w) {
      const auto s = job->pool->worker(w).pool().stats();
      *hits += s.hits;
      *misses += s.misses;
    }
  };

  // Rounds of flood, ping and splice, so that each figure is averaged over
  // the same stretch of the run rather than over a phase of its own.
  wait_s(cfg.warm_s);
  std::uint64_t h0 = 0, m0 = 0, h1 = 0, m1 = 0;
  pool_hits(&h0, &m0);
  const std::uint64_t locks0 = util::default_pool().lock_acquires();
  obs::Snapshot before;
  if (cfg.bind_metrics) before = obs::registry().snapshot("bench-fanout");
  std::vector<double> rates;
  const unsigned pos = cfg.stages / 2;
  std::size_t splice = 0;
  Link& pinger = *job->links[0];
  for (int round = 0; round < cfg.rounds; ++round) {
    // Flood, timed after a tenth of the window (the chains refill).
    job->set_mode(Mode::kFlood);
    wait_s(cfg.window_s / cfg.rounds * 0.1);
    const std::uint64_t n0 = job->delivered();
    const auto ta = Clock::now();
    wait_s(cfg.window_s / cfg.rounds * 0.9);
    rates.push_back(static_cast<double>(job->delivered() - n0) / seconds_since(ta));

    // Ping: only chain 0 pings; the others hold, so each ping crosses an
    // otherwise idle pool and its time is the chain's own traversal cost.
    job->set_mode(Mode::kHold);
    Job::set_mode(pinger, Mode::kPing);
    for (int i = 0; i < kRefsPerRound; ++i) {
      st.reference_s.push_back({now_ns(), reference_job_cpu_s()});
    }
    pinger.timing.store(true);
    wait_s(cfg.ping_s / cfg.rounds);
    pinger.timing.store(false);

    // Splice, still pinging.
    const auto splice_end =
        Clock::now() + std::chrono::duration<double>(cfg.splice_s / cfg.rounds);
    for (; cfg.splice_s > 0.0 && Clock::now() < splice_end; ++splice) {
      core::FilterChain& chain = *job->chains[splice % job->chains.size()];
      const auto t0 = Clock::now();
      {
        Span span("core.chain.insert", splice);
        chain.insert(std::make_shared<PassThrough>("splice", kRing), pos);
      }
      const auto t1 = Clock::now();
      {
        Span span("core.chain.remove", splice);
        chain.remove(pos);
      }
      const std::int64_t now = now_ns();
      st.insert_us.push_back(
          {now, std::chrono::duration<double, std::micro>(t1 - t0).count()});
      st.remove_us.push_back({now, seconds_since(t1) * 1e6});
    }
  }
  pool_hits(&h1, &m1);
  st.global_locks = util::default_pool().lock_acquires() - locks0;
  st.pps = interquartile_mean(rates);
  const std::uint64_t dh = h1 - h0, dm = m1 - m0;
  st.pool_hit_rate =
      dh + dm == 0 ? 0.0 : static_cast<double>(dh) / static_cast<double>(dh + dm);
  if (cfg.bind_metrics) {
    const obs::Snapshot after = obs::registry().snapshot("bench-fanout");
    for (std::size_t w = 0; w < job->pool->size(); ++w) {
      const std::string base = "bench-fanout/worker/" + std::to_string(w) + "/";
      const std::string i = std::to_string(w);
      st.rows["core.worker_tasks_run." + i] =
          row_value(after, base + "tasks_run") - row_value(before, base + "tasks_run");
      st.rows["core.worker_busy." + i] = row_value(after, base + "busy");
      double on = 0;
      for (const auto& chain : job->chains) {
        on += chain->host() == &job->pool->worker(w) ? 1 : 0;
      }
      st.rows["core.chains_on_worker." + i] = on;
    }
  }
  if (cfg.bind_metrics) {
    const obs::Snapshot snap = obs::registry().snapshot("bench-fanout-chain0");
    st.rows["core.chain_reconfig_us.p50"] =
        row_value(snap, "bench-fanout-chain0/reconfig_us.p50");
    st.rows["core.chain_reconfig_us.p99"] =
        row_value(snap, "bench-fanout-chain0/reconfig_us.p99");
  }

  finish_job(*job, checks, true);
  st.delivered = job->delivered();
  st.latency_us = pinger.latency_us;
  st.peak_rss_mb = peak_rss_mb();
  job.reset();
  st.setup_s = median_setup(cfg.small_setup, [&] {
    // A job that is torn down again without being checked.
    struct Drop {
      std::unique_ptr<Job> job;
      Result& checks;
      ~Drop() { finish_job(*job, checks, false); }
    };
    return Drop{start_job(cfg, book, false), checks};
  });
  return st;
}

Result run_chain_fanout(const Options& opt) {
  Result r;
  FanoutConfig cfg;
  cfg.workers = opt.workers;
  cfg.chains = opt.chains;
  cfg.stages = 8;
  cfg.payload = 1024;
  cfg.seed = opt.seed;
  cfg.plant = opt.plant;
  const double budget = opt.small ? 0.5 : opt.seconds;
  cfg.warm_s = budget * 0.05;
  cfg.window_s = budget * 0.55;
  cfg.ping_s = budget * 0.15;
  cfg.splice_s = budget * 0.2;
  cfg.rounds = opt.small ? 2 : kSlices;
  cfg.small_setup = opt.small;
  const double cpu0 = thread_cpu_s();
  FanoutStats st = run_fanout(cfg, r);
  // One sample is one splice in and out (see audio.cpp).
  std::vector<Sample> reconfig;
  for (std::size_t i = 0; i < st.insert_us.size(); ++i) {
    reconfig.push_back({st.insert_us[i].t_ns, st.insert_us[i].v + st.remove_us[i].v});
  }
  r.check(!st.latency_us.empty(), "chain_fanout: no latency sample");
  r.check(!reconfig.empty(), "chain_fanout: no splice completed");
  std::printf("chain_fanout: delivered=%llu\n",
              static_cast<unsigned long long>(st.delivered));
  r.attempted = st.delivered + reconfig.size();
  r.set("setup_s", st.setup_s, "s");
  r.set("pkts_per_s", st.pps, "pkt/s");
  r.set("station_s_per_s", st.pps / 50.0, "station-s/s");
  set_timings(r, against_reference(st.latency_us, st.reference_s), reconfig);
  r.set("bench.gen_lateness_p99_us", 0.0, "us");
  r.set("bench.harness_cpu_s", thread_cpu_s() - cpu0, "s");
  r.set("peak_rss_MB", st.peak_rss_mb, "MB");
  return r;
}

}  // namespace perfbench
