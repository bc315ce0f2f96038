// The per-layer cost ladder, walked by every traced run.
//
// Each rung times calls into one layer's public functions from outside, at
// 64 B, 320 B and 1 KiB where the size matters, and reports the median of
// kReps repetitions (the quartiles go to stdout). Reading adjacent rungs
// against each other gives a layer's own per-packet cost: framed_hop minus
// ring is framing, stage_ns is one more event-hosted hop, and so on.
// Counters come from the program's own obs::Registry rows.
#include <cstdio>
#include <thread>

#include "common.h"
#include "core/control.h"
#include "core/detachable_stream.h"
#include "core/endpoint.h"
#include "core/event_loop.h"
#include "core/filter_chain.h"
#include "core/filter_registry.h"
#include "core/flow_classifier.h"
#include "core/worker_pool.h"
#include "fanout.h"
#include "fec/fec_group.h"
#include "filters/fec_filters.h"
#include "net/link.h"
#include "net/loss.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "proxy/flow_table.h"
#include "proxy/proxy.h"
#include "raplets/fec_policy.h"
#include "sim/virtual_clock.h"
#include "util/buffer_pool.h"
#include "util/bytes.h"
#include "util/frame_reader.h"
#include "util/framing.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace rapidware;

constexpr int kReps = 5;

struct Size {
  std::size_t bytes;
  const char* label;
};
constexpr Size kSizes[] = {{64, "64"}, {320, "320"}, {1024, "1k"}};

inline void keep(const void* p) { asm volatile("" : : "r"(p) : "memory"); }

/// Runs `once` kReps times; records the median under `name` and prints the
/// quartiles.
template <typename F>
double rung(Result& out, const std::string& name, const char* unit, F&& once) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) {
    Span span("ladder.rung");
    v.push_back(once());
  }
  std::vector<double> sorted = v;
  const double q1 = percentile(sorted, 25), q3 = percentile(sorted, 75);
  const double med = median(v);
  std::printf("ladder %-32s median=%.6g q1=%.6g q3=%.6g %s (n=%d)\n",
              name.c_str(), med, q1, q3, unit, kReps);
  out.set(name, med, unit);
  return med;
}

template <typename F>
double ns_per_op(std::size_t ops, F&& body) {
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < ops; ++i) body(i);
  return static_cast<double>(now_ns() - t0) / static_cast<double>(ops);
}

// --- util ----------------------------------------------------------------

void util_rungs(Result& out) {
  for (const Size& s : kSizes) {
    util::Bytes src(s.bytes, 0xab), dst(s.bytes, 0);
    rung(out, std::string("util.memcpy_ns.") + s.label, "ns", [&] {
      return ns_per_op(200'000, [&](std::size_t i) {
        src[0] = static_cast<std::uint8_t>(i);
        std::memcpy(dst.data(), src.data(), s.bytes);
        keep(dst.data());
      });
    });
    util::ByteRing ring(64 * 1024);
    rung(out, std::string("util.ring_ns.") + s.label, "ns", [&] {
      return ns_per_op(200'000, [&](std::size_t) {
        ring.write(util::ByteSpan(src));
        ring.read(util::MutableByteSpan(dst));
        keep(dst.data());
      });
    });
  }
  rung(out, "util.pool_ns", "ns", [&] {
    util::BufferPool& pool = util::BufferPool::local();
    return ns_per_op(200'000, [&](std::size_t) {
      util::Bytes b = pool.acquire(1024);
      keep(b.data());
      pool.release(std::move(b));
    });
  });
}

// --- core: framed hop, loop dispatch, splice primitives ------------------

void framed_rungs(Result& out) {
  constexpr std::size_t kBatch = 32;
  for (const Size& s : kSizes) {
    core::DetachableOutputStream dos;
    core::DetachableInputStream dis(64 * 1024);
    core::connect(dos, dis);
    util::FrameReader reader(dis);
    const util::Bytes payload(s.bytes, 0x5a);
    rung(out, std::string("core.framed_hop_ns.") + s.label, "ns", [&] {
      const std::int64_t t0 = now_ns();
      std::size_t n = 0;
      for (int b = 0; b < 4000; ++b) {
        for (std::size_t i = 0; i < kBatch; ++i) util::write_frame(dos, payload);
        for (std::size_t i = 0; i < kBatch; ++i) {
          auto f = reader.next();
          keep(f->data());
          ++n;
        }
      }
      return static_cast<double>(now_ns() - t0) / static_cast<double>(n);
    });
    if (s.bytes == 1024) {
      out.set("core.frames_per_refill",
              static_cast<double>(reader.frames()) /
                  static_cast<double>(std::max<std::uint64_t>(reader.refills(), 1)),
              "ratio");
    }
    dos.close();
  }

  core::WorkerPool pool(1);
  core::EventLoop& loop = pool.worker(0);
  rung(out, "core.loop_dispatch_ns", "ns", [&] {
    constexpr std::size_t kTasks = 100'000;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kTasks; ++i) loop.post([] {});
    loop.sync();
    return static_cast<double>(now_ns() - t0) / kTasks;
  });
  pool.stop();

  core::DetachableOutputStream dos;
  core::DetachableInputStream dis;
  core::connect(dos, dis);
  rung(out, "core.pause_reconnect_us", "us", [&] {
    constexpr int kOps = 2000;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kOps; ++i) {
      dos.pause();
      dos.reconnect(dis);
    }
    return static_cast<double>(now_ns() - t0) / kOps / 1e3;
  });
  dos.close();
}

// --- core: chains on workers ----------------------------------------------

double fanout_ns_per_pkt(const Options& opt, unsigned stages, std::size_t payload,
                         Result& checks) {
  FanoutConfig c;
  c.workers = 1;
  c.chains = 1;
  c.stages = stages;
  c.payload = payload;
  c.warm_s = 0.03;
  c.window_s = 0.12;
  c.seed = opt.seed;
  const FanoutStats st = run_fanout(c, checks);
  return 1e9 / st.pps;
}

void chain_rungs(const Options& opt, Result& out) {
  // Null PacketFilter drive: one pass-through stage at 64 B over none.
  rung(out, "core.drive_ns", "ns", [&] {
    return fanout_ns_per_pkt(opt, 1, 64, out) - fanout_ns_per_pkt(opt, 0, 64, out);
  });
  for (const Size& s : {kSizes[1], kSizes[2]}) {
    rung(out, std::string("core.stage_ns.") + s.label, "ns", [&] {
      return (fanout_ns_per_pkt(opt, 8, s.bytes, out) -
              fanout_ns_per_pkt(opt, 0, s.bytes, out)) /
             8.0;
    });
  }

  // The chain_fanout job on one worker: the single-worker baseline.
  FanoutConfig one;
  one.workers = 1;
  one.chains = opt.chains;
  one.stages = 8;
  one.payload = 1024;
  one.warm_s = 0.05;
  one.window_s = 0.2;
  one.seed = opt.seed;
  std::vector<double> hit, locks;
  rung(out, "core.chain_pps_1w", "pkt/s", [&] {
    const FanoutStats st = run_fanout(one, out);
    hit.push_back(st.pool_hit_rate);
    locks.push_back(static_cast<double>(st.global_locks));
    return st.pps;
  });
  out.set("core.pool_hit_rate", median(hit), "ratio");
  out.set("core.global_pool_locks", median(locks), "count");

  // The job on every worker, with the pool's rows bound, then live splices.
  FanoutConfig all = one;
  all.workers = opt.workers;
  all.window_s = 0.3;
  all.splice_s = 0.3;
  all.bind_metrics = true;
  FanoutStats st = run_fanout(all, out);
  for (const auto& [name, v] : st.rows) {
    out.set(name, v, name.find("busy") != std::string::npos ? "ratio"
                     : name.find("reconfig") != std::string::npos ? "us"
                                                                   : "count");
  }
  out.set("core.splice_insert_us", median(values(st.insert_us)), "us");
  out.set("core.splice_remove_us", median(values(st.remove_us)), "us");
}

// --- core + proxy: classification, control, flow table ----------------------

void flow_rungs(const Options& opt, Result& out) {
  core::FilterSpecTable table;
  core::FlowClassifier clf(&table);
  for (std::uint32_t g = 0; g < 64; ++g) {
    core::FlowRule rule;
    rule.name = "r" + std::to_string(g);
    rule.station_lo = g * 4;
    rule.station_hi = g * 4 + 3;
    rule.chain.name = g % 2 == 0 ? "stats" : "passthrough";
    if (g % 2 == 0) rule.chain.stages.push_back(core::FilterSpec{"stats", {}});
    clf.add_rule(rule);
  }
  util::Rng rng(opt.seed);
  rung(out, "core.resolve_ns", "ns", [&] {
    return ns_per_op(100'000, [&](std::size_t) {
      const core::FlowKey key{static_cast<std::uint32_t>(rng.next_below(256)),
                              "audio", core::LossRegime::kClean};
      auto spec = clf.resolve(key);
      keep(spec.get());
    });
  });

  auto dummy = std::make_shared<core::FilterChain>(
      std::make_shared<core::NullFilter>(), std::make_shared<core::NullFilter>());
  auto server = std::make_shared<core::ControlServer>(dummy);
  core::ControlManager manager = core::ControlManager::local(server);
  rung(out, "core.control_rtt_us", "us", [&] {
    return ns_per_op(20'000, [&](std::size_t) {
             auto chain = manager.list_chain();
             keep(chain.data());
           }) /
           1e3;
  });

  // FlowTable::push into live pool-hosted flows, and flows spliced per
  // rule swap (4 flows per rule, as in flow_reconfig).
  core::WorkerPool pool(1);
  struct Counter final : core::PacketSink {
    std::atomic<std::uint64_t> n{0};
    void deliver(util::ByteSpan) override { n.fetch_add(1); }
  };
  auto counter = std::make_shared<Counter>();
  {
    proxy::FlowTable flows(clf, core::global_registry(),
                           proxy::FlowTable::queue_endpoints(counter), &pool, 0);
    const util::Bytes pkt(320, 0x11);
    std::uint64_t pushed = 0;
    rung(out, "proxy.flow_push_ns", "ns", [&] {
      const double ns = ns_per_op(20'000, [&](std::size_t i) {
        flows.push({static_cast<std::uint32_t>(i % 16), "audio",
                    core::LossRegime::kClean},
                   pkt);
      });
      pushed += 20'000;
      // Let the flows drain before the next repetition.
      while (counter->n.load() < pushed) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return ns;
    });
    std::vector<double> per_swap;
    for (int i = 0; i < kReps; ++i) {
      core::FlowRule rule;
      rule.name = "r0";
      rule.station_lo = 0;
      rule.station_hi = 3;
      rule.chain.name = i % 2 == 0 ? "passthrough-0" : "stats-0";
      if (i % 2 != 0) rule.chain.stages.push_back(core::FilterSpec{"stats", {}});
      clf.add_rule(rule);
      per_swap.push_back(static_cast<double>(flows.reresolve()));
    }
    out.set("proxy.flows_per_swap", median(per_swap), "count");
    flows.shutdown_all();
  }
  pool.stop();
}

// --- net, fec, raplets, sim -------------------------------------------------

void net_fec_rungs(const Options& opt, Result& out) {
  net::SimNetwork net(nullptr, opt.seed);
  const auto a = net.add_node("a"), b = net.add_node("b");
  auto tx = net.open(a), rx = net.open(b, 7000);
  for (const Size& s : {kSizes[1], kSizes[2]}) {
    const util::Bytes payload(s.bytes, 0x33);
    rung(out, std::string("net.send_recv_ns.") + s.label, "ns", [&] {
      return ns_per_op(50'000, [&](std::size_t) {
        tx->send_to({b, 7000}, payload);
        auto d = rx->recv(1000);
        keep(d ? d->payload.data() : nullptr);
      });
    });
  }
  net::ChannelConfig cc;
  cc.loss = net::GilbertElliottLoss::with_average(0.0146, 1.2, 0.5);
  net::Channel channel(cc, util::Rng(opt.seed));
  rung(out, "net.transit_ns", "ns", [&] {
    return ns_per_op(200'000, [&](std::size_t i) {
      auto t = channel.transit(320, static_cast<util::Micros>(i));
      keep(&t);
    });
  });
  auto ge = net::GilbertElliottLoss::with_average(0.0146, 1.2, 0.5);
  util::Rng rng(opt.seed);
  rung(out, "net.ge_drop_ns", "ns", [&] {
    std::uint64_t drops = 0;
    const double ns = ns_per_op(500'000, [&](std::size_t) { drops += ge->drop(rng); });
    keep(&drops);
    return ns;
  });

  for (const Size& s : {kSizes[1], kSizes[2]}) {
    const util::Bytes payload(s.bytes, 0x44);
    rung(out, std::string("fec.encode_ns.") + s.label, "ns", [&] {
      fec::GroupEncoder enc(6, 4);
      return ns_per_op(100'000, [&](std::size_t) {
        auto wire = enc.add(payload);
        keep(wire.data());
      });
    });
    // One erasure per group, rotating over all six positions.
    constexpr std::size_t kGroups = 25'000;
    std::vector<util::Bytes> wire;
    fec::GroupEncoder enc(6, 4);
    for (std::size_t g = 0; g < kGroups; ++g) {
      for (int i = 0; i < 4; ++i) {
        auto pkts = enc.add(payload);
        for (std::size_t j = 0; j < pkts.size(); ++j) {
          if (j != g % 6) wire.push_back(std::move(pkts[j]));
        }
      }
    }
    std::uint64_t recovered = 0;
    rung(out, std::string("fec.decode_ns.") + s.label, "ns", [&] {
      fec::GroupDecoder dec;
      std::size_t released = 0;
      const std::int64_t t0 = now_ns();
      for (const auto& w : wire) released += dec.add(w).size();
      released += dec.flush().size();
      recovered = dec.stats().data_recovered;
      return static_cast<double>(now_ns() - t0) / static_cast<double>(released);
    });
    if (s.bytes == 320) out.set("fec.reconstructed", static_cast<double>(recovered), "count");
  }

  raplets::FecPolicy policy;
  rung(out, "raplets.policy_ns", "ns", [&] {
    return ns_per_op(500'000, [&](std::size_t i) {
      const double loss = (i / 1000) % 2 == 0 ? 0.001 : 0.03;
      auto d = policy.update(static_cast<util::Micros>(i) * 20'000, loss);
      keep(&d);
    });
  });
  rung(out, "sim.clock_event_ns", "ns", [&] {
    sim::VirtualClock clock;
    constexpr std::size_t kEvents = 1000;
    const std::int64_t t0 = now_ns();
    for (int round = 0; round < 100; ++round) {
      for (std::size_t i = 0; i < kEvents; ++i) {
        clock.schedule_after(static_cast<util::Micros>(i + 1), [] {});
      }
      clock.run_for(static_cast<util::Micros>(kEvents + 1));
    }
    return static_cast<double>(now_ns() - t0) / (100.0 * kEvents);
  });
}

// --- proxy STATS rows, obs snapshot -------------------------------------------

void proxy_rungs(const Options& opt, Result& out) {
  constexpr std::uint64_t kPackets = 4000;
  net::SimNetwork net(nullptr, opt.seed);
  const auto sender = net.add_node("sender"), node = net.add_node("proxy"),
             station = net.add_node("station");
  auto rx = net.open(station, 5000);
  auto tx = net.open(sender);
  proxy::ProxyConfig pc;
  pc.name = "bench-ladder-proxy";
  pc.egress_dst = {station, 5000};
  proxy::Proxy proxy(net, node, pc);
  proxy.start();
  proxy.chain().insert(std::make_shared<filters::FecEncodeFilter>(6, 4), 0);
  const util::Bytes pkt(320, 0x55);
  for (std::uint64_t i = 0; i < kPackets; ++i) tx->send_to({node, 4000}, pkt);
  std::uint64_t got = 0;
  while (got < kPackets / 4 * 6 && rx->recv(2000)) ++got;
  core::ControlManager manager(
      proxy::network_control_transport(net, sender, proxy.control_address()));
  for (const auto& [k, v] : manager.stats(pc.name)) {
    if (k == pc.name + "/ingress/packets") {
      out.set("proxy.ingress_packets", std::strtod(v.c_str(), nullptr), "count");
    } else if (k == pc.name + "/egress/packets") {
      out.set("proxy.egress_packets", std::strtod(v.c_str(), nullptr), "count");
    }
  }
  rung(out, "obs.snapshot_us", "us", [&] {
    const std::int64_t t0 = now_ns();
    constexpr int kSnaps = 200;
    std::size_t rows = 0;
    for (int i = 0; i < kSnaps; ++i) rows += obs::registry().snapshot().size();
    keep(&rows);
    return static_cast<double>(now_ns() - t0) / kSnaps / 1e3;
  });
  proxy.shutdown();
}

}  // namespace

void run_ladder(const Options& opt, Result& out) {
  util_rungs(out);
  framed_rungs(out);
  chain_rungs(opt, out);
  flow_rungs(opt, out);
  net_fec_rungs(opt, out);
  proxy_rungs(opt, out);
}

}  // namespace perfbench
