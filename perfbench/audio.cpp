// audio_fec_proxy: the paper's Section 5 path.
//
//   sender --> proxy::Proxy [ingress SimSocket -> fec-encode(6,4) -> egress]
//          --> WirelessLan downlink (station at 25 m) --> receiver socket
//          --> fec::GroupDecoder --> checker
//
// The proxy runs its chain thread-per-filter, as Proxy does.
// Phase 1 (saturation): closed loop on the main thread, which both sends
//   and receives: at most kWindow data packets sent but not yet accounted
//   for by the decoder. Gives pkts_per_s. One harness thread here keeps the
//   runnable threads (harness plus the chain's three) within four cores.
// Phase 2 (open loop): 5 000 pkt/s -- 100 of the paper's 50 pkt/s audio
//   streams -- sent by the main thread and received by a receiver thread;
//   each packet is timed from when it was due to delivery out of the
//   decoder. Gives latency_p50_us. After every kRetuneEvery-th send the
//   main thread retunes the live encoder kRetuneBatch times
//   (FilterChain::set_param of n=6 and k=4, the values it already has:
//   the write the adaptive FEC controller makes, which takes effect at the
//   next group boundary). Gives reconfig_p50_us, one retune timed on the
//   main thread's CPU clock, so it does not count time the thread waited
//   for a core, and read against the reference job (common.h), which the
//   main thread runs after every kRefEvery-th retune batch.
//
// The WLAN's bandwidth/queue model is off (bandwidth_bps = 0): with it on,
// drops depend on how far the proxy lags the sender's clock, i.e. on
// scheduling; with it off the loss pattern is a function of the seed only.
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common.h"
#include "core/filter_chain.h"
#include "fec/fec_group.h"
#include "filters/fec_filters.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "proxy/proxy.h"
#include "util/serial.h"
#include "wireless/wlan.h"

namespace perfbench {
namespace {

using namespace rapidware;

constexpr std::size_t kPayload = 320;
constexpr std::uint64_t kWindow = 256;  // phase 1 outstanding packets
constexpr double kOpenRate = 5000.0;    // phase 2 pkt/s
constexpr std::uint64_t kRetuneEvery = 16;  // phase 2 sends per retune batch
constexpr int kRetuneBatch = 64;
constexpr std::uint64_t kRefEvery = 8;  // retune batches per reference job
constexpr double kStreamRate = 50.0;    // one paper audio stream
constexpr std::uint16_t kRxPort = 5000;

struct Topology {
  std::unique_ptr<net::SimNetwork> net;
  std::unique_ptr<wireless::WirelessLan> wlan;
  std::unique_ptr<proxy::Proxy> proxy;
  net::NodeId sender = 0, proxy_node = 0, station = 0;
  std::shared_ptr<net::SimSocket> tx, rx;
  std::string name;

  Topology(std::uint64_t seed, int instance) {
    name = "bench-audio-" + std::to_string(instance);
    net = std::make_unique<net::SimNetwork>(nullptr, seed);
    sender = net->add_node("wired-sender");
    proxy_node = net->add_node("proxy");
    station = net->add_node("laptop-25m");
    wireless::WlanConfig wc;
    wc.bandwidth_bps = 0;  // queue model off: loss depends on the seed only
    wlan = std::make_unique<wireless::WirelessLan>(*net, proxy_node, wc);
    wlan->add_station(station, 25.0);
    rx = net->open(station, kRxPort);
    tx = net->open(sender);
    proxy::ProxyConfig pc;
    pc.name = name;
    pc.ingress_port = 4000;
    pc.egress_dst = {station, kRxPort};
    proxy = std::make_unique<proxy::Proxy>(*net, proxy_node, pc);
    proxy->start();
    proxy->chain().insert(std::make_shared<filters::FecEncodeFilter>(6, 4), 0);
  }

  ~Topology() {
    proxy->shutdown();
    rx->close();
  }
};

/// Per-sequence-number tables grow in fixed steps inside a capacity
/// reserved up front, so the harness's own share of peak_rss_MB follows
/// the packet count smoothly instead of doubling at powers of two.
constexpr std::size_t kTableReserve = std::size_t{1} << 23;
constexpr std::size_t kTableStep = std::size_t{1} << 16;

void grow(std::vector<std::uint8_t>& v, std::size_t idx) {
  if (idx >= v.size()) v.resize(idx + kTableStep, 0);
}

/// The receiving end: decodes wire packets and checks every payload. Used
/// by one thread at a time (the main thread in phase 1, the receiver
/// thread afterwards; the thread start orders the hand-over). Counters
/// another thread reads are published under mu.
class Receiver {
 public:
  Receiver(const PayloadBook& book, bool plant)
      : book_(book), planter_(plant, 200, 300, 400) {
    group_arrivals.reserve(kTableReserve / 4);
    raw_data.reserve(kTableReserve);
    delivered.reserve(kTableReserve);
  }

  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t wire_arrivals = 0;  // guarded by mu
  std::uint64_t released = 0;       // guarded by mu
  bool stop = false;                // guarded by mu

  // Owner-thread state, read by the main thread after the owner finished.
  std::vector<std::uint8_t> group_arrivals;  // wire packets per FEC group
  std::vector<std::uint8_t> raw_data;        // data seq arrived uncoded
  std::vector<std::uint8_t> delivered;       // data seq released
  std::uint64_t last_seq_plus1 = 0;          // data seqs accounted for
  std::uint64_t corrupt = 0, duplicate = 0, reordered = 0;
  std::vector<Sample> latency_us;

  /// Payloads with seq in [first, end) are timed against the due time
  /// t0 + (seq - first) / kOpenRate. Set before those packets are sent.
  void time_range(std::uint64_t first, std::uint64_t end, std::int64_t t0_ns) {
    lat_t0_ns_ = t0_ns;
    lat_end_.store(end, std::memory_order_release);
    lat_first_.store(first, std::memory_order_release);
  }

  void take(const net::Datagram& d) {
    util::Reader hr(d.payload);
    const fec::GroupHeader h = fec::GroupHeader::decode_from(hr);
    grow(group_arrivals, h.group_id);
    ++group_arrivals[h.group_id];
    if (!h.is_parity()) {
      const std::uint64_t seq = std::uint64_t{h.group_id} * h.k + h.index;
      grow(raw_data, seq);
      raw_data[seq] = 1;
    }
    std::vector<util::Bytes> out;
    {
      Span span(sampled("fec.decode", h.group_id), h.group_id);
      out = decoder_.add(d.payload);
    }
    {
      Span span(sampled("bench.check", h.group_id), h.group_id);
      for (const auto& p : out) {
        planter_.pass(p, [this](util::ByteSpan q) { on_payload(q); });
      }
    }
    std::lock_guard<std::mutex> lk(mu);
    ++wire_arrivals;
    released += out.size();
    cv.notify_all();
  }

  void finish() {
    for (const auto& p : decoder_.flush()) {
      planter_.pass(p, [this](util::ByteSpan q) { on_payload(q); });
    }
  }

 private:
  void on_payload(util::ByteSpan p) {
    std::uint32_t stream = 0;
    std::uint64_t seq = 0;
    if (!PayloadBook::header(p, &stream, &seq) || stream != 0 ||
        seq > (1ULL << 40)) {
      ++corrupt;
      return;
    }
    grow(delivered, seq);
    if (delivered[seq] != 0) {
      ++duplicate;
      return;
    }
    delivered[seq] = 1;
    if (!book_.matches(p, 0, seq)) ++corrupt;
    if (seq + 1 < last_seq_plus1) ++reordered;
    last_seq_plus1 = std::max(last_seq_plus1, seq + 1);
    const std::uint64_t first = lat_first_.load(std::memory_order_acquire);
    if (seq >= first && seq < lat_end_.load(std::memory_order_acquire)) {
      const double due = static_cast<double>(lat_t0_ns_) +
                         static_cast<double>(seq - first) * 1e9 / kOpenRate;
      const std::int64_t now = now_ns();
      latency_us.push_back({now, (static_cast<double>(now) - due) / 1e3});
    }
  }

  const PayloadBook& book_;
  FaultPlanter planter_;
  fec::GroupDecoder decoder_;
  std::atomic<std::uint64_t> lat_first_{~0ULL}, lat_end_{~0ULL};
  std::int64_t lat_t0_ns_ = 0;
};

std::uint64_t stat_row(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& e : snap) {
    if (e.name == name) return std::strtoull(e.value.c_str(), nullptr, 10);
  }
  return ~0ULL;
}

}  // namespace

Result run_audio_fec_proxy(const Options& opt) {
  Result r;
  const double budget = opt.small ? 0.6 : opt.seconds;
  const double p1 = budget * 0.40, p2 = budget * 0.55;

  static int instance = 0;  // proxy names must be unique per process
  auto topo = std::make_unique<Topology>(opt.seed, instance++);

  const PayloadBook book(opt.seed, kPayload);
  Receiver rx(book, opt.plant);  // faults on the 200th/300th/400th payload

  const net::Address ingress{topo->proxy_node, 4000};
  util::Bytes pkt;
  std::uint64_t seq = 0;
  const auto send = [&](std::uint64_t s) {
    book.fill(0, s, pkt);
    Span span(sampled("net.send_to", s), s);
    topo->tx->send_to(ingress, pkt);
  };
  std::atomic<std::uint64_t> recvs{0};
  const auto receive = [&](int timeout_ms) {
    std::optional<net::Datagram> d;
    {
      Span span(sampled("net.recv", recvs), recvs);
      ++recvs;
      d = topo->rx->recv(timeout_ms);
    }
    if (d) rx.take(*d);
    return d.has_value();
  };

  // Phase 1: closed loop. After a tenth of the phase, the decoder's output
  // count is read at kSlices + 1 even instants.
  const double cpu0 = thread_cpu_s();
  const auto t1 = Clock::now();
  const auto warm_end = t1 + std::chrono::duration<double>(p1 * 0.1);
  const auto slice = std::chrono::duration<double>(p1 * 0.9 / kSlices);
  RateSlices rate;
  int marks = 0;
  auto last_progress = Clock::now();
  for (;;) {
    const auto now = Clock::now();
    if (marks <= kSlices && now >= warm_end + slice * marks) {
      rate.mark(rx.released);
      ++marks;
    }
    if (marks > kSlices && seq % 4 == 0) break;
    while (seq < rx.last_seq_plus1 + kWindow) send(seq++);
    if (receive(100)) {
      last_progress = now;
      while (receive(0)) {
      }
    } else if (now - last_progress > std::chrono::seconds(10)) {
      r.fail("audio: closed loop stalled for 10 s at seq " + std::to_string(seq));
      break;
    }
  }
  const double pps = rate.slice_rate();
  r.set("pkts_per_s", pps, "pkt/s");
  r.set("station_s_per_s", pps / kStreamRate, "station-s/s");

  // Phase 2: open loop at kOpenRate, timed from the due time.
  double rx_cpu = 0.0;
  std::thread rx_thread([&] {
    for (;;) {
      if (!receive(20)) {
        std::lock_guard<std::mutex> lk(rx.mu);
        if (rx.stop) break;
      }
    }
    rx.finish();
    rx_cpu = thread_cpu_s();
  });
  const double period_s = 1.0 / kOpenRate;
  const std::uint64_t n2 = (static_cast<std::uint64_t>(p2 * kOpenRate) / 4 + 1) * 4;
  const auto t2 = Clock::now() + std::chrono::milliseconds(20);
  rx.time_range(seq, seq + n2,
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t2.time_since_epoch())
                    .count());

  std::vector<double> lateness_us;
  lateness_us.reserve(n2);
  std::vector<Sample> reconfig_us, reference_s;
  reconfig_us.reserve(n2 / kRetuneEvery + 1);
  core::FilterChain& chain = topo->proxy->chain();
  bool retunes_ok = true;
  for (std::uint64_t i = 0; i < n2; ++i) {
    const auto due = t2 + std::chrono::duration<double>(period_s * static_cast<double>(i));
    std::this_thread::sleep_until(due);
    lateness_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - due).count());
    send(seq++);
    if (i % kRetuneEvery == kRetuneEvery - 1) {
      Span span("core.chain.set_param", i);
      const double c0 = thread_cpu_s();
      for (int b = 0; b < kRetuneBatch; ++b) {
        retunes_ok &= chain.set_param(0, b % 2 == 0 ? "n" : "k",
                                      b % 2 == 0 ? "6" : "4");
      }
      reconfig_us.push_back({now_ns(), (thread_cpu_s() - c0) * 1e6 / kRetuneBatch});
      if (reconfig_us.size() % kRefEvery == 0) {
        reference_s.push_back({now_ns(), reference_job_cpu_s()});
      }
    }
  }
  const double gen_cpu = thread_cpu_s() - cpu0;

  // Drain: every wire packet is either at the receiver or dropped on air.
  const std::uint64_t sent = seq;
  const std::uint64_t wire_expected = sent / 4 * 6;
  const auto drain_deadline = Clock::now() + std::chrono::seconds(20);
  for (;;) {
    const net::ChannelStats cs = topo->wlan->downlink_stats(topo->station);
    std::unique_lock<std::mutex> lk(rx.mu);
    if (rx.wire_arrivals + cs.dropped_loss + cs.dropped_queue >= wire_expected) {
      break;
    }
    if (Clock::now() > drain_deadline) {
      r.fail("audio: stream did not drain within 20 s");
      break;
    }
    rx.cv.wait_for(lk, std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lk(rx.mu);
    rx.stop = true;
  }
  rx_thread.join();

  // --- Checks, from the seed and the sender's own counts ------------------
  const net::ChannelStats cs = topo->wlan->downlink_stats(topo->station);
  const obs::Snapshot snap = obs::registry().snapshot(topo->name);
  const std::uint64_t in_pkts = stat_row(snap, topo->name + "/ingress/packets");
  const std::uint64_t out_pkts = stat_row(snap, topo->name + "/egress/packets");
  r.check(in_pkts == sent, "audio: proxy ingress/packets " +
                               std::to_string(in_pkts) + " != sent " +
                               std::to_string(sent));
  r.check(out_pkts == wire_expected,
          "audio: proxy egress/packets " + std::to_string(out_pkts) +
              " != FEC(6,4) of sent " + std::to_string(wire_expected));
  r.check(out_pkts == rx.wire_arrivals + cs.dropped_loss + cs.dropped_queue,
          "audio: egress " + std::to_string(out_pkts) + " != received " +
              std::to_string(rx.wire_arrivals) + " + channel drops " +
              std::to_string(cs.dropped_loss + cs.dropped_queue));
  std::uint64_t unrecovered = 0, raw_lost = 0, beyond = 0;
  grow(rx.delivered, sent);
  grow(rx.raw_data, sent);
  grow(rx.group_arrivals, sent / 4);
  for (std::uint64_t g = 0; g < sent / 4; ++g) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      const std::uint64_t s = g * 4 + i;
      if (rx.delivered[s] != 0) continue;
      if (rx.group_arrivals[g] >= 4) ++unrecovered;
      if (rx.raw_data[s] != 0) ++raw_lost;
    }
  }
  for (std::size_t s = sent; s < rx.delivered.size(); ++s) beyond += rx.delivered[s];
  r.check(unrecovered == 0, "audio: " + std::to_string(unrecovered) +
                                " packet(s) lost from groups with >= 4 of 6 "
                                "at the receiver (MDS property)");
  r.check(raw_lost == 0, "audio: " + std::to_string(raw_lost) +
                             " packet(s) that reached the receiver were "
                             "not delivered");
  r.check(rx.corrupt == 0,
          "audio: " + std::to_string(rx.corrupt) + " corrupt payload(s)");
  r.check(rx.duplicate == 0,
          "audio: " + std::to_string(rx.duplicate) + " duplicate payload(s)");
  r.check(rx.reordered == 0,
          "audio: " + std::to_string(rx.reordered) + " reordered payload(s)");
  r.check(beyond == 0, "audio: payloads delivered beyond the sent range");
  r.check(rx.latency_us.size() * 2 >= n2,
          "audio: only " + std::to_string(rx.latency_us.size()) + " of " +
              std::to_string(n2) + " phase-2 packets timed");
  const core::ParamMap fec = chain.at(0)->params();
  r.check(retunes_ok && !reconfig_us.empty() && fec.at("n") == "6" &&
              fec.at("k") == "4",
          "audio: live encoder retune failed");

  std::uint64_t delivered = 0;
  for (std::uint64_t s = 0; s < sent; ++s) delivered += rx.delivered[s];
  std::printf(
      "audio_fec_proxy: sent=%llu wire=%llu at_receiver=%llu air_drops=%llu "
      "delivered=%llu (raw %.4f%%, after FEC %.4f%%)\n",
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(out_pkts),
      static_cast<unsigned long long>(rx.wire_arrivals),
      static_cast<unsigned long long>(cs.dropped_loss + cs.dropped_queue),
      static_cast<unsigned long long>(delivered),
      100.0 * static_cast<double>(cs.attempted - cs.dropped_loss) /
          static_cast<double>(std::max<std::uint64_t>(cs.attempted, 1)),
      100.0 * static_cast<double>(delivered) / static_cast<double>(sent));

  r.attempted = sent + reconfig_us.size() * kRetuneBatch;
  r.failed = unrecovered + raw_lost + rx.corrupt + rx.duplicate + rx.reordered;
  set_timings(r, rx.latency_us, against_reference(reconfig_us, reference_s));
  r.set("bench.gen_lateness_p99_us", percentile(lateness_us, 99), "us");
  r.set("bench.harness_cpu_s", gen_cpu + rx_cpu, "s");
  r.set("peak_rss_MB", peak_rss_mb(), "MB");
  topo.reset();
  r.set("setup_s", median_setup(opt.small, [&] {
          return std::make_unique<Topology>(opt.seed, instance++);
        }),
        "s");
  return r;
}

}  // namespace perfbench
