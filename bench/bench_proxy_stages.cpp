// Multi-stage proxy placement: saturation throughput of one proxy::Proxy
// whose chain is compress -> encrypt -> fec-encode(6,4), the CPU-heavy shape
// the paper's thread-per-filter proxy ran in parallel (docs/data_plane.md,
// "Worker model"). Two placements of the same chain on the default pool:
//
//   * spread   — FilterChain::host_on(WorkerPool&), what Proxy does: each
//                stage on the next worker, stages in parallel;
//   * one-loop — FilterChain::host_on(EventLoop&): the whole chain on one
//                worker, stages one after another.
//
// Closed loop on the main thread: at most kWindow data packets sent but not
// yet seen at the receiver (FEC(6,4) puts 6 wire packets out per 4 in). A
// receiver thread counts arrivals. Reports packets_per_sec per placement.
//
//   bench_proxy_stages [--seconds S]   (default 3 per placement)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_json.h"
#include "core/worker_pool.h"
#include "filters/compress_filter.h"
#include "filters/crypto_filter.h"
#include "filters/fec_filters.h"
#include "net/sim_network.h"
#include "proxy/proxy.h"
#include "util/rng.h"

namespace {

using namespace rapidware;

constexpr std::uint64_t kWindow = 256;
constexpr std::size_t kPayload = 320;

double run(bool spread, double seconds) {
  net::SimNetwork net(nullptr, 7);
  const auto sender = net.add_node("sender");
  const auto proxy_node = net.add_node("proxy");
  const auto receiver = net.add_node("receiver");
  auto rx = net.open(receiver, 5000);
  auto tx = net.open(sender);
  proxy::ProxyConfig pc;
  pc.name = spread ? "bench-spread" : "bench-one-loop";
  pc.egress_dst = {receiver, 5000};
  proxy::Proxy proxy(net, proxy_node, pc);
  if (!spread) proxy.chain().host_on(core::default_worker_pool().next());
  proxy.chain().append(std::make_shared<filters::CompressFilter>());
  proxy.chain().append(
      std::make_shared<filters::EncryptFilter>(filters::derive_key("bench")));
  proxy.chain().append(std::make_shared<filters::FecEncodeFilter>(6, 4));
  proxy.start();

  std::atomic<std::uint64_t> arrivals{0};
  std::atomic<bool> stop{false};
  std::thread counter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (rx->recv(50)) arrivals.fetch_add(1, std::memory_order_release);
    }
  });
  util::Rng rng(3);
  util::Bytes payload(kPayload);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_below(8));

  std::uint64_t sent = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto end = t0 + std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < end) {
    while (sent > arrivals.load(std::memory_order_acquire) * 4 / 6 + kWindow) {
      std::this_thread::yield();
    }
    payload[0] = static_cast<std::uint8_t>(sent);
    tx->send_to({proxy_node, 4000}, payload);
    ++sent;
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  stop.store(true, std::memory_order_release);
  counter.join();
  proxy.shutdown();
  return static_cast<double>(sent) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 3.0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--seconds") seconds = std::atof(argv[i + 1]);
  }
  std::printf("=== Proxy stage placement (compress, encrypt, fec(6,4)) ===\n\n");
  rwbench::JsonSummary json("proxy_stages");
  json.meta("seconds", seconds);
  json.meta("workers",
            static_cast<unsigned long long>(core::default_worker_pool().size()));
  std::printf("%10s %16s\n", "placement", "packets_per_sec");
  for (const bool spread : {true, false}) {
    const char* name = spread ? "spread" : "one-loop";
    const double pps = run(spread, seconds);
    std::printf("%10s %16.0f\n", name, pps);
    json.row({{"name", name}, {"packets_per_sec", pps}});
  }
  json.write();
  return 0;
}
