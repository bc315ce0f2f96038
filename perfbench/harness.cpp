// End-to-end benchmark harness (see perfbench/README.md).
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--small] [--plant] [--commit <id>] [--trace-dir <dir>]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) run the workload twice, untraced and with spans on, walk the
// per-layer cost ladder, and print the per-layer metrics. The last line of
// standard output is always one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "filters/registry.h"
#include "obs/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"pkts_per_s", "pkt/s"},
    {"latency_p50_us", "us"},
    {"reconfig_p50_us", "us"},
    {"station_s_per_s", "station-s/s"},
    {"peak_rss_MB", "MB"},
};

using WorkloadFn = Result (*)(const Options&);

WorkloadFn workload_fn(const std::string& name) {
  if (name == "audio_fec_proxy") return run_audio_fec_proxy;
  if (name == "chain_fanout") return run_chain_fanout;
  if (name == "flow_reconfig") return run_flow_reconfig;
  if (name == "fleet_fec") return run_fleet_fec;
  return nullptr;
}

void print_result(const Result& r, const std::vector<std::string>& names) {
  for (const auto& f : r.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& name : names) {
    const Metric& m = r.metrics.at(name);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  std::string trace_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--workload" && next) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && next) {
      opt.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (a == "--seconds" && next) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && next) {
      opt.trace = std::string(argv[++i]) != "0";
    } else if (a == "--commit" && next) {
      commit = argv[++i];
    } else if (a == "--trace-dir" && next) {
      trace_dir = argv[++i];
    } else if (a == "--small") {
      opt.small = true;
    } else if (a == "--plant") {
      opt.plant = true;
      opt.small = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return 2;
    }
  }
  const WorkloadFn fn = workload_fn(opt.workload);
  if (fn == nullptr || opt.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload "
                 "<audio_fec_proxy|chain_fanout|flow_reconfig|fleet_fec> "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  opt.chains = 2 * std::min(nproc, 4u);
  opt.workers = std::min(nproc, 4u);
  std::printf(
      "env nproc=%u workers=%u build_type=%s rw_obs=%d compiler=%s commit=%s "
      "workload=%s seed=%llu seconds=%g trace=%d small=%d plant=%d\n",
      nproc, opt.workers, PERFBENCH_BUILD_TYPE, RW_OBS_ENABLED,
      PERFBENCH_COMPILER, commit.c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
      opt.small ? 1 : 0, opt.plant ? 1 : 0);

  // The workloads choose their own dispatch and worker counts.
  unsetenv("RW_DISPATCH");
  unsetenv("RW_WORKERS");
  rapidware::filters::register_builtin_filters();
  try {
    if (!opt.trace) {
      Result r = fn(opt);
      std::vector<std::string> names;
      for (const auto& m : kEndToEnd) {
        if (r.metrics.count(m.name) == 0) {
          std::fprintf(stderr, "harness bug: metric %s not measured\n", m.name);
          return 1;
        }
        names.emplace_back(m.name);
      }
      print_result(r, names);
      return 0;
    }

    // Traced run: the workload untraced and traced over equal shares of the
    // budget (their pkts_per_s ratio is the tracing overhead), then the
    // ladder. End-to-end numbers from this run are not reported.
    Options part = opt;
    part.seconds = opt.seconds * 0.3;
    const Result plain = fn(part);
    Tracer::enable(1 << 19);
    const Result traced = fn(part);
    const std::string trace_path =
        trace_dir + "/spans_" + opt.workload + ".tsv";
    for (const auto& line : Tracer::dump(trace_path)) {
      std::printf("%s\n", line.c_str());
    }
    std::printf("spans written to %s\n", trace_path.c_str());

    Result out;
    out.attempted = plain.attempted + traced.attempted;
    out.failed = plain.failed + traced.failed;
    out.failures = plain.failures;
    out.failures.insert(out.failures.end(), traced.failures.begin(),
                        traced.failures.end());
    const double base = plain.metrics.at("pkts_per_s").value;
    const double with = traced.metrics.at("pkts_per_s").value;
    out.set("obs.trace_overhead", base > 0.0 ? 1.0 - with / base : 0.0,
            "ratio");
    out.set("bench.gen_lateness_p99_us",
            plain.metrics.at("bench.gen_lateness_p99_us").value, "us");
    out.set("bench.harness_cpu_s", plain.metrics.at("bench.harness_cpu_s").value,
            "s");
    run_ladder(opt, out);
    std::vector<std::string> names;
    for (const auto& [name, m] : out.metrics) names.push_back(name);
    print_result(out, names);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
}
