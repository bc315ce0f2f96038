// Shared pieces of the end-to-end benchmark harness: options, results,
// seed-derived payloads and their checker, percentiles, thread CPU time,
// and the in-memory span tracer used by traced runs.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace perfbench {

namespace util = rapidware::util;

// ---------------------------------------------------------------------------
// Options and results

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;  // small-size mode (self-test)
  bool plant = false;  // plant one flipped byte, one drop, one duplicate
  unsigned workers = 1;  // min(nproc, 4)
  unsigned chains = 2;   // chain_fanout's job: 2 * min(nproc, 4) chains
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // every failed check, one line each
  std::map<std::string, Metric> metrics;

  void fail(const std::string& what) { failures.push_back(what); }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

// ---------------------------------------------------------------------------
// Time

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed by the calling thread.
double thread_cpu_s();

// Host speed. On a shared host a core's speed changes by up to 1.8x for
// seconds to minutes at a time, with the load other tenants put on the
// physical cores; it shows in CPU time as much as in wall time. A
// single-threaded, CPU-bound figure is therefore read against a fixed
// reference job run on the same thread between its samples: the job's CPU
// time over kReferenceJobS is the host's slowness at that moment, and the
// figure is divided by it. The job is harness code, so a change in the
// program moves the figure and not the job.

/// The reference job's CPU time on the reference host (4-vCPU VM, see
/// README.md) in its fast state. Figures read against the job are in
/// units of that host's time.
constexpr double kReferenceJobS = 200e-6;

/// Thread CPU seconds of one run of the reference job: a seeded
/// xorshift walk, with a two-state loss draw per step, over 10 000
/// 64-byte entries (the shape of a fleet tick's per-station work).
double reference_job_cpu_s();

/// Peak resident set size of the process, in MB.
double peak_rss_mb();

/// Nearest-rank percentile of `v` (sorted in place). 0 for an empty vector.
double percentile(std::vector<double>& v, double p);

double median(std::vector<double> v);

/// Prints "<what>: n=.. p50=.. p90=.. p99=.. p99.9=.. max=.." to stdout.
void describe(const std::string& what, std::vector<double> v);

// Every figure a workload reports is taken over kSlices consecutive slices
// of its measurement window and reported as the interquartile mean of the
// slice values: the mean of the middle half. On a shared host the speed of
// the benchmark's threads changes from second to second; the mean over
// many slices averages that out, and dropping the outer quarters keeps a
// single stall from moving the figure.
constexpr int kSlices = 30;

// setup_s: once the measured run is over and peak_rss_MB has been read,
// the workload's set-up is built and torn down kSetups more times (a
// set-up is too short to slice). Each build's wall time is read against
// the reference job run right after its teardown (see reference_job_cpu_s
// above), and setup_s is the median.
constexpr int kSetups = 15;

/// The median of kSetups (1 with `small`) set-ups, each built by `make`
/// (timed), destroyed (not timed) and read against the reference job.
template <typename Make>
double median_setup(bool small, Make&& make) {
  std::vector<double> times;
  for (int i = 0; i < (small ? 1 : kSetups); ++i) {
    double wall = 0.0;
    {
      const auto t0 = Clock::now();
      auto built = make();
      wall = seconds_since(t0);
    }
    times.push_back(wall * kReferenceJobS / reference_job_cpu_s());
  }
  return median(times);
}

/// One timed sample: when it was taken, and its value.
struct Sample {
  std::int64_t t_ns;
  double v;
};

/// The interquartile mean, over kSlices time-ordered slices of equal
/// sample count, of each slice's p-th percentile. 0 for no samples.
double slice_percentile(std::vector<Sample> s, double p);

/// `s` read against the reference job: cut into kSlices time-ordered
/// slices as slice_percentile() cuts it, each sample's value divided by
/// the median, over kReferenceJobS, of the reference-job CPU times `ref`
/// (values in seconds) taken after the previous slice's last sample and
/// up to its own last one (or of all of `ref` when there are none).
std::vector<Sample> against_reference(std::vector<Sample> s,
                                      const std::vector<Sample>& ref);

/// Mean of the middle half of `v` (all of it below four values).
double interquartile_mean(std::vector<double> v);

/// Sets latency_p50_us and reconfig_p50_us from the samples, each a
/// slice_percentile(), and prints both distributions in full.
void set_timings(Result& r, const std::vector<Sample>& latency_us,
                 const std::vector<Sample>& reconfig_us);

/// Values of the samples, for describe().
std::vector<double> values(const std::vector<Sample>& s);

/// Counts a cumulative counter at kSlices + 1 instants of a window and
/// reports the interquartile mean of the kSlices rates.
class RateSlices {
 public:
  void mark(std::uint64_t count) { marks_.push_back({now_ns(), count}); }
  double slice_rate() const;

 private:
  std::vector<std::pair<std::int64_t, std::uint64_t>> marks_;
};

// ---------------------------------------------------------------------------
// Seed-derived payloads
//
// Every packet a workload sends is `stream u32 | seq u64 | body`, where the
// body is a window into a seed-derived random block chosen by (stream,
// seq). The receiver rebuilds the expected bytes from the seed alone, so a
// flipped byte, a lost, duplicated or reordered packet is caught without
// trusting anything the program reports.

class PayloadBook {
 public:
  static constexpr std::size_t kHeader = 12;

  PayloadBook(std::uint64_t seed, std::size_t size);

  std::size_t size() const noexcept { return size_; }

  /// Writes packet (stream, seq) into `out` (resized to size()).
  void fill(std::uint32_t stream, std::uint64_t seq, util::Bytes& out) const;

  /// Header fields of a received packet; false if it is too short.
  static bool header(util::ByteSpan p, std::uint32_t* stream,
                     std::uint64_t* seq);

  /// True if `p` is exactly packet (stream, seq).
  bool matches(util::ByteSpan p, std::uint32_t stream,
               std::uint64_t seq) const;

 private:
  std::size_t offset(std::uint32_t stream, std::uint64_t seq) const;

  std::size_t size_;
  std::vector<std::uint8_t> block_;
};

/// Per-stream ordered-delivery ledger: each packet must arrive once, in
/// sequence order, byte for byte. Not thread-safe; one owner per stream.
struct StreamLedger {
  std::uint64_t next = 0;       // next expected seq
  std::uint64_t corrupt = 0;
  std::uint64_t duplicate = 0;  // seq below `next`
  std::uint64_t gap = 0;        // seq above `next` (packets skipped)

  void record(const PayloadBook& book, std::uint32_t stream,
              util::ByteSpan p);
  /// Checks the ledger against `sent` packets; appends failures to `r`.
  void verify(std::uint64_t sent, const std::string& what, Result& r) const;
};

/// Sink-side fault planting for the self-test: flips one byte of the
/// `flip_at`-th packet, drops the `drop_at`-th and delivers the `dup_at`-th
/// twice. Disabled when constructed with plant == false.
class FaultPlanter {
 public:
  FaultPlanter(bool plant, std::uint64_t flip_at, std::uint64_t drop_at,
               std::uint64_t dup_at)
      : plant_(plant), flip_at_(flip_at), drop_at_(drop_at), dup_at_(dup_at) {}

  /// Calls `deliver(span)` zero, one or two times for the n-th packet.
  template <typename F>
  void pass(util::ByteSpan p, F&& deliver) {
    const std::uint64_t n = count_++;
    if (!plant_) {
      deliver(p);
      return;
    }
    if (n == drop_at_) return;
    if (n == flip_at_) {
      scratch_.assign(p.begin(), p.end());
      scratch_[scratch_.size() - 1] ^= 0x5a;
      deliver(util::ByteSpan(scratch_));
      return;
    }
    deliver(p);
    if (n == dup_at_) deliver(p);
  }

 private:
  const bool plant_;
  const std::uint64_t flip_at_, drop_at_, dup_at_;
  std::uint64_t count_ = 0;
  util::Bytes scratch_;
};

// ---------------------------------------------------------------------------
// Span tracer
//
// A span is (name, start, end, parent span, request id). Spans are kept in
// per-thread buffers in memory and written out when the run ends; a span's
// self time is its duration minus the time its child spans cover. Off
// unless Tracer::enable() ran, in which case Span costs two clock reads.

struct SpanRecord {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;  // 0: root
  std::uint64_t request;
};

class Tracer {
 public:
  static void enable(std::size_t per_thread_cap);
  static bool on() noexcept { return on_.load(std::memory_order_relaxed); }

  /// Writes every recorded span to `path` (tab-separated) and returns the
  /// per-name summary lines: count, total self time, median self time.
  static std::vector<std::string> dump(const std::string& path);

  /// Opens a span on the calling thread; returns its id.
  static std::uint64_t begin(std::int64_t* start);
  /// Closes the innermost open span and records it.
  static void end(const char* name, std::uint64_t id, std::uint64_t request,
                  std::int64_t start);

 private:
  static std::atomic<bool> on_;
};

/// Per-packet spans are kept for one packet in kSpanSampleEvery, so a
/// traced run's buffers hold the whole run: sampled(name, n) is `name` for
/// those packets and nullptr, which records nothing, for the rest.
constexpr std::uint64_t kSpanSampleEvery = 64;
inline const char* sampled(const char* name, std::uint64_t n) {
  return n % kSpanSampleEvery == 0 ? name : nullptr;
}

class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0) {
    if (name != nullptr && Tracer::on()) {
      name_ = name;
      request_ = request;
      id_ = Tracer::begin(&start_);
    }
  }
  ~Span() {
    if (id_ != 0) Tracer::end(name_, id_, request_, start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t request_ = 0;
  std::uint64_t id_ = 0;
  std::int64_t start_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads and the cost ladder

Result run_audio_fec_proxy(const Options& opt);
Result run_chain_fanout(const Options& opt);
Result run_flow_reconfig(const Options& opt);
Result run_fleet_fec(const Options& opt);

/// Walks every rung of the per-layer cost ladder and adds its metrics.
void run_ladder(const Options& opt, Result& out);

}  // namespace perfbench
