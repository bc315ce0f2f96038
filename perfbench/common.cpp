#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "util/rng.h"

namespace perfbench {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double reference_job_cpu_s() {
  struct Entry {
    std::uint64_t state;
    double p_bad;
    std::uint32_t bad;
    std::uint32_t bad_steps;
    double pad[5];
  };
  thread_local std::vector<Entry> entries = [] {
    std::vector<Entry> e(10'000);
    for (std::size_t i = 0; i < e.size(); ++i) {
      e[i] = {i * 0x9e3779b97f4a7c15ULL + 1, 0.01 + 0.001 * static_cast<double>(i % 7),
              0, 0, {}};
    }
    return e;
  }();
  const double c0 = thread_cpu_s();
  for (int round = 0; round < 8; ++round) {
    for (Entry& e : entries) {
      e.state ^= e.state << 13;
      e.state ^= e.state >> 7;
      e.state ^= e.state << 17;
      const double u = static_cast<double>(e.state >> 11) * 0x1.0p-53;
      e.bad = e.bad != 0 ? (u < 0.3 ? 0 : 1) : (u < e.p_bad ? 1 : 0);
      e.bad_steps += e.bad;
    }
  }
  return thread_cpu_s() - c0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) { return percentile(v, 50.0); }

void describe(const std::string& what, std::vector<double> v) {
  const std::size_t n = v.size();
  const double p50 = percentile(v, 50), p90 = percentile(v, 90),
               p99 = percentile(v, 99), p999 = percentile(v, 99.9);
  std::printf("%s: n=%zu p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f max=%.1f\n",
              what.c_str(), n, p50, p90, p99, p999, v.empty() ? 0.0 : v.back());
}

double slice_percentile(std::vector<Sample> s, double p) {
  if (s.empty()) return 0.0;
  std::sort(s.begin(), s.end(),
            [](const Sample& a, const Sample& b) { return a.t_ns < b.t_ns; });
  std::vector<double> per_slice;
  for (int k = 0; k < kSlices; ++k) {
    const std::size_t lo = s.size() * k / kSlices;
    const std::size_t hi = s.size() * (k + 1) / kSlices;
    if (lo == hi) continue;
    std::vector<double> v;
    v.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) v.push_back(s[i].v);
    per_slice.push_back(percentile(v, p));
  }
  return interquartile_mean(per_slice);
}

std::vector<Sample> against_reference(std::vector<Sample> s,
                                      const std::vector<Sample>& ref) {
  if (s.empty() || ref.empty()) return s;
  const auto by_time = [](const Sample& a, const Sample& b) {
    return a.t_ns < b.t_ns;
  };
  std::sort(s.begin(), s.end(), by_time);
  const double all = median(values(ref));
  for (int k = 0; k < kSlices; ++k) {
    const std::size_t lo = s.size() * k / kSlices;
    const std::size_t hi = s.size() * (k + 1) / kSlices;
    if (lo == hi) continue;
    const std::int64_t from = lo == 0 ? INT64_MIN : s[lo - 1].t_ns;
    std::vector<double> in_slice;
    for (const Sample& r : ref) {
      if (r.t_ns > from && r.t_ns <= s[hi - 1].t_ns) in_slice.push_back(r.v);
    }
    const double slow =
        (in_slice.empty() ? all : median(in_slice)) / kReferenceJobS;
    for (std::size_t i = lo; i < hi; ++i) s[i].v /= slow;
  }
  return s;
}

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() >= 4 ? v.size() / 4 : 0;
  const std::size_t hi = v.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

void set_timings(Result& r, const std::vector<Sample>& latency_us,
                 const std::vector<Sample>& reconfig_us) {
  describe("latency_us", values(latency_us));
  describe("reconfig_us", values(reconfig_us));
  r.set("latency_p50_us", slice_percentile(latency_us, 50), "us");
  r.set("reconfig_p50_us", slice_percentile(reconfig_us, 50), "us");
}

std::vector<double> values(const std::vector<Sample>& s) {
  std::vector<double> v;
  v.reserve(s.size());
  for (const auto& x : s) v.push_back(x.v);
  return v;
}

double RateSlices::slice_rate() const {
  std::vector<double> rates;
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    const double dt = static_cast<double>(marks_[i].first - marks_[i - 1].first) / 1e9;
    if (dt > 0.0) {
      rates.push_back(static_cast<double>(marks_[i].second - marks_[i - 1].second) / dt);
    }
  }
  return interquartile_mean(rates);
}

// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kBlock = 1 << 16;
}  // namespace

PayloadBook::PayloadBook(std::uint64_t seed, std::size_t size)
    : size_(std::max(size, kHeader + 1)), block_(kBlock + size_) {
  util::Rng rng(seed ^ 0x7061796c6f6164ULL);
  for (std::size_t i = 0; i < block_.size(); i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(block_.data() + i, &v, std::min<std::size_t>(8, block_.size() - i));
  }
}

std::size_t PayloadBook::offset(std::uint32_t stream, std::uint64_t seq) const {
  std::uint64_t x = seq * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % kBlock);
}

void PayloadBook::fill(std::uint32_t stream, std::uint64_t seq,
                       util::Bytes& out) const {
  out.resize(size_);
  std::memcpy(out.data(), &stream, 4);
  std::memcpy(out.data() + 4, &seq, 8);
  std::memcpy(out.data() + kHeader, block_.data() + offset(stream, seq),
              size_ - kHeader);
}

bool PayloadBook::header(util::ByteSpan p, std::uint32_t* stream,
                         std::uint64_t* seq) {
  if (p.size() < kHeader) return false;
  std::memcpy(stream, p.data(), 4);
  std::memcpy(seq, p.data() + 4, 8);
  return true;
}

bool PayloadBook::matches(util::ByteSpan p, std::uint32_t stream,
                          std::uint64_t seq) const {
  std::uint32_t s = 0;
  std::uint64_t q = 0;
  if (p.size() != size_ || !header(p, &s, &q) || s != stream || q != seq) {
    return false;
  }
  return std::memcmp(p.data() + kHeader, block_.data() + offset(stream, seq),
                     size_ - kHeader) == 0;
}

void StreamLedger::record(const PayloadBook& book, std::uint32_t stream,
                          util::ByteSpan p) {
  std::uint32_t s = 0;
  std::uint64_t seq = 0;
  if (!PayloadBook::header(p, &s, &seq) || s != stream ||
      seq >= next + (std::uint64_t{1} << 32)) {
    ++corrupt;
    return;
  }
  if (seq < next) {
    ++duplicate;
    return;
  }
  if (seq > next) gap += seq - next;
  next = seq + 1;
  if (!book.matches(p, stream, seq)) ++corrupt;
}

void StreamLedger::verify(std::uint64_t sent, const std::string& what,
                          Result& r) const {
  const std::uint64_t missing = sent > next ? sent - next : 0;
  r.failed += corrupt + duplicate + gap + missing;
  if (corrupt != 0) {
    r.fail(what + ": " + std::to_string(corrupt) + " corrupt packet(s)");
  }
  if (duplicate != 0) {
    r.fail(what + ": " + std::to_string(duplicate) + " duplicate packet(s)");
  }
  if (gap + missing != 0) {
    r.fail(what + ": " + std::to_string(gap + missing) + " lost packet(s)");
  }
  if (next > sent) {
    r.fail(what + ": delivered seq " + std::to_string(next - 1) +
           " beyond the " + std::to_string(sent) + " sent");
  }
}

// ---------------------------------------------------------------------------
// Tracer

namespace {

struct ThreadSpans {
  std::vector<SpanRecord> spans;
  std::vector<std::uint64_t> stack;  // open span ids, innermost last
  std::uint64_t thread_index = 0;
  std::uint64_t next_id = 1;
  std::uint64_t dropped = 0;
};

std::mutex g_tracer_mu;
std::vector<std::shared_ptr<ThreadSpans>> g_buffers;  // guarded by g_tracer_mu
std::size_t g_cap = 0;

ThreadSpans& thread_spans() {
  thread_local std::shared_ptr<ThreadSpans> mine;
  if (!mine) {
    mine = std::make_shared<ThreadSpans>();
    std::lock_guard<std::mutex> lk(g_tracer_mu);
    mine->thread_index = g_buffers.size() + 1;
    mine->spans.reserve(g_cap);
    g_buffers.push_back(mine);
  }
  return *mine;
}

}  // namespace

std::atomic<bool> Tracer::on_{false};

void Tracer::enable(std::size_t per_thread_cap) {
  g_cap = per_thread_cap;
  on_.store(true, std::memory_order_relaxed);
}

std::uint64_t Tracer::begin(std::int64_t* start) {
  ThreadSpans& t = thread_spans();
  const std::uint64_t id = (t.thread_index << 40) | t.next_id++;
  t.stack.push_back(id);
  *start = now_ns();
  return id;
}

void Tracer::end(const char* name, std::uint64_t id, std::uint64_t request,
                 std::int64_t start) {
  const std::int64_t end = now_ns();
  ThreadSpans& t = thread_spans();
  t.stack.pop_back();
  const std::uint64_t parent = t.stack.empty() ? 0 : t.stack.back();
  if (t.spans.size() >= g_cap) {
    ++t.dropped;
    return;
  }
  t.spans.push_back({name, start, end, id, parent, request});
}

std::vector<std::string> Tracer::dump(const std::string& path) {
  std::vector<std::shared_ptr<ThreadSpans>> buffers;
  {
    std::lock_guard<std::mutex> lk(g_tracer_mu);
    buffers = g_buffers;
  }
  // Child time per parent id, then self time per span.
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  std::uint64_t dropped = 0;
  for (const auto& b : buffers) {
    dropped += b->dropped;
    for (const auto& s : b->spans) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> self_by_name;
  std::ofstream out(path);
  out << "# name\tstart_ns\tend_ns\tid\tparent\trequest\tself_ns\n";
  for (const auto& b : buffers) {
    for (const auto& s : b->spans) {
      const auto it = child_ns.find(s.id);
      const std::int64_t self =
          (s.end_ns - s.start_ns) - (it == child_ns.end() ? 0 : it->second);
      self_by_name[s.name].push_back(static_cast<double>(self));
      out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.id
          << '\t' << s.parent << '\t' << s.request << '\t' << self << '\n';
    }
  }
  std::vector<std::string> lines;
  for (auto& [name, selfs] : self_by_name) {
    double total = 0.0;
    for (double v : selfs) total += v;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "span %-28s count=%zu self_total_ms=%.3f self_p50_ns=%.0f",
                  name.c_str(), selfs.size(), total / 1e6, median(selfs));
    lines.emplace_back(buf);
  }
  if (dropped != 0) {
    lines.push_back("span buffers full: " + std::to_string(dropped) +
                    " span(s) not recorded");
  }
  return lines;
}

}  // namespace perfbench
