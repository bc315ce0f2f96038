// FilterChain — the paper's ControlThread (Section 4).
//
// Manages the ordered vector of filters spliced between two endpoints on a
// single data stream, and implements the paper's add()/delete()/reorder
// operations on a *running* stream via the pause/reconnect protocol:
//
//   insert(F, pos):  Left.DOS.pause()            — drain the splice point
//                    Left.DOS.reconnect(F.DIS)   — attach new filter input
//                    Right.DIS.reconnect(F.DOS)  — attach new filter output
//                    F.start_on(loop)
//
//   remove(pos):     Left.DOS.pause()            — drain F's input
//                    F.detach_request(); F.join()— F flushes pending state
//                    F.DOS.pause()               — drain F's output
//                    Left.DOS.reconnect(Right.DIS)
//
// All control operations are serialized by one mutex; data keeps flowing
// through the untouched part of the chain while an operation runs. Members
// run as on_ready() drives on one loop (host_on(EventLoop&)) or spread
// over a pool's workers (host_on(WorkerPool&)). Control operations block
// on the members' drives, so they must never run on a hosting loop.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/filter.h"
#include "obs/metrics.h"
#include "util/buffer_pool.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::core {

class WorkerPool;

class FilterChain {
 public:
  /// The chain owns its endpoints: head produces data into the chain, tail
  /// consumes it at the far end.
  FilterChain(std::shared_ptr<Filter> head, std::shared_ptr<Filter> tail);
  ~FilterChain();

  FilterChain(const FilterChain&) = delete;
  FilterChain& operator=(const FilterChain&) = delete;

  /// Hosts every member on `loop` (chain affinity: members never race, and
  /// a worker's chains share its thread). Must be called before start();
  /// the loop must outlive the chain. Without any host_on(), start() places
  /// the chain on default_worker_pool().next().
  void host_on(EventLoop& loop);

  /// Spreads the members over `pool`: the head on the least-loaded worker,
  /// each further member (and later insert()) on the next worker round the
  /// pool, so stages run in parallel — thread-per-filter when the pool has
  /// a worker per member. Must be called before start(); the pool must
  /// outlive the chain.
  void host_on(WorkerPool& pool);

  /// The loop hosting the head endpoint (under host_on(EventLoop&), every
  /// member's); nullptr only before start().
  EventLoop* host() const;

  /// The buffer pool this chain's packets recycle through: the host()
  /// worker's arena (a spread chain's members each use their own worker's),
  /// or util::default_pool() before the chain is placed.
  /// What the chain's `pool/` metric rows read; tests assert steady-state
  /// hit rates against it.
  util::BufferPool& recycle_pool() const {
    util::BufferPool* p = metrics_pool_.load(std::memory_order_acquire);
    return p != nullptr ? *p : util::default_pool();
  }

  /// Connects head directly to tail (the "null proxy") and starts every
  /// member on its hosting loop. Throws StreamError when that loop is
  /// stopped (or its pool, or, without host_on(), default_worker_pool()).
  void start();

  /// Inserts a filter at `pos` (0 = immediately after the head endpoint;
  /// size() = immediately before the tail). The filter must not be running.
  /// Before start() this just configures the chain; afterwards it splices
  /// the filter into the live stream via the pause/reconnect protocol.
  void insert(std::shared_ptr<Filter> filter, std::size_t pos);

  /// Convenience: insert at the end (before the tail endpoint).
  void append(std::shared_ptr<Filter> filter) { insert(std::move(filter), size()); }

  /// Removes and returns the filter at `pos` after letting it flush. The
  /// returned filter is idle and can be re-inserted (possibly elsewhere).
  std::shared_ptr<Filter> remove(std::size_t pos);

  /// Moves the filter at `from` to position `to` (positions in the vector
  /// after removal semantics, as the paper's reorder).
  void reorder(std::size_t from, std::size_t to);

  /// Forwards a parameter change to the filter at `pos`.
  bool set_param(std::size_t pos, const std::string& key,
                 const std::string& value);

  std::size_t size() const;
  std::vector<std::string> names() const;
  std::shared_ptr<Filter> at(std::size_t pos) const;

  /// Atomic snapshot of the configured filters, in chain order. Stats and
  /// introspection paths must iterate this instead of size() + at(i): that
  /// pair re-acquires the mutex per call, so a concurrent remove() between
  /// the two turns a valid index into an out_of_range error.
  std::vector<std::shared_ptr<Filter>> list() const;

  Filter& head() { return *head_; }
  Filter& tail() { return *tail_; }

  bool started() const;

  // --- Composability typing (core/composability.h) -----------------------
  // Declare the type of the stream the head endpoint produces, and the
  // chain can type-check its configuration; with enforcement on, any
  // insert/remove/reorder that would wedge a filter against a stream it
  // cannot parse is rejected (StreamError) before touching the stream.

  /// Sets the ingress stream type (default "any": checks are vacuous).
  void set_stream_type(std::string type);

  /// Rejects type-breaking mutations when enabled (default off).
  void set_type_enforcement(bool enforce);

  /// The stream type entering each filter plus the final egress type;
  /// size() + 1 entries.
  std::vector<std::string> type_trace() const;

  /// First type error in the current configuration, or nullopt.
  std::optional<std::string> type_error() const;

  /// Stops the head endpoint, propagates EOF through every filter (each
  /// flushes in order), and joins every member. Idempotent. Filters'
  /// output streams are hard-closed: fast, final teardown.
  void shutdown();

  /// Graceful variant: waits for the head to finish on its own (the source
  /// must already be ending), then drains and DETACHES each stage via the
  /// pause/soft-EOF protocol. Afterwards every filter is idle with both
  /// streams disconnected — reusable in another chain. This is how a
  /// composite filter (PipelineFilter) tears down its nested chain.
  void drain_shutdown();

  /// Non-blocking shutdown initiation for event-hosted chains: interrupts
  /// the head and hard-closes every member's output so EOF/BrokenPipe
  /// ripples through the workers, then returns WITHOUT waiting. Poll
  /// finished() to learn when every member's final drive has run — a
  /// worker must never block on another chain's teardown (the idle-flow
  /// eviction sweep runs this from a worker timer). Idempotent. After
  /// begin_shutdown() no further control operations may touch the chain.
  void begin_shutdown();

  /// True once a shutdown was initiated and every member has stopped
  /// running. Cheap; safe to poll from a worker timer for chains that are
  /// past begin_shutdown() (no control op blocks on worker progress once
  /// the chain is shut down).
  bool finished() const;

  // --- Observability (src/obs) -------------------------------------------

  /// Publishes chain metrics under "<name>/..." in `reg` and per-member
  /// metrics under "<name>/<filter-name>/..." (head, tail, and every
  /// configured filter; duplicate filter names get a "#2", "#3", ... suffix
  /// in registration order). Filters inserted later are registered as they
  /// arrive; removed filters have their metrics dropped. Chain-level
  /// entries: inserts/removes/reorders/set_params counters, a `filters`
  /// gauge, a `reconfig_us` splice-latency histogram, and an `events` trace
  /// ring of reconfigurations. Rebinding replaces any previous binding.
  void bind_metrics(obs::Registry& reg, const std::string& name);

  /// Drops everything bind_metrics registered (idempotent). Runs
  /// automatically on destruction; call earlier if the registry must stop
  /// referencing the chain's filters sooner.
  void unbind_metrics();

 private:
  /// Validates a hypothetical filter vector; returns the first error.
  std::optional<std::string> check_types_locked(
      const std::vector<std::shared_ptr<Filter>>& filters) const
      RW_REQUIRES(mu_);
  Filter& left_of_locked(std::size_t pos) RW_REQUIRES(mu_);
  Filter& right_of_locked(std::size_t pos) RW_REQUIRES(mu_);
  void check_pos_locked(std::size_t pos, bool inclusive) const
      RW_REQUIRES(mu_);
  // Metrics plumbing; all require mu_. Lock order: mu_ before the registry
  // mutex, and registered callbacks never take mu_ (src/obs/metrics.h).
  void attach_filter_locked(Filter& filter) RW_REQUIRES(mu_);
  void detach_filter_locked(const Filter& filter) RW_REQUIRES(mu_);
  void record_locked(const std::string& text) RW_REQUIRES(mu_);
  /// The loop for the next started member: host_, or the next spread_ one.
  EventLoop& place_locked() RW_REQUIRES(mu_);

  mutable rw::Mutex mu_{"core/filter_chain", rw::lockrank::kFilterChain};
  const std::shared_ptr<Filter> head_;  // immutable after construction
  const std::shared_ptr<Filter> tail_;  // immutable after construction
  EventLoop* host_ RW_GUARDED_BY(mu_) = nullptr;
  WorkerPool* spread_ RW_GUARDED_BY(mu_) = nullptr;  // host_on(WorkerPool&)
  std::size_t spread_next_ RW_GUARDED_BY(mu_) = 0;   // next worker index
  // The pool the chain's `pool/` gauges report on: the host worker's
  // arena once placed, util::default_pool() before. An atomic (not
  // mu_-guarded) because registry callbacks must never take mu_; nullptr
  // means "not placed yet, read the process pool".
  std::atomic<util::BufferPool*> metrics_pool_{nullptr};
  std::vector<std::shared_ptr<Filter>> filters_ RW_GUARDED_BY(mu_);
  bool started_ RW_GUARDED_BY(mu_) = false;
  bool shut_down_ RW_GUARDED_BY(mu_) = false;
  std::string stream_type_ RW_GUARDED_BY(mu_) = "any";
  bool enforce_types_ RW_GUARDED_BY(mu_) = false;

  // Observability state (guarded by mu_). The `filters` gauge is set during
  // control ops rather than pulled through a callback so no registry
  // callback ever needs mu_.
  std::optional<obs::Scope> scope_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Counter> m_inserts_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Counter> m_removes_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Counter> m_reorders_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Counter> m_set_params_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Gauge> m_filters_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::Histogram> m_reconfig_us_ RW_GUARDED_BY(mu_);
  std::shared_ptr<obs::TraceRing> m_events_ RW_GUARDED_BY(mu_);
  std::map<const Filter*, std::string> bound_ RW_GUARDED_BY(mu_);
};

}  // namespace rapidware::core
