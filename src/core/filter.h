// Filter base classes (the paper's Filter class, Section 4).
//
// Every proxy filter owns one DetachableInputStream and one
// DetachableOutputStream — always present, so the ControlThread/FilterChain
// can splice the filter in and out of a running stream. A filter runs
// hosted on a core::EventLoop between start_on() and its final drive: the
// loop calls on_ready() whenever one of its streams becomes ready, so an
// idle filter holds no OS thread. A loop per filter is the paper's
// thread-per-filter layout (FilterChain::host_on(WorkerPool&)).
//
// Two processing styles:
//   * ByteFilter   — transforms raw byte chunks;
//   * PacketFilter — reads length-prefixed frames (util::framing) and
//     handles whole packets, which is how stream-type-specific insertion
//     points ("frame boundaries", Section 3) are honoured.
//
// Removal protocol: the chain marks the filter's DIS with a soft EOF; the
// drive observes end-of-stream, calls the flush hook (e.g. emit a partial
// FEC group), and finishes WITHOUT closing its DOS, so downstream stays
// connected.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/detachable_stream.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/frame_reader.h"

namespace rapidware::core {

class EventLoop;

namespace detail {
struct FilterEventCore;
}  // namespace detail

/// Free-form key/value parameters a filter exposes for the control manager.
using ParamMap = std::map<std::string, std::string>;

class Filter {
 public:
  explicit Filter(std::string name,
                  std::size_t buffer_capacity =
                      DetachableInputStream::kDefaultCapacity);
  virtual ~Filter();

  Filter(const Filter&) = delete;
  Filter& operator=(const Filter&) = delete;

  const std::string& name() const noexcept { return name_; }

  DetachableInputStream& dis() noexcept { return *dis_; }
  DetachableOutputStream& dos() noexcept { return *dos_; }

  /// Hosts the filter on `loop`: the loop drives on_ready() whenever a
  /// stream readiness callback fires, so the filter consumes no OS thread
  /// while idle. Filters are restartable — a removed filter can be
  /// re-inserted elsewhere once its previous run finished. Throws
  /// StreamError while a run is still in progress.
  void start_on(EventLoop& loop);

  /// True while a run is in progress: hosted on a loop, between
  /// start_on() and the drive reaching Drive::kDone.
  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Waits for the run to finish. Does not itself request the exit — use
  /// detach_request() or close the input first. A control-plane call: it
  /// must never run on the filter's own loop, whose drive it waits for.
  void join();

  /// Asks the run to finish: drains the input via soft EOF. Pair with
  /// join().
  void detach_request();

  /// Asks a source-driven filter (reader endpoint) to stop producing.
  /// Default: no-op; ordinary filters stop via detach_request().
  virtual void interrupt() {}

  /// Human-readable one-line description for the control manager.
  virtual std::string describe() const { return name_; }

  /// Current tunable parameters (FEC (n,k), throttle rate, ...).
  virtual ParamMap params() const { return {}; }

  /// Reconfigures a parameter at run time; returns false if unknown/invalid.
  virtual bool set_param(const std::string& key, const std::string& value);

  // Composability typing (core/composability.h): what stream type this
  // filter requires, and how it transforms the type. Defaults describe a
  // type-preserving filter that accepts anything (taps, throttles, null).
  virtual std::string input_requirement() const { return "any"; }
  virtual std::string output_type(const std::string& input) const {
    return input;
  }

  /// Publishes this filter's metrics under `scope` (callback gauges over the
  /// filter's streams). FilterChain::bind_metrics calls this for every
  /// member and drops the scope before the filter can be destroyed.
  /// Overrides must call the base, and registered callbacks must not acquire
  /// the chain mutex (lock-order rule in src/obs/metrics.h).
  virtual void register_metrics(obs::Scope scope);

 protected:
  /// What one on_ready() drive concluded.
  enum class Drive {
    kIdle,  // would-block: a readiness watcher is armed, wait for it
    kMore,  // work budget exhausted; re-post so other chains get a turn
    kDone,  // stream ended: the run finishes
  };

  /// One non-blocking drive: pull input via the poll APIs until would-block
  /// or the per-iteration budget is spent. Runs on the loop thread; must
  /// never block (the whole point — a blocked drive stalls every chain
  /// sharing the worker).
  virtual Drive on_ready() = 0;

  /// Run lifecycle hooks, called on the control thread in start_on()
  /// (before the first drive) and on the loop thread after the final one.
  /// Reset per-run decode state here (FrameReader, pending buffers).
  virtual void event_start() {}
  virtual void event_stop() {}

  /// The readiness target for auxiliary inputs (endpoint packet sources
  /// register this with set_scheduler). Valid between event_start() and
  /// event_stop().
  Scheduler* event_scheduler() const noexcept;

  /// Re-drives this filter once `delay` has passed on its loop's clock and
  /// swallows every drive before then: how a drive waits (then returns
  /// kIdle) without holding the worker. Call from on_ready() only.
  void wake_after(std::chrono::microseconds delay);

  /// Hosts `child` on this filter's loop and re-drives this filter once the
  /// child's run finishes: how a composite sequences its children's flushes
  /// without joining them. Call from event_start() only. If the child fails
  /// to start, this run is killed before the rethrow; the caller must end
  /// (may join) the children it already started.
  void start_child(Filter& child);

  /// Per-drive work budget: after this many packets/chunks the drive
  /// returns kMore, yielding the worker to other chains (fairness under
  /// run-to-completion dispatch).
  static constexpr int kDriveBudget = 64;

  /// Moves bytes from a pollable source into a pollable sink through one
  /// recycled chunk buffer, never blocking: the drive body of ByteFilter,
  /// of the byte endpoints and of a composite's bridges. Each chunk passes
  /// through process(); once the source ends, flush_tail()'s bytes go out
  /// last. A chunk the sink only partly accepts is parked and finished
  /// first on the next run(), and no input is read while bytes are
  /// parked, so the stream never reorders.
  class BytePump {
   public:
    explicit BytePump(std::size_t chunk) : chunk_(chunk) {}
    virtual ~BytePump() = default;

    /// Up to kDriveBudget chunks. kIdle: one side would block and its
    /// watcher is armed; kDone: the source ended and everything, the tail
    /// included, reached the sink.
    Drive run(util::ByteSource& from, util::ByteSink& to);

    /// Ends a run: returns the buffer to the calling thread's arena and
    /// readies the pump for the next run.
    void reset();

   protected:
    /// Transform hooks; the plain pump copies bytes through unchanged.
    virtual util::Bytes process(util::Bytes in) { return in; }
    virtual util::Bytes flush_tail() { return {}; }

   private:
    bool flush_parked(util::ByteSink& to);

    const std::size_t chunk_;
    util::Bytes buf_;      // from the loop thread's arena
    std::size_t off_ = 0;  // written prefix of a parked buf_
    bool parked_ = false;
    bool ended_ = false;   // the source ended; flush_tail() already ran
  };

 private:
  friend struct detail::FilterEventCore;

  void host(EventLoop& loop, std::weak_ptr<detail::FilterEventCore> parent);
  void drive_event(detail::FilterEventCore& core);
  void finish_event(detail::FilterEventCore& core);

  std::string name_;
  std::unique_ptr<DetachableInputStream> dis_;
  std::unique_ptr<DetachableOutputStream> dos_;
  // Not mutex-guarded by design: start_on()/join() are control-plane
  // calls, serialized externally (FilterChain holds its mu_ across every
  // splice). Only `running_` may be read concurrently, hence atomic.
  // `event_core_` is written by start_on() and read by join()/the
  // destructor — both control-plane — and by loop tasks that hold their
  // own shared_ptr copy.
  std::atomic<bool> running_{false};
  std::shared_ptr<detail::FilterEventCore> event_core_;
};

/// Transforms raw byte chunks.
class ByteFilter : public Filter {
 public:
  using Filter::Filter;

 protected:
  /// The drive: a BytePump from the DIS to the DOS through process().
  Drive on_ready() override { return pump_.run(dis(), dos()); }
  void event_stop() override { pump_.reset(); }

  /// Transforms `in`; whatever it returns is written downstream. The default
  /// passes data through unchanged.
  virtual util::Bytes process(util::Bytes in) { return in; }

  /// Called when the input reports EOF (hard or detach); emit any buffered
  /// tail here by returning it.
  virtual util::Bytes flush_tail() { return {}; }

  /// Chunk size for reads. Sized to drain a default 64 KiB stream buffer
  /// in a couple of polls: every poll is a lock acquisition, so bigger
  /// chunks directly cut per-byte synchronization on pass-through hops.
  static constexpr std::size_t kChunk = 32768;

 private:
  /// Routes the pump's transform hooks to this filter's.
  struct Pump final : BytePump {
    explicit Pump(ByteFilter& f) : BytePump(kChunk), filter(f) {}
    util::Bytes process(util::Bytes in) override {
      return filter.process(std::move(in));
    }
    util::Bytes flush_tail() override { return filter.flush_tail(); }
    ByteFilter& filter;
  };
  Pump pump_{*this};
};

/// Transforms whole framed packets; may emit zero or more packets per input.
class PacketFilter : public Filter {
 public:
  using Filter::Filter;

  void register_metrics(obs::Scope scope) override;

 protected:
  /// The drive: batched frames via FrameReader::poll(), each handed to
  /// on_packet(). Emits that find the downstream ring full (or mid-splice)
  /// are parked in ev_pending_ and retried on the writable callback before
  /// any new input is taken.
  Drive on_ready() override;
  void event_start() override;
  void event_stop() override;

  /// Handles one input packet; call emit() for each output packet, or
  /// defer() to see it again later.
  virtual void on_packet(util::Bytes packet) = 0;

  /// Called on EOF before the run finishes; emit pending state here.
  virtual void on_flush() {}

  /// Writes one framed packet downstream (copied only if it must park).
  /// Call from on_packet()/on_flush() only: emits belong to the drive.
  void emit(util::ByteSpan packet);

  /// Move-through emit: writes the packet, then recycles its capacity
  /// through the worker's arena (util::BufferPool::local()). A
  /// pass-through hop — FrameReader acquires from the pool, on_packet
  /// forwards with emit(std::move(packet)) — touches the allocator zero
  /// times per packet in steady state (asserted by the pool hit-rate test).
  /// Prefer this overload whenever the packet buffer is dead after the
  /// call.
  void emit(util::Bytes&& packet);

  /// Hands `packet` back: no input is read until on_packet() gets it again,
  /// once `delay` has passed (wake_after). Call from on_packet() only.
  void defer(util::Bytes packet, std::chrono::microseconds delay);

  std::uint64_t packets_in() const noexcept {
    return packets_in_.load(std::memory_order_relaxed);
  }
  std::uint64_t packets_out() const noexcept {
    return packets_out_.load(std::memory_order_relaxed);
  }

 private:
  bool flush_ev_pending();

  // Atomic so snapshot readers can observe them while the loop runs.
  std::atomic<std::uint64_t> packets_in_{0};
  std::atomic<std::uint64_t> packets_out_{0};

  // Run state; loop-thread-only between event_start() and the final drive.
  std::unique_ptr<util::FrameReader> ev_frames_;
  std::deque<util::Bytes> ev_pending_;  // emits parked behind backpressure
  std::optional<util::Bytes> ev_deferred_;  // handed back by defer()
  bool ev_flushed_ = false;             // on_flush() already ran this run
};

/// The "null" filter: forwards bytes untouched. Two EndPoints plus a null
/// filter (or none) form the paper's null proxy.
class NullFilter final : public ByteFilter {
 public:
  NullFilter() : ByteFilter("null") {}
  explicit NullFilter(std::string name) : ByteFilter(std::move(name)) {}
};

}  // namespace rapidware::core
