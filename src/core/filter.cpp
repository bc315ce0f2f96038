#include "core/filter.h"

#include <cstring>
#include <utility>

#include "core/event_loop.h"
#include "util/buffer_pool.h"
#include "util/frame_reader.h"
#include "util/framing.h"
#include "util/lock_rank.h"
#include "util/logging.h"

namespace rapidware::core {

namespace detail {

/// Shared hosting state of one filter run. Tasks capture a
/// shared_ptr, so a late readiness fire can never dangle: `alive` flips
/// false in finish_event() ON the loop thread, and because all of a core's
/// tasks serialize on that one thread, any task posted after the final
/// drive observes it and returns without touching the filter.
struct FilterEventCore final : Scheduler,
                               std::enable_shared_from_this<FilterEventCore> {
  FilterEventCore(Filter* filter, EventLoop* loop)
      : filter(filter), loop(loop) {}

  /// Coalescing re-drive: at most one task in flight per core. The flag
  /// clears at task START, so a fire during a drive posts a fresh task —
  /// the armed-under-the-stream-lock protocol makes lost wakeups
  /// impossible.
  void schedule() {
    if (scheduled.exchange(true, std::memory_order_acq_rel)) return;
    loop->post([self = shared_from_this()] {
      self->scheduled.store(false, std::memory_order_release);
      if (!self->alive.load(std::memory_order_acquire)) return;
      self->filter->drive_event(*self);
    });
  }

  // Fired under a stream lock (core::Scheduler contract): post only.
  void on_readable() override { schedule(); }
  void on_writable() override { schedule(); }

  Filter* const filter;
  EventLoop* const loop;
  // A composite's core, re-driven after this run's final drive (set once
  // before the first schedule(); see Filter::start_child).
  std::weak_ptr<FilterEventCore> parent;
  std::atomic<bool> alive{true};
  std::atomic<bool> scheduled{false};
  util::Micros wake_at = 0;  // loop clock; drives before it are swallowed

  rw::Mutex mu{"core/filter_event", rw::lockrank::kFilterEvent};
  rw::CondVar done_cv;
  bool done RW_GUARDED_BY(mu) = false;  // the run's join()/destructor gate
};

}  // namespace detail

Filter::Filter(std::string name, std::size_t buffer_capacity)
    : name_(std::move(name)),
      dis_(std::make_unique<DetachableInputStream>(buffer_capacity)),
      dos_(std::make_unique<DetachableOutputStream>()) {}

Filter::~Filter() {
  // Close both streams so a drive parked on either side reaches
  // Drive::kDone (a parked try_write turns into BrokenPipe), then wait for
  // that final drive.
  dis_->close();
  if (running()) dos_->close();
  join();
}

void Filter::start_on(EventLoop& loop) { host(loop, {}); }

void Filter::start_child(Filter& child) {
  try {
    child.host(*event_core_->loop, event_core_);
  } catch (...) {
    // Dead before the caller ends the children it started: their final
    // drives re-drive this core.
    event_core_->alive.store(false, std::memory_order_release);
    throw;
  }
}

void Filter::host(EventLoop& loop,
                  std::weak_ptr<detail::FilterEventCore> parent) {
  if (running_.load(std::memory_order_acquire)) {
    throw StreamError("Filter::start_on: already running");
  }
  // A previous run is fully finished here (running_ cleared by its final
  // drive), so its core can go.
  event_core_ = std::make_shared<detail::FilterEventCore>(this, &loop);
  event_core_->parent = std::move(parent);
  running_.store(true, std::memory_order_release);
  try {
    event_start();
  } catch (...) {
    event_core_.reset();  // nothing drove it: the run never began
    running_.store(false, std::memory_order_release);
    throw;
  }
  dis_->set_read_scheduler(event_core_.get());
  dos_->set_write_scheduler(event_core_.get());
  event_core_->schedule();  // input (or an EOF) may already be waiting
}

void Filter::join() {
  if (const std::shared_ptr<detail::FilterEventCore> core = event_core_) {
    // Must not be called from the filter's own worker: the drive that
    // would set `done` runs behind this very task. Control-plane threads
    // only (FilterChain serializes them).
    rw::MutexLock lk(core->mu);
    core->done_cv.wait(core->mu, [c = core.get()] {
      c->mu.assert_held();
      return c->done;
    });
  }
}

Scheduler* Filter::event_scheduler() const noexcept {
  return event_core_.get();
}

void Filter::wake_after(std::chrono::microseconds delay) {
  detail::FilterEventCore& core = *event_core_;
  sim::VirtualClock& clock = core.loop->clock();
  core.wake_at = clock.now() + delay.count();
  clock.schedule_at(core.wake_at,
                    [self = core.shared_from_this()] { self->schedule(); });
}

void Filter::drive_event(detail::FilterEventCore& core) {
  if (core.loop->clock().now() < core.wake_at) return;  // wake_after's timer
  Drive drive;
  try {
    drive = on_ready();
  } catch (const BrokenPipe&) {
    // Downstream went away; normal during teardown. Close the input so
    // upstream writers observe BrokenPipe instead of wedging against a
    // ring nobody will ever drain — a dead tail must not wedge the chain.
    dis_->close();
    drive = Drive::kDone;
  } catch (const std::exception& e) {
    RW_ERROR(name_) << "filter loop failed: " << e.what();
    dis_->close();
    drive = Drive::kDone;
  }
  switch (drive) {
    case Drive::kIdle:
      return;  // a watcher is armed; its fire posts the next drive
    case Drive::kMore:
      core.schedule();  // yield the worker, continue in a later batch
      return;
    case Drive::kDone:
      finish_event(core);
      return;
  }
}

void Filter::finish_event(detail::FilterEventCore& core) {
  // Uninstall the watchers first (under the stream locks) so a concurrent
  // notify cannot arm against a finished run, then flip alive: any task
  // already queued behind this one sees it and returns.
  dis_->set_read_scheduler(nullptr);
  dos_->set_write_scheduler(nullptr);
  event_stop();
  core.alive.store(false, std::memory_order_release);
  running_.store(false, std::memory_order_release);
  {
    rw::MutexLock lk(core.mu);
    core.done = true;
    core.done_cv.notify_all();
  }
  if (const auto parent = core.parent.lock()) parent->schedule();
}

void Filter::detach_request() { dis_->mark_soft_eof(); }

bool Filter::set_param(const std::string& key, const std::string& value) {
  (void)key;
  (void)value;
  return false;
}

void Filter::register_metrics(obs::Scope scope) {
  // Raw pointers are safe: the chain drops this scope (blocking out any
  // in-flight snapshot) before the filter can be destroyed.
  auto* dis = dis_.get();
  auto* dos = dos_.get();
  scope.callback("bytes_in",
                 [dis] { return static_cast<double>(dis->bytes_received()); });
  scope.callback("bytes_out",
                 [dos] { return static_cast<double>(dos->bytes_sent()); });
  scope.callback("pauses",
                 [dos] { return static_cast<double>(dos->pauses()); });
  scope.callback("wakeups",
                 [dis] { return static_cast<double>(dis->wakeups()); });
  scope.callback("wakeups_suppressed", [dis] {
    return static_cast<double>(dis->wakeups_suppressed());
  });
}

bool Filter::BytePump::flush_parked(util::ByteSink& to) {
  if (!parked_) return true;
  off_ += to.try_write_some(util::ByteSpan(buf_).subspan(off_));
  if (off_ < buf_.size()) return false;  // the sink's watcher is armed
  parked_ = false;
  off_ = 0;
  return true;
}

Filter::Drive Filter::BytePump::run(util::ByteSource& from,
                                    util::ByteSink& to) {
  if (!flush_parked(to)) return Drive::kIdle;
  if (ended_) return Drive::kDone;  // the tail just drained
  for (int budget = 0; budget < kDriveBudget; ++budget) {
    if (buf_.capacity() == 0) {
      // From the loop thread's arena (the worker's, not the control
      // thread's), and again whenever process() kept the buffer.
      buf_ = util::BufferPool::local().acquire(chunk_);
    }
    bool end = false;
    buf_.resize(chunk_);
    const std::size_t n = from.poll_read_borrow(
        chunk_,
        [this](util::ByteSpan a, util::ByteSpan b) -> std::size_t {
          std::memcpy(buf_.data(), a.data(), a.size());
          if (!b.empty()) {
            std::memcpy(buf_.data() + a.size(), b.data(), b.size());
          }
          return a.size() + b.size();
        },
        &end);
    if (n == 0) {
      buf_.clear();
      // Empty-and-open armed the source's watcher. An ended source is
      // done without closing the sink (removal protocol), once the tail
      // is out.
      if (!end) return Drive::kIdle;
      ended_ = true;
      util::Bytes tail = flush_tail();  // rw-lint: allow(RW006) once at stream end, not per chunk
      if (tail.empty()) return Drive::kDone;
      util::BufferPool::local().release(std::move(buf_));
      buf_ = std::move(tail);
      parked_ = true;
      return flush_parked(to) ? Drive::kDone : Drive::kIdle;
    }
    buf_.resize(n);
    buf_ = process(std::move(buf_));  // the same buffer, for pass-through
    if (buf_.empty()) continue;
    const std::size_t w = to.try_write_some(buf_);
    if (w < buf_.size()) {
      parked_ = true;
      off_ = w;
      return Drive::kIdle;  // the short write armed the sink's watcher
    }
  }
  return Drive::kMore;
}

void Filter::BytePump::reset() {
  util::BufferPool::local().release(std::move(buf_));
  buf_ = util::Bytes();
  off_ = 0;
  parked_ = false;
  ended_ = false;
}

void PacketFilter::event_start() {
  ev_frames_ = std::make_unique<util::FrameReader>(dis());
  ev_pending_.clear();
  ev_deferred_.reset();
  ev_flushed_ = false;
}

void PacketFilter::event_stop() {
  ev_frames_.reset();
  ev_deferred_.reset();
}

void PacketFilter::defer(util::Bytes packet,
                         std::chrono::microseconds delay) {
  ev_deferred_ = std::move(packet);
  wake_after(delay);
}

bool PacketFilter::flush_ev_pending() {
  while (!ev_pending_.empty()) {
    if (!util::try_write_frame(dos(), ev_pending_.front())) {
      return false;  // writable watcher armed
    }
    util::BufferPool::local().release(std::move(ev_pending_.front()));
    ev_pending_.pop_front();
  }
  return true;
}

Filter::Drive PacketFilter::on_ready() {
  if (!flush_ev_pending()) return Drive::kIdle;
  if (std::optional<util::Bytes> packet = std::exchange(ev_deferred_, {})) {
    on_packet(std::move(*packet));
    if (ev_deferred_ || !flush_ev_pending()) return Drive::kIdle;
  }
  for (int budget = 0; budget < kDriveBudget; ++budget) {
    bool end = false;
    auto packet = ev_frames_->poll(&end);
    if (!packet) {
      if (!end) return Drive::kIdle;  // readable watcher armed
      if (!ev_flushed_) {
        ev_flushed_ = true;
        on_flush();
      }
      return flush_ev_pending() ? Drive::kDone : Drive::kIdle;
    }
    packets_in_.fetch_add(1, std::memory_order_relaxed);
    on_packet(std::move(*packet));
    if (ev_deferred_ || !flush_ev_pending()) return Drive::kIdle;
  }
  return Drive::kMore;
}

void PacketFilter::emit(util::ByteSpan packet) {
  // Count before the frame becomes observable downstream so a STATS read
  // triggered by the packet's arrival never sees the counter lagging it.
  packets_out_.fetch_add(1, std::memory_order_relaxed);
  if (ev_pending_.empty() && util::try_write_frame(dos(), packet)) return;
  util::Bytes copy = util::BufferPool::local().acquire(packet.size());
  if (!packet.empty()) {
    std::memcpy(copy.data(), packet.data(), packet.size());
  }
  ev_pending_.push_back(std::move(copy));
}

void PacketFilter::emit(util::Bytes&& packet) {
  packets_out_.fetch_add(1, std::memory_order_relaxed);
  // Frames stay whole: all-or-nothing try_write_frame, with the packet
  // parked (move, no copy) when downstream is full or mid-splice. Input is
  // not consumed while anything is parked, so the backlog is bounded by
  // one on_packet()'s emissions.
  if (ev_pending_.empty() && util::try_write_frame(dos(), packet)) {
    util::BufferPool::local().release(std::move(packet));
    return;
  }
  ev_pending_.push_back(std::move(packet));
}

void PacketFilter::register_metrics(obs::Scope scope) {
  Filter::register_metrics(scope);
  scope.callback("packets_in",
                 [this] { return static_cast<double>(packets_in()); });
  scope.callback("packets_out",
                 [this] { return static_cast<double>(packets_out()); });
}

}  // namespace rapidware::core
