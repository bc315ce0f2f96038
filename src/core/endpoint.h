// EndPoint objects (paper, Section 4): special filters that bridge the
// chain's detachable streams to the outside world. A reader endpoint pulls
// from a source and writes into its DOS; a writer endpoint reads its DIS and
// pushes into a sink. Two endpoints plus a ControlThread form a null proxy.
//
// Network-backed endpoints (the paper's EndPointSocketReader/Writer) live in
// src/proxy, built on these generic classes; here we depend only on the
// abstract byte/packet source and sink interfaces.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/filter.h"
#include "util/io.h"
#include "util/lock_rank.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rapidware::core {

/// Packet producer for reader endpoints.
class PacketSource {
 public:
  virtual ~PacketSource() = default;

  /// Blocks for the next packet; nullopt means the source is exhausted or
  /// was interrupted. For direct consumers — reader endpoints only poll.
  virtual std::optional<util::Bytes> next_packet() = 0;

  /// Unblocks a pending or future next_packet() call, making it return
  /// nullopt. Called from another thread to stop the endpoint.
  virtual void interrupt() {}

  // Non-blocking surface, required by PacketReaderEndpoint. A pollable
  // source implements poll_packet() and set_scheduler(): a poll that finds
  // the queue empty arms the registered scheduler, whose on_readable()
  // fires exactly once when a packet (or the finished flag) arrives — the
  // same one-shot contract the detachable streams use.

  /// Whether this source supports the poll_packet()/set_scheduler() pair.
  virtual bool pollable() const { return false; }

  /// Non-blocking next_packet(): nullopt with *finished=false means
  /// would-block (the scheduler is now armed); nullopt with *finished=true
  /// means exhausted/interrupted.
  virtual std::optional<util::Bytes> poll_packet(bool* finished);

  /// Registers (or, with nullptr, clears) the readiness target for
  /// poll_packet() would-blocks. The callback may run under the source's
  /// internal lock and must only post, never re-enter the source. Once a
  /// clearing call returns, no callback is running or will start.
  virtual void set_scheduler(Scheduler*) {}
};

/// Packet consumer for writer endpoints.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(util::ByteSpan packet) = 0;
  /// Called once when the stream feeding this sink ends.
  virtual void on_end() {}
};

/// Reads whole packets from a PacketSource and sends them down the chain as
/// framed messages (the paper's EndPointSocketReader shape).
class PacketReaderEndpoint final : public Filter {
 public:
  /// `source` must be pollable (std::invalid_argument otherwise).
  /// `buffer_capacity` sizes this endpoint's own (unused) input ring; it
  /// exists so dense many-chain deployments can shrink the per-stage ring
  /// footprint (bench_many_chains runs thousands of chains per worker).
  PacketReaderEndpoint(std::string name, std::shared_ptr<PacketSource> source,
                       std::size_t buffer_capacity =
                           DetachableInputStream::kDefaultCapacity);

  /// Asks the source to stop; the run then ends after the current packet.
  void interrupt() override { source_->interrupt(); }

  std::uint64_t packets_read() const noexcept {
    return packets_.load(std::memory_order_relaxed);
  }

  void register_metrics(obs::Scope scope) override;

 protected:
  /// Poll packets from the source and frame them downstream. A frame that
  /// finds the ring full is parked (one-deep stash) and retried on the
  /// writable callback; source exhaustion reaches kDone without closing
  /// the DOS (removal protocol).
  Drive on_ready() override;
  void event_start() override;
  void event_stop() override;

 private:
  std::shared_ptr<PacketSource> source_;
  std::atomic<std::uint64_t> packets_{0};
  // Run state; loop-thread-only between event_start() and the final drive.
  std::optional<util::Bytes> ev_parked_;  // payload awaiting ring space
};

/// Reads framed messages from the chain and delivers them to a PacketSink
/// (the paper's EndPointSocketWriter shape).
class PacketWriterEndpoint final : public Filter {
 public:
  PacketWriterEndpoint(std::string name, std::shared_ptr<PacketSink> sink,
                       std::size_t buffer_capacity =
                           DetachableInputStream::kDefaultCapacity);

  std::uint64_t packets_written() const noexcept {
    return packets_.load(std::memory_order_relaxed);
  }

  void register_metrics(obs::Scope scope) override;

 protected:
  /// Batched FrameReader::poll() pulls, each frame delivered to the sink
  /// inline (sinks are non-blocking consumers by contract). EOF calls
  /// on_end() once, then kDone.
  Drive on_ready() override;
  void event_start() override;
  void event_stop() override;

 private:
  std::shared_ptr<PacketSink> sink_;
  std::atomic<std::uint64_t> packets_{0};
  // Run state; loop-thread-only between event_start() and the final drive.
  std::unique_ptr<util::FrameReader> ev_frames_;
  bool ev_ended_ = false;  // on_end() already delivered this run
};

/// Byte-oriented reader endpoint over any pollable util::ByteSource (the
/// paper's EndPointStreamReader): file, in-memory buffer, generator. A
/// source that is not pollable is rejected (std::invalid_argument).
class ByteReaderEndpoint final : public Filter {
 public:
  ByteReaderEndpoint(std::string name, std::shared_ptr<util::ByteSource> source,
                     std::size_t chunk = 4096,
                     std::size_t buffer_capacity =
                         DetachableInputStream::kDefaultCapacity);

 protected:
  /// Pumps the source into the DOS; EOF reaches kDone without closing the
  /// DOS (removal protocol).
  Drive on_ready() override;
  void event_start() override;
  void event_stop() override;

 private:
  std::shared_ptr<util::ByteSource> source_;
  BytePump pump_;
};

/// Byte-oriented writer endpoint over any pollable util::ByteSink.
class ByteWriterEndpoint final : public Filter {
 public:
  ByteWriterEndpoint(std::string name, std::shared_ptr<util::ByteSink> sink,
                     std::size_t buffer_capacity =
                         DetachableInputStream::kDefaultCapacity);

 protected:
  /// Pumps the DIS into the sink; a short sink write parks the suffix
  /// until the sink's ready watcher fires. EOF flushes the sink, then
  /// kDone.
  Drive on_ready() override;
  void event_start() override;
  void event_stop() override;

 private:
  std::shared_ptr<util::ByteSink> sink_;
  BytePump pump_;
};

/// In-memory packet source backed by a queue; push() feeds the endpoint,
/// finish() ends the stream. Used heavily by tests and examples.
class QueuePacketSource final : public PacketSource {
 public:
  std::optional<util::Bytes> next_packet() override;
  void interrupt() override;

  bool pollable() const override { return true; }
  std::optional<util::Bytes> poll_packet(bool* finished) override;
  void set_scheduler(Scheduler* sched) override;

  void push(util::Bytes packet);
  void finish();

 private:
  /// Fires the armed scheduler (one-shot) under mu_; push()/finish() call
  /// this so an event-hosted consumer wakes exactly like a parked thread.
  void fire_readable_locked() RW_REQUIRES(mu_);

  rw::Mutex mu_{"core/packet_queue", rw::lockrank::kPacketQueue};
  rw::CondVar cv_;
  std::deque<util::Bytes> queue_ RW_GUARDED_BY(mu_);
  bool finished_ RW_GUARDED_BY(mu_) = false;
  int waiters_ RW_GUARDED_BY(mu_) = 0;  // consumers parked in next_packet()
  Scheduler* sched_ RW_GUARDED_BY(mu_) = nullptr;
  bool sched_armed_ RW_GUARDED_BY(mu_) = false;  // one-shot, armed by poll
};

/// In-memory packet sink collecting everything it receives.
class CollectingPacketSink final : public PacketSink {
 public:
  void deliver(util::ByteSpan packet) override;
  void on_end() override;

  /// Blocks until at least n packets arrived or the stream ended.
  bool wait_for(std::size_t n, std::int64_t timeout_ms = 10'000);
  /// Blocks until the stream ends.
  bool wait_end(std::int64_t timeout_ms = 10'000);

  std::vector<util::Bytes> packets() const;
  std::size_t count() const;
  bool ended() const;

 private:
  mutable rw::Mutex mu_{"core/packet_collector", rw::lockrank::kPacketCollector};
  rw::CondVar cv_;
  std::vector<util::Bytes> packets_ RW_GUARDED_BY(mu_);
  bool ended_ RW_GUARDED_BY(mu_) = false;
  int waiters_ RW_GUARDED_BY(mu_) = 0;  // threads parked in wait_for/wait_end
};

}  // namespace rapidware::core
