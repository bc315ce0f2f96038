// Composite filter: a named pipeline of child filters that inserts and
// removes as ONE unit. This is how a third party uploads a multi-stage
// transformation (e.g. "compress, then encrypt") into a running proxy — the
// chained-worker composition the paper contrasts with TranSend's TACC
// model (Section 6), packaged as a mobile component.
//
// Internally the composite wires its children in a row between two inner
// streams of its own — feed_ (into the first child) and collect_ (out of
// the last) — and hosts them on its own loop. Its drive bridges its DIS
// into feed_ and collect_ into its DOS. EOF on the composite's DIS (hard
// or soft) drains the children one at a time, in order: each child gets a
// soft EOF only after its upstream neighbour finished flushing, so every
// child flushes into the next before the composite finishes and detaches
// the row — the chain-removal contract, held transitively, without any
// drive ever blocking on a child.
#pragma once

#include <memory>
#include <vector>

#include "core/detachable_stream.h"
#include "core/filter.h"
#include "core/filter_registry.h"

namespace rapidware::filters {

class PipelineFilter final : public core::Filter {
 public:
  /// Children must be idle; they are started/stopped with the composite.
  PipelineFilter(std::string name,
                 std::vector<std::shared_ptr<core::Filter>> children);
  ~PipelineFilter() override;

  std::string describe() const override;
  core::ParamMap params() const override;

  /// Composability: the pipeline requires what its first child requires and
  /// transforms types by folding the children.
  std::string input_requirement() const override;
  std::string output_type(const std::string& input) const override;

  std::size_t child_count() const noexcept { return children_.size(); }

 protected:
  Drive on_ready() override;
  void event_start() override;
  void event_stop() override;

 private:
  /// Soft-EOFs the stage after the last finished child, once per child.
  void advance_drain();

  std::vector<std::shared_ptr<core::Filter>> children_;

  // Run state; loop-thread-only between event_start() and the final drive
  // (event_start() itself runs before any drive).
  core::DetachableOutputStream feed_;  // -> first child (or collect_)
  core::DetachableInputStream collect_;  // <- last child (or feed_)
  static constexpr std::size_t kChunk = 32 * 1024;  // as ByteFilter's
  BytePump in_{kChunk};   // DIS -> feed_
  BytePump out_{kChunk};  // collect_ -> DOS
  bool input_ended_ = false;  // DIS reported EOF and in_ flushed it all
  std::size_t drained_ = 0;   // children given their soft EOF so far
  bool abandoned_ = false;
};

/// Registers the "pipeline" factory with a registry. The parameter "of" is
/// a comma-separated list of registered filter names, each instantiated
/// with defaults, e.g. {"pipeline", {{"of", "compress,encrypt"}}}. Combine
/// with upload aliases to parameterize members.
void register_pipeline_factory(core::FilterRegistry& registry);

}  // namespace rapidware::filters
