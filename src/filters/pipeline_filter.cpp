#include "filters/pipeline_filter.h"

#include <sstream>
#include <stdexcept>

namespace rapidware::filters {

PipelineFilter::PipelineFilter(
    std::string name, std::vector<std::shared_ptr<core::Filter>> children)
    : Filter(std::move(name)), children_(std::move(children)) {
  for (const auto& child : children_) {
    if (!child) {
      throw std::invalid_argument("PipelineFilter: null child");
    }
    if (child->running()) {
      throw std::invalid_argument("PipelineFilter: child already running");
    }
  }
}

PipelineFilter::~PipelineFilter() {
  // End a live run while this class's members still exist: the base
  // destructor would wait for the final drive only after they are gone.
  dis().close();
  if (running()) dos().close();
  join();
}

std::string PipelineFilter::describe() const {
  std::ostringstream os;
  os << name() << "[";
  for (std::size_t i = 0; i < children_.size(); ++i) {
    os << (i ? " -> " : "") << children_[i]->describe();
  }
  os << "]";
  return os.str();
}

core::ParamMap PipelineFilter::params() const {
  core::ParamMap out;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    for (const auto& [k, v] : children_[i]->params()) {
      out[std::to_string(i) + "." + children_[i]->name() + "." + k] = v;
    }
  }
  return out;
}

std::string PipelineFilter::input_requirement() const {
  return children_.empty() ? "any" : children_.front()->input_requirement();
}

std::string PipelineFilter::output_type(const std::string& input) const {
  std::string type = input;
  for (const auto& child : children_) type = child->output_type(type);
  return type;
}

void PipelineFilter::event_start() {
  // Refuse a child started elsewhere before wiring anything.
  for (const auto& child : children_) {
    if (child->running()) {
      throw core::StreamError("PipelineFilter: child " + child->name() +
                              " already running");
    }
  }
  // Wire the row per run: the children are restartable and were detached
  // by the previous run's final drive.
  core::DetachableInputStream& first =
      children_.empty() ? collect_ : children_.front()->dis();
  feed_.connect(first);
  for (std::size_t i = 0; i + 1 < children_.size(); ++i) {
    children_[i]->dos().connect(children_[i + 1]->dis());
  }
  if (!children_.empty()) children_.back()->dos().connect(collect_);
  input_ended_ = false;
  drained_ = 0;
  abandoned_ = false;
  feed_.set_write_scheduler(event_scheduler());
  collect_.set_read_scheduler(event_scheduler());
  // Consumers before producers, as FilterChain::start does.
  auto it = children_.rbegin();
  try {
    for (; it != children_.rend(); ++it) start_child(**it);
  } catch (...) {
    // start_child() killed this run. End the children it started (this is
    // the control thread): none may write into collect_ after it dies.
    feed_.set_write_scheduler(nullptr);
    collect_.set_read_scheduler(nullptr);
    for (auto started = children_.rbegin(); started != it; ++started) {
      (*started)->dis().close();
      (*started)->join();
    }
    throw;
  }
}

void PipelineFilter::event_stop() {
  feed_.set_write_scheduler(nullptr);
  collect_.set_read_scheduler(nullptr);
  in_.reset();
  out_.reset();
}

void PipelineFilter::advance_drain() {
  // Stage d (child d, then collect_ as stage n) may take its soft EOF once
  // everything upstream of it sits in its ring: stage 0 once the input
  // ended, stage d > 0 once child d - 1 finished flushing into it. A
  // child's finish re-drives this composite (start_child).
  while (drained_ <= children_.size()) {
    if (drained_ > 0 && children_[drained_ - 1]->running()) return;
    if (drained_ == children_.size()) {
      collect_.mark_soft_eof();
    } else {
      children_[drained_]->detach_request();
    }
    ++drained_;
  }
}

core::Filter::Drive PipelineFilter::on_ready() {
  if (!abandoned_) {
    try {
      const Drive out = out_.run(collect_, dos());
      if (out == Drive::kDone) {
        // collect_ ended: every child finished and flushed. Detach the row
        // (each pipe is drained, so the pauses return at once) and leave
        // this composite's DOS connected — the removal protocol.
        feed_.pause();
        for (const auto& child : children_) child->dos().pause();
        dos().flush();
        return Drive::kDone;
      }
      Drive in = Drive::kIdle;
      if (!input_ended_) {
        in = in_.run(dis(), feed_);
        input_ended_ = in == Drive::kDone;
      }
      if (input_ended_) advance_drain();
      return out == Drive::kMore || in == Drive::kMore ? Drive::kMore
                                                       : Drive::kIdle;
    } catch (const core::StreamError&) {
      // Like any dead filter: upstream writers see BrokenPipe. Closing
      // every input ends each child's run without waiting on its
      // neighbours; the row is not reusable afterwards.
      abandoned_ = true;
      dis().close();
      for (const auto& child : children_) child->dis().close();
      collect_.close();
    }
  }
  for (const auto& child : children_) {
    if (child->running()) return Drive::kIdle;  // its finish re-drives us
  }
  return Drive::kDone;
}

void register_pipeline_factory(core::FilterRegistry& registry) {
  registry.register_factory(
      "pipeline", [&registry](const core::ParamMap& params) {
        std::vector<std::shared_ptr<core::Filter>> children;
        std::string names;
        if (auto it = params.find("of"); it != params.end()) names = it->second;
        std::string piece;
        std::istringstream in(names);
        while (std::getline(in, piece, ',')) {
          if (!piece.empty()) children.push_back(registry.create({piece, {}}));
        }
        std::string name = "pipeline";
        if (auto it = params.find("name"); it != params.end()) name = it->second;
        return std::make_shared<PipelineFilter>(std::move(name),
                                                std::move(children));
      });
}

}  // namespace rapidware::filters
