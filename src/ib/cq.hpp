// Completion queue.
//
// Completions can be consumed either by polling (poll()) or, the natural
// style in a discrete-event simulation, by registering a callback that
// fires as each CQE lands (models an armed CQ event channel).
#pragma once

#include <deque>
#include <functional>
#include <optional>

#include "ib/verbs.hpp"
#include "sim/containers.hpp"
#include "sim/simulator.hpp"

namespace ibwan::ib {

class Cq {
 public:
  explicit Cq(sim::Simulator& sim) : sim_(sim) {}

  Cq(const Cq&) = delete;
  Cq& operator=(const Cq&) = delete;

  /// Event-driven consumption: invoked once per CQE, in completion order.
  /// When set, entries bypass the polling queue.
  void set_callback(std::function<void(const Cqe&)> cb) {
    callback_ = std::move(cb);
  }

  /// Polling consumption: pops the oldest completion if any.
  std::optional<Cqe> poll() {
    if (queue_.empty()) return std::nullopt;
    Cqe e = queue_.front();
    queue_.pop_front();
    return e;
  }

  std::size_t depth() const { return queue_.size(); }
  std::uint64_t completions() const { return completions_; }

  /// Internal: HCA-side delivery after `delay` ns of completion latency.
  /// The CQE waits in a slab so the event captures only {this, index}
  /// and fits the engine's inline callback buffer.
  void push_after(sim::Duration delay, Cqe e) {
    const std::uint32_t idx = pending_.put(std::move(e));
    sim_.schedule_fixed(delay, [this, idx] { land(pending_.take(idx)); });
  }

 private:
  void land(Cqe e) {
    ++completions_;
    if (callback_) {
      callback_(e);
    } else {
      queue_.push_back(std::move(e));
    }
  }

  sim::Simulator& sim_;
  std::function<void(const Cqe&)> callback_;
  sim::Slab<Cqe> pending_;  // CQEs paying their completion latency
  std::deque<Cqe> queue_;
  std::uint64_t completions_ = 0;
};

}  // namespace ibwan::ib
