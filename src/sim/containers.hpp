// Allocation-free containers for the per-packet hot paths.
//
//   - Fifo<T>: a queue over a chain of fixed-size blocks. Components
//     with a constant delay (a switch hop, a Longbow pipeline, an event
//     lane) push and pop at the same rate; std::deque allocates and
//     frees a block every few elements under that pattern, a contiguous
//     ring moves every element when it grows, and a vector with a head
//     index keeps the consumed prefix. Here growth links one more block
//     and nothing moves; a block the head leaves is kept as a spare for
//     the tail to reuse (up to two), so steady traffic allocates nothing
//     and memory is O(current occupancy).
//
//   - Slab<T>: index-addressed storage for objects whose release order
//     is not FIFO (packets in flight on a jittered link, CQEs paying
//     their latency, UD completions awaiting the wire). Elements live
//     in fixed-size chunks, so growth never moves a live element; freed
//     indices recycle LIFO. Chunks live as long as the slab, so memory
//     is O(peak occupancy).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace ibwan::sim {

// Blocks of ~512 bytes by default, std::deque's size: the allocator
// recycles them among the many packet queues of a fabric.
template <class T,
          std::size_t kBlock = (sizeof(T) < 256 ? 512 / sizeof(T) : 2)>
class Fifo {
 public:
  Fifo() = default;
  Fifo(Fifo&& o) noexcept { swap(o); }
  Fifo& operator=(Fifo&& o) noexcept {
    Fifo(std::move(o)).swap(*this);
    return *this;
  }
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() {
    // Iterative: a long chain must not recurse.
    free_chain(head_);
    free_chain(spare_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Allocated element slots (test hook for the O(peak) bound).
  std::size_t capacity() const { return blocks_ * kBlock; }

  T& front() { return head_->items[head_i_]; }
  const T& front() const { return head_->items[head_i_]; }

  void push_back(T&& v) {
    if (tail_ == nullptr || tail_i_ == kBlock) link_block();
    tail_->items[tail_i_++] = std::move(v);
    ++size_;
  }

  /// Removes and returns the oldest element.
  T pop_front() {
    T v = std::move(front());
    drop_front();
    return v;
  }

  /// Removes the oldest element without moving it out.
  void drop_front() {
    if (--size_ == 0) {
      // Head and tail share one block: restart it rather than walk on.
      head_i_ = tail_i_ = 0;
    } else if (++head_i_ == kBlock) {
      Block* done = head_;
      head_ = done->next;
      head_i_ = 0;
      retire(done);
    }
  }

 private:
  // Spare blocks kept for reuse. A queue whose length is steady or
  // oscillates within a block or two allocates nothing; a burst's blocks
  // are freed as it drains, so many queues that peak at different times
  // do not each pin their own peak.
  static constexpr std::size_t kMaxSpare = 2;

  struct Block {
    T items[kBlock];
    Block* next = nullptr;
  };

  void swap(Fifo& o) noexcept {
    std::swap(head_, o.head_);
    std::swap(tail_, o.tail_);
    std::swap(spare_, o.spare_);
    std::swap(head_i_, o.head_i_);
    std::swap(tail_i_, o.tail_i_);
    std::swap(size_, o.size_);
    std::swap(spares_, o.spares_);
    std::swap(blocks_, o.blocks_);
  }

  void link_block() {
    Block* b = spare_;
    if (b != nullptr) {
      spare_ = b->next;
      b->next = nullptr;
      --spares_;
    } else {
      b = new Block;
      ++blocks_;
    }
    (tail_ == nullptr ? head_ : tail_->next) = b;
    tail_ = b;
    tail_i_ = 0;
  }

  void retire(Block* b) {
    if (spares_ < kMaxSpare) {
      b->next = spare_;
      spare_ = b;
      ++spares_;
    } else {
      delete b;
      --blocks_;
    }
  }

  static void free_chain(Block* b) {
    while (b != nullptr) {
      Block* next = b->next;
      delete b;
      b = next;
    }
  }

  Block* head_ = nullptr;  // owns the chain head_ -> ... -> tail_
  Block* tail_ = nullptr;
  Block* spare_ = nullptr;  // owns the spare chain
  std::size_t head_i_ = 0;
  std::size_t tail_i_ = 0;
  std::size_t size_ = 0;
  std::size_t spares_ = 0;
  std::size_t blocks_ = 0;  // allocated: chain + spares
};

template <class T>
class Slab {
 public:
  /// Stores `v` and returns its index.
  std::uint32_t put(T&& v) {
    if (free_.empty()) {
      const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunk);
      chunks_.push_back(std::make_unique<T[]>(kChunk));
      for (std::uint32_t i = kChunk; i-- > 0;) free_.push_back(base + i);
    }
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    at(idx) = std::move(v);
    return idx;
  }

  /// Moves the element at `idx` out and releases the index.
  T take(std::uint32_t idx) {
    T v = std::move(at(idx));
    free_.push_back(idx);
    return v;
  }

  /// Live elements.
  std::size_t size() const { return chunks_.size() * kChunk - free_.size(); }

 private:
  static constexpr std::uint32_t kChunk = 32;

  T& at(std::uint32_t idx) { return chunks_[idx / kChunk][idx % kChunk]; }

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;
};

}  // namespace ibwan::sim
