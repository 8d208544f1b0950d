// Discrete-event simulation engine.
//
// A Simulator owns a time-ordered event queue. Events are arbitrary
// callbacks; ties are broken by insertion order so runs are fully
// deterministic. Everything in the library (links, HCAs, TCP timers,
// MPI progress) is driven by this one clock.
//
// Two structures back the queue, both feeding off one slot pool that
// stores the callbacks:
//
//   - an indexed 4-ary min-heap over (time, seq) for future events.
//     Heap entries are 16-byte PODs (time, seq|slot packed), so the four
//     children scanned per sift level share one cache line and sifting
//     never moves a callback. Each slot records its heap position, so
//     cancel() removes the event in place in O(log n) — no tombstone
//     set, no deferred garbage — and cancelling a stale id is an O(1)
//     generation-check no-op.
//
//   - a same-instant FIFO for events scheduled at exactly `now()` (the
//     coroutine layer and completion dispatch produce these in bulk).
//     They never touch the heap: append and fire are O(1), and the
//     global sequence number keeps their ordering against heap events
//     bit-for-bit identical to a single queue.
//
//   - fixed-delay lanes (schedule_fixed): one FIFO per delay value,
//     shared by every caller that uses that delay. Because now() never
//     decreases and seq is global, events appended to a lane are
//     already in (time, seq) order, so only the lane's head needs a
//     heap entry — the lane's permanent "token" slot carries the
//     head's (time, seq) through the heap. Appending is O(1) (plus one
//     sift when the lane was empty); firing the head re-keys the token
//     in place with one sift_down. The same-instant FIFO is the d = 0
//     case. Lane entries cancel lazily by generation, like the FIFO's:
//     a cancelled head is skipped at once (the lane head is always
//     live), a cancelled mid-lane entry when it reaches the head.
//     Lanes are opt-in: the protocol layers use them for per-packet
//     constant costs (serialization, hops, HCA processing, CQ latency)
//     and the RC retransmit timer, whose delays come from a small set.
//
// Freed slots recycle through a free list and callbacks are
// InlineFunction (see inline_function.hpp), so steady-state traffic —
// schedule/fire/cancel churn with captures up to 48 bytes — runs with
// zero heap allocations and zero callback moves on the schedule path.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/containers.hpp"
#include "sim/inline_function.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace ibwan::sim {

/// Handle identifying a scheduled event; usable with Simulator::cancel().
/// Encodes (slot generation << 32 | slot index); generations start at 1,
/// so a forged small-integer id never matches a live event.
using EventId = std::uint64_t;

class Simulator {
 public:
  using Callback = InlineFunction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `cb` to run `delay` ns from now. Returns a cancellable id.
  /// Accepts any void() callable; captures are constructed in place.
  template <class F>
  EventId schedule(Duration delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Schedules `cb` at absolute time `t` (must not be in the past).
  template <class F>
  EventId schedule_at(Time t, F&& cb) {
    assert(t >= now_ && "cannot schedule into the past");
    const std::uint32_t slot = alloc_slot();
    Slot& s = slots_[slot];
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      s.cb = std::forward<F>(cb);
    } else {
      s.cb.emplace(std::forward<F>(cb));
    }
    const std::uint64_t seq = next_seq_++;
    assert(seq < (1ull << kSeqBits) && "event sequence space exhausted");
    const std::uint64_t key = (seq << kSlotBits) | slot;
    if (t == now_) {
      // Same-instant dispatch: O(1) FIFO append, no heap traffic. The
      // FIFO only ever holds events for the current instant — the heap
      // is never fired past a live FIFO entry, so time cannot advance
      // while one is pending.
      assert(fifo_head_ == fifo_.size() || fifo_time_ == now_);
      fifo_time_ = now_;
      s.pos = kInFifo;
      fifo_.push_back(FifoEntry{key, s.gen});
      ++fifo_live_;
    } else {
      heap_.emplace_back();  // open a hole; sift_up fills it
      sift_up(heap_.size() - 1, HeapEntry{t, key});
    }
    return make_id(slot, s.gen);
  }

  /// Schedules `cb` to run `d` ns from now on the fixed-delay lane for
  /// `d`. Fires in exactly the (time, seq) order schedule() would give;
  /// it is cheaper when many pending events share a few delay values.
  /// Each distinct `d` keeps a lane for the rest of the run, so callers
  /// must draw `d` from a small set (per-component constants, packet
  /// serialization times).
  template <class F>
  EventId schedule_fixed(Duration d, F&& cb) {
    if (d == 0) return schedule_at(now_, std::forward<F>(cb));
    const std::uint32_t lane = lane_for(d);  // may add a token slot
    const std::uint32_t slot = alloc_slot();
    Slot& s = slots_[slot];
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      s.cb = std::forward<F>(cb);
    } else {
      s.cb.emplace(std::forward<F>(cb));
    }
    const std::uint64_t seq = next_seq_++;
    assert(seq < (1ull << kSeqBits) && "event sequence space exhausted");
    s.pos = kInLane | lane;
    Lane& l = lanes_[lane];
    l.q.push_back(LaneEntry{now_ + d, (seq << kSlotBits) | slot, s.gen});
    ++lane_live_;
    if (l.q.size() == 1) {  // the lane was empty: its token joins the heap
      ++lanes_active_;
      heap_.emplace_back();
      sift_up(heap_.size() - 1,
              HeapEntry{now_ + d, (seq << kSlotBits) | l.token});
    }
    return make_id(slot, s.gen);
  }

  /// Cancels a pending event in place (O(log n) for future events, O(1)
  /// for same-instant and mid-lane ones). Cancelling an already-run or
  /// unknown id is an O(1) no-op (timers commonly race with the work
  /// they guard); it leaves no residue behind, and the captured state is
  /// destroyed immediately.
  void cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    // A generation match implies the event is pending: both firing and
    // cancellation bump the slot's generation when they release it.
    // Lane token slots are never pending events.
    if (slot >= slots_.size() || slots_[slot].gen != gen || gen >= kLaneGen)
      return;
    Slot& s = slots_[slot];
    const std::uint32_t pos = s.pos;
    if (pos == kInFifo) {
      // The FIFO entry stays behind; the generation bump below marks it
      // stale and the drain skips it. Bounded: the FIFO never outlives
      // the current instant.
      --fifo_live_;
    } else if (pos < kInLane) {
      remove_at(pos);
    }
    s.cb.reset();
    free_slot(slot);
    if (pos != kInFifo && pos >= kInLane) cancel_in_lane(pos & ~kInLane, slot);
  }

  /// Runs until the event queue drains.
  void run() {
    while (next_event_time() != kNoEvent) fire_one();
  }

  /// Runs events with time <= t, then advances the clock to exactly t.
  /// Returns true if events remain scheduled after t.
  bool run_until(Time t) {
    for (;;) {
      const Time nt = next_event_time();
      if (nt == kNoEvent || nt > t) break;
      fire_one();
    }
    if (now_ < t) now_ = t;
    return pending() > 0;
  }

  /// Runs for `d` ns of simulated time from the current instant.
  bool run_for(Duration d) { return run_until(now_ + d); }

  /// Executes the next event, if any. Returns false when the queue is empty.
  bool step() {
    if (next_event_time() == kNoEvent) return false;
    fire_one();
    return true;
  }

  /// Sentinel returned by peek_next_time() when the queue is empty.
  static constexpr Time kNoEventTime = ~Time{0};

  /// Time of the earliest pending event, or kNoEventTime when idle.
  /// Used by the site-parallel engine (engine.hpp) to compute the
  /// global safe horizon.
  Time peek_next_time() { return next_event_time(); }

  /// Fires events with time strictly below `h`, leaving the clock at
  /// the last fired event (the clock does NOT advance to h — an event
  /// scheduled exactly at the horizon belongs to the next window and
  /// may still be preceded by cross-site arrivals at the same instant).
  /// Returns the number of events fired.
  std::uint64_t run_events_before(Time h) {
    std::uint64_t fired = 0;
    for (;;) {
      const Time nt = next_event_time();
      if (nt == kNoEvent || nt >= h) break;
      fire_one();
      ++fired;
    }
    return fired;
  }

  /// Number of events executed so far (for performance reporting).
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending (cancelled events excluded).
  std::size_t pending() const {
    return heap_.size() - lanes_active_ + lane_live_ + fifo_live_;
  }

  /// Total callback slots ever allocated. Bounded by the maximum number
  /// of *concurrently* pending events — it must not grow with the number
  /// of schedule/fire/cancel operations (regression hook for the old
  /// tombstone-set leak).
  std::size_t slot_capacity() const { return slots_.size(); }

  /// Lane entries allocated across all fixed-delay lanes. Bounded by the
  /// peak number of entries a lane held at once (live or lazily
  /// cancelled) — the consumed prefix of a lane that never drains must
  /// not accumulate (regression hook).
  std::size_t lane_capacity() const {
    std::size_t n = 0;
    for (const Lane& l : lanes_) n += l.q.capacity();
    return n;
  }

  /// Run seed every named RNG stream derives from.
  void seed(std::uint64_t s) { seed_ = s; }

  /// Independent RNG derived from the run seed and a stream name
  /// (FNV-1a) — the only source of randomness in a run. Each consumer
  /// (a link's fault plan, a test script) draws from its own named
  /// stream, so its sequence never depends on what other components
  /// draw, nor on which logical process the consumer runs in.
  Rng rng_stream(std::string_view name) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    // NOLINT-IBWAN(DET004): this IS the stream factory — the state is
    // overwritten from the run seed on the next line
    Rng r;
    r.reseed(seed_ ^ h);
    return r;
  }

  /// Per-run observability (docs/METRICS.md): every layer registers
  /// its instruments here. Disabled by default — enabling must not
  /// change simulated behaviour, only record it.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Per-run packet flight recorder; disarmed by default.
  FlightRecorder& recorder() { return recorder_; }

 private:
  // seq gets 40 bits (~10^12 events per run), slot 24 (16M concurrently
  // pending events). seq is unique, so the packed key's slot bits never
  // influence ordering; they just ride along to keep the entry at 16 B.
  static constexpr unsigned kSlotBits = 24;
  static constexpr unsigned kSeqBits = 64 - kSlotBits;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint32_t kInFifo = 0xfffffffeu;
  // Slot::pos of a pending lane entry: kInLane | lane index (heap
  // positions stay below 2^kSlotBits).
  static constexpr std::uint32_t kInLane = 0x80000000u;
  // Slot::gen of a lane's token slot: kLaneGen | lane index. Event slot
  // generations wrap below kLaneGen, so firing can tell the two apart
  // from the generation alone.
  static constexpr std::uint32_t kLaneGen = 0x80000000u;
  static constexpr Time kNoEvent = ~Time{0};

  struct HeapEntry {
    Time time;
    std::uint64_t key;  // (seq << kSlotBits) | slot
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key) & kSlotMask;
    }
  };
  static_assert(sizeof(HeapEntry) == 16);

  struct FifoEntry {
    std::uint64_t key;  // same packing as HeapEntry::key
    std::uint32_t gen;  // stale (cancelled / slot reused) when != slot gen
  };

  struct Slot {
    std::uint32_t gen = 1;
    std::uint32_t pos = kNone;  // heap position / kInFifo / kInLane|lane
                                // while pending, free-list link while free
    Callback cb;
  };
  static_assert(sizeof(Slot) == 64, "one event slot per cache line");

  struct LaneEntry {
    Time time;
    std::uint64_t key;  // same packing as HeapEntry::key
    std::uint32_t gen;  // stale (cancelled) when != slot gen
  };

  struct Lane {
    Fifo<LaneEntry, 8> q;     // head is live whenever the lane is non-empty
    std::uint32_t token = 0;  // slot whose heap entry stands for the head
  };

  struct LaneIndexEntry {
    Duration d = 0;  // 0 = empty bucket (d = 0 never gets a lane)
    std::uint32_t lane = 0;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.time != b.time ? a.time < b.time : a.key < b.key;
  }

  /// Heap entry for lane `l`'s head: the head's (time, seq), carried by
  /// the lane's token slot so sifting tracks the token's position.
  static HeapEntry lane_token(const Lane& l) {
    const LaneEntry& h = l.q.front();
    return HeapEntry{h.time, (h.key & ~std::uint64_t{kSlotMask}) | l.token};
  }

  bool lane_entry_live(const LaneEntry& e) const {
    return slots_[static_cast<std::uint32_t>(e.key) & kSlotMask].gen == e.gen;
  }

  /// Lane index for delay `d` (open addressing, Fibonacci hash).
  std::uint32_t lane_for(Duration d) {
    if (!lane_index_.empty()) {
      const std::size_t mask = lane_index_.size() - 1;
      for (std::size_t i = (d * 0x9e3779b97f4a7c15ull) >> lane_shift_;;
           i = (i + 1) & mask) {
        if (lane_index_[i].d == d) return lane_index_[i].lane;
        if (lane_index_[i].d == 0) break;
      }
    }
    return add_lane(d);
  }

  std::uint32_t add_lane(Duration d) {
    // Every lane owns a token slot, so alloc_slot()'s bound also keeps
    // kInLane | lane clear of kInFifo and kNone.
    const auto lane = static_cast<std::uint32_t>(lanes_.size());
    const std::uint32_t token = alloc_slot();
    slots_[token].gen = kLaneGen | lane;
    slots_[token].pos = kNone;
    lanes_.push_back(Lane{{}, token});
    if (2 * lanes_.size() > lane_index_.size()) {
      // Rehash at load 1/2 so probes stay short.
      std::vector<LaneIndexEntry> old;
      old.swap(lane_index_);
      lane_index_.resize(old.empty() ? 16 : 2 * old.size());
      lane_shift_ = 64;
      for (std::size_t n = lane_index_.size(); n > 1; n >>= 1) --lane_shift_;
      for (const LaneIndexEntry& e : old) {
        if (e.d != 0) insert_lane_index(e);
      }
    }
    insert_lane_index(LaneIndexEntry{d, lane});
    return lane;
  }

  void insert_lane_index(const LaneIndexEntry& e) {
    const std::size_t mask = lane_index_.size() - 1;
    std::size_t i = (e.d * 0x9e3779b97f4a7c15ull) >> lane_shift_;
    while (lane_index_[i].d != 0) i = (i + 1) & mask;
    lane_index_[i] = e;
  }

  /// Pops cancelled entries off lane `l`'s front so its head is live.
  void skip_stale(Lane& l) {
    while (!l.q.empty() && !lane_entry_live(l.q.front())) l.q.drop_front();
  }

  /// A pending lane entry was just cancelled (its slot already freed).
  /// Mid-lane entries stay behind until they reach the head; a
  /// cancelled head is skipped now and the token re-keyed or retired.
  void cancel_in_lane(std::uint32_t lane, std::uint32_t slot) {
    --lane_live_;
    Lane& l = lanes_[lane];
    if ((static_cast<std::uint32_t>(l.q.front().key) & kSlotMask) != slot) {
      return;
    }
    skip_stale(l);
    const std::uint32_t pos = slots_[l.token].pos;
    if (l.q.empty()) {
      --lanes_active_;
      slots_[l.token].pos = kNone;
      remove_at(pos);
    } else {
      sift_down(pos, lane_token(l));  // the new head is strictly later
    }
  }

  /// Time of the next live event (kNoEvent if none), popping any stale
  /// cancelled entries off the FIFO front on the way.
  Time next_event_time() {
    while (fifo_head_ != fifo_.size()) {
      const FifoEntry& e = fifo_[fifo_head_];
      if (slots_[static_cast<std::uint32_t>(e.key) & kSlotMask].gen == e.gen) {
        return fifo_time_;  // never later than any heap event
      }
      pop_fifo_front();
    }
    return heap_.empty() ? kNoEvent : heap_[0].time;
  }

  /// Fires the earliest live event. Precondition: next_event_time() was
  /// just called and did not return kNoEvent (so a live FIFO entry, if
  /// any, sits exactly at the FIFO front).
  void fire_one() {
    if (fifo_head_ != fifo_.size()) {
      const FifoEntry e = fifo_[fifo_head_];
      // A heap event at the same instant with a smaller sequence number
      // was scheduled earlier and must fire first.
      if (heap_.empty() || heap_[0].time > fifo_time_ ||
          heap_[0].key > e.key) {
        pop_fifo_front();
        --fifo_live_;
        const std::uint32_t slot = static_cast<std::uint32_t>(e.key) & kSlotMask;
        Slot& s = slots_[slot];
        assert(fifo_time_ == now_);
        Callback cb = std::move(s.cb);
        free_slot(slot);
        ++executed_;
        cb();
        return;
      }
    }
    fire_top();
  }

  void pop_fifo_front() {
    if (++fifo_head_ == fifo_.size()) {
      fifo_.clear();
      fifo_head_ = 0;
    }
  }

  std::uint32_t alloc_slot() {
    if (free_head_ != kNone) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].pos;
      return slot;
    }
    if (slots_.size() > kSlotMask) {
      std::fprintf(stderr, "Simulator: > %u concurrently pending events\n",
                   kSlotMask);
      std::abort();
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void free_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    // Invalidates outstanding EventIds for this slot; generations wrap
    // below kLaneGen.
    if (++s.gen == kLaneGen) s.gen = 1;
    s.pos = free_head_;
    free_head_ = slot;
  }

  // sift_up/sift_down place `e` starting the search at position `i`,
  // whose current contents the caller has already saved or vacated.
  void sift_up(std::size_t i, const HeapEntry& e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      slots_[heap_[i].slot()].pos = static_cast<std::uint32_t>(i);
      i = parent;
    }
    heap_[i] = e;
    slots_[e.slot()].pos = static_cast<std::uint32_t>(i);
  }

  void sift_down(std::size_t i, const HeapEntry& e) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best;
      if (first + 4 <= n) {
        // Full fan-out (the common case): tournament min — the two
        // halves compare independently, halving the serial chain.
        const std::size_t b01 =
            earlier(heap_[first + 1], heap_[first]) ? first + 1 : first;
        const std::size_t b23 =
            earlier(heap_[first + 3], heap_[first + 2]) ? first + 3 : first + 2;
        best = earlier(heap_[b23], heap_[b01]) ? b23 : b01;
      } else {
        best = first;
        for (std::size_t c = first + 1; c < n; ++c) {
          if (earlier(heap_[c], heap_[best])) best = c;
        }
      }
      if (!earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      slots_[heap_[i].slot()].pos = static_cast<std::uint32_t>(i);
      i = best;
    }
    heap_[i] = e;
    slots_[e.slot()].pos = static_cast<std::uint32_t>(i);
  }

  /// Removes the entry at heap position `pos`, refilling the hole with
  /// the last entry.
  void remove_at(std::size_t pos) {
    const HeapEntry moved = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return;  // removed the last entry
    // The replacement may need to travel either direction.
    if (pos > 0 && earlier(moved, heap_[(pos - 1) / 4])) {
      sift_up(pos, moved);
    } else {
      sift_down(pos, moved);
    }
  }

  void fire_top() {
    const HeapEntry top = heap_[0];
    const std::uint32_t slot = top.slot();
    Slot& s = slots_[slot];
    if (s.gen >= kLaneGen) {
      fire_lane(s.gen & ~kLaneGen);
      return;
    }
    assert(top.time >= now_);
    now_ = top.time;
    Callback cb = std::move(s.cb);
    // Pop the root: refill with the last entry.
    const HeapEntry moved = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, moved);
    // Free before invoking so (a) the callback can recycle the slot for
    // events it schedules and (b) cancel() of the firing event's own id
    // from inside the callback is a generation-checked no-op.
    free_slot(slot);
    ++executed_;
    cb();
  }

  /// Fires the head of lane `lane`, whose token is the heap root.
  void fire_lane(std::uint32_t lane) {
    Lane& l = lanes_[lane];
    const LaneEntry e = l.q.front();
    l.q.drop_front();
    --lane_live_;
    skip_stale(l);
    if (!l.q.empty()) {
      sift_down(0, lane_token(l));  // re-key the root in place
    } else {
      --lanes_active_;
      slots_[l.token].pos = kNone;
      const HeapEntry moved = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(0, moved);
    }
    assert(e.time >= now_);
    now_ = e.time;
    const std::uint32_t slot = static_cast<std::uint32_t>(e.key) & kSlotMask;
    Callback cb = std::move(slots_[slot].cb);
    free_slot(slot);
    ++executed_;
    cb();
  }

  std::vector<HeapEntry> heap_;
  std::vector<FifoEntry> fifo_;
  std::size_t fifo_head_ = 0;
  std::size_t fifo_live_ = 0;
  Time fifo_time_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNone;
  std::vector<Lane> lanes_;
  std::vector<LaneIndexEntry> lane_index_;  // power-of-two buckets
  unsigned lane_shift_ = 64;                // 64 - log2(buckets)
  std::size_t lane_live_ = 0;     // pending lane entries
  std::size_t lanes_active_ = 0;  // lane tokens in the heap
  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t seed_ = 0x9e3779b97f4a7c15ULL;  // Rng's default seed
  MetricsRegistry metrics_;
  FlightRecorder recorder_;
};

}  // namespace ibwan::sim
