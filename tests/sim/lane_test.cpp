// Fixed-delay lanes (Simulator::schedule_fixed): firing order against a
// reference (time, seq) model under random scripts, pending() and slot
// accounting, and the O(max live) bound on lane storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/containers.hpp"
#include "sim/simulator.hpp"

namespace ibwan::sim {
namespace {

// ---------------------------------------------------------------------------
// Reference-model property test.
// ---------------------------------------------------------------------------

/// Drives one Simulator with a seeded random script and mirrors every
/// operation in a std::set<(time, seq)> — the order a single global
/// queue would give. Every schedule call, whatever its path, consumes
/// exactly one sequence number, so the model's counter tracks the
/// engine's.
class LaneScript {
 public:
  explicit LaneScript(std::uint64_t seed) : rng_(seed) {}

  enum class Path { kHeap, kFifo, kLane };

  struct Live {
    EventId id;
    Time time;
    Path path;
    Duration lane_delay;  // kLane only
  };

  void run(int steps) {
    for (int i = 0; i < steps && !::testing::Test::HasFatalFailure(); ++i) {
      step_once();
      check_invariants();
    }
    // Drain and check the tail.
    sim_.run();
    check_invariants();
    EXPECT_TRUE(order_.empty());
    EXPECT_EQ(sim_.events_executed(), fired_);
  }

 private:
  static constexpr Duration kDelays[] = {0, 7, 50, 300};

  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  void schedule_random() {
    const Time now = sim_.now();
    const std::uint64_t seq = next_seq_++;
    auto cb = [this, seq] { on_fire(seq); };
    Live ev{};
    switch (pick(3)) {
      case 0: {
        const Duration d = pick(4) == 0 ? 0 : pick(300);
        ev = {sim_.schedule(d, cb), now + d, d == 0 ? Path::kFifo : Path::kHeap,
              0};
        break;
      }
      case 1: {
        const Time t = now + (pick(4) == 0 ? 0 : pick(300));
        ev = {sim_.schedule_at(t, cb), t,
              t == now ? Path::kFifo : Path::kHeap, 0};
        break;
      }
      default: {
        const Duration d = kDelays[pick(4)];
        ev = {sim_.schedule_fixed(d, cb), now + d,
              d == 0 ? Path::kFifo : Path::kLane, d};
        if (d != 0) lanes_used_.insert(d);
        break;
      }
    }
    live_[seq] = ev;
    order_.insert({ev.time, seq});
    peak_live_ = std::max(peak_live_, live_.size());
  }

  /// Seq of a live event matching `want`, or 0 when there is none.
  /// Lane heads are the oldest live entry of their lane.
  std::uint64_t find(int want) {
    std::map<Duration, std::uint64_t> head;  // lane delay -> oldest seq
    for (const auto& [seq, ev] : live_) {
      if (ev.path == Path::kLane && !head.count(ev.lane_delay))
        head[ev.lane_delay] = seq;
    }
    std::vector<std::uint64_t> match;
    for (const auto& [seq, ev] : live_) {
      const bool is_head =
          ev.path == Path::kLane && head[ev.lane_delay] == seq;
      switch (want) {
        case 0: if (is_head) match.push_back(seq); break;
        case 1: if (ev.path == Path::kLane && !is_head) match.push_back(seq);
                break;
        case 2: if (ev.path == Path::kHeap) match.push_back(seq); break;
        case 3: if (ev.path == Path::kFifo) match.push_back(seq); break;
        default: match.push_back(seq); break;
      }
    }
    return match.empty() ? 0 : match[pick(match.size())];
  }

  void cancel_random() {
    const int want = static_cast<int>(pick(6));
    if (want == 5) {  // an id that already fired: must be a no-op
      if (!fired_ids_.empty()) sim_.cancel(fired_ids_[pick(fired_ids_.size())]);
      return;
    }
    const std::uint64_t seq = find(want);
    if (seq == 0) return;
    const Live ev = live_[seq];
    sim_.cancel(ev.id);
    sim_.cancel(ev.id);  // a second cancel is a no-op too
    order_.erase({ev.time, seq});
    live_.erase(seq);
  }

  void on_fire(std::uint64_t seq) {
    ASSERT_FALSE(order_.empty()) << "fired with an empty model";
    const auto [t, want_seq] = *order_.begin();
    ASSERT_EQ(want_seq, seq) << "firing order diverged at t=" << t;
    ASSERT_EQ(sim_.now(), t);
    order_.erase(order_.begin());
    fired_ids_.push_back(live_[seq].id);
    live_.erase(seq);
    ++fired_;
    // Callbacks schedule and cancel too, the way protocol code does.
    if (pick(3) == 0) schedule_random();
    if (pick(4) == 0) schedule_random();
    if (pick(8) == 0) cancel_random();
  }

  void step_once() {
    switch (pick(10)) {
      case 0: case 1: case 2: case 3:
        schedule_random();
        break;
      case 4: case 5:
        cancel_random();
        break;
      case 6: {  // run_until with a clock jump
        const Time target = sim_.now() + pick(400);
        const bool more = sim_.run_until(target);
        ASSERT_EQ(sim_.now(), target);
        ASSERT_TRUE(order_.empty() || order_.begin()->first > target);
        ASSERT_EQ(more, !order_.empty());
        break;
      }
      default: {
        const std::uint64_t before = fired_;
        const bool had = !order_.empty();
        ASSERT_EQ(sim_.step(), had);
        ASSERT_EQ(fired_, before + (had ? 1 : 0));
        break;
      }
    }
  }

  void check_invariants() {
    ASSERT_EQ(sim_.pending(), order_.size());
    ASSERT_EQ(sim_.events_executed(), fired_);
    // One slot per concurrently pending event plus one token per lane.
    ASSERT_LE(sim_.slot_capacity(), peak_live_ + lanes_used_.size());
  }

  Simulator sim_;
  std::mt19937_64 rng_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, Live> live_;
  std::set<std::pair<Time, std::uint64_t>> order_;
  std::vector<EventId> fired_ids_;
  std::set<Duration> lanes_used_;
  std::size_t peak_live_ = 0;
  std::uint64_t fired_ = 0;
};

TEST(SimulatorLanes, RandomScriptsMatchReferenceOrder) {
  for (std::uint64_t seed : {1u, 2u, 3u, 42u, 1337u}) {
    SCOPED_TRACE(seed);
    LaneScript script(seed);
    script.run(4000);
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Targeted cases.
// ---------------------------------------------------------------------------

TEST(SimulatorLanes, InterleaveWithHeapAndFifoInSeqOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule_fixed(10, [&] { order.push_back(2); });
  sim.schedule_at(10, [&] { order.push_back(3); });
  sim.schedule_fixed(5, [&] {
    order.push_back(0);
    // Same-instant work scheduled at t=5 runs before t=10.
    sim.schedule_fixed(0, [&] { order.push_back(10); });
    sim.schedule_fixed(5, [&] { order.push_back(4); });  // t=10, last
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 10u);
}

TEST(SimulatorLanes, CancelHeadMidAndTail) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(sim.schedule_fixed(100, [&order, i] { order.push_back(i); }));
    sim.run_until(sim.now() + 1);
  }
  EXPECT_EQ(sim.pending(), 5u);
  sim.cancel(ids[0]);  // head
  sim.cancel(ids[2]);  // mid-lane
  sim.cancel(ids[4]);  // tail
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorLanes, CancellingEveryEntryRetiresTheLane) {
  Simulator sim;
  const EventId a = sim.schedule_fixed(50, [] { FAIL(); });
  const EventId b = sim.schedule_fixed(50, [] { FAIL(); });
  bool ran = false;
  sim.schedule(80, [&] { ran = true; });
  sim.cancel(b);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.peek_next_time(), 80u);
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorLanes, ForgedIdsNeverCancelALane) {
  Simulator sim;
  int fired = 0;
  sim.schedule_fixed(20, [&] { ++fired; });
  // Small integers name slot indices with generation 0; the lane's token
  // slot must not answer to them.
  for (EventId id = 0; id < 8; ++id) sim.cancel(id);
  sim.run();
  EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------------------
// Bounded lane memory.
// ---------------------------------------------------------------------------

TEST(SimulatorLanes, LaneThatNeverDrainsStaysBounded) {
  // A ticker schedules one lane event per ns, each living kDelay ns, so
  // the lane holds ~kDelay entries for a million events and is never
  // empty. Its storage must track the live count, not the number of
  // events that ever passed through it.
  constexpr Duration kDelay = 5000;
  constexpr std::uint64_t kEvents = 1'000'000;
  Simulator sim;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::size_t max_live = 0;
  std::function<void()> tick = [&] {
    if (scheduled == kEvents) return;
    ++scheduled;
    sim.schedule_fixed(kDelay, [&fired] { ++fired; });
    max_live = std::max(max_live, sim.pending());
    sim.schedule(1, tick);
  };
  sim.schedule(1, tick);
  sim.run();
  EXPECT_EQ(fired, kEvents);
  EXPECT_LE(max_live, kDelay + 2);
  EXPECT_LE(sim.lane_capacity(), max_live + 64);
  EXPECT_LE(sim.slot_capacity(), max_live + 4);
}

TEST(SimulatorLanes, LazilyCancelledTimersStayBounded) {
  // The retransmit-timer pattern on a shared lane: a busy timer is
  // re-armed (cancel + schedule) every tick while a slow one stays armed
  // for ~1000 ticks at a time. The busy timer's cancelled entries pile
  // up mid-lane behind the slow timer's head and are only dropped when
  // they reach the head, so the lane holds about one timer window of
  // entries — never the whole history.
  constexpr Duration kRto = 2000;
  Simulator sim;
  EventId busy = 0;
  EventId slow = 0;
  int expired = 0;
  for (int i = 0; i < 200'000; ++i) {
    sim.cancel(busy);
    busy = sim.schedule_fixed(kRto, [&expired] { ++expired; });
    if (i % 997 == 0) {
      sim.cancel(slow);
      slow = sim.schedule_fixed(kRto, [&expired] { ++expired; });
    }
    sim.run_until(sim.now() + 1);
  }
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_LE(sim.lane_capacity(), kRto + 64);
  sim.run();
  EXPECT_EQ(expired, 2);
}

TEST(Fifo, BlocksAreRecycledAndReleased) {
  Fifo<int, 8> q;
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 10'000; ++round) {
    for (int i = 0; i < 5; ++i) q.push_back(next_in++);
    for (int i = 0; i < 5; ++i) ASSERT_EQ(q.pop_front(), next_out++);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_LE(q.capacity(), 16u);
  // A burst grows the chain; draining it frees all but two spares.
  for (int i = 0; i < 1000; ++i) q.push_back(next_in++);
  EXPECT_LE(q.capacity(), 1000u + 16u);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(q.pop_front(), next_out++);
  EXPECT_LE(q.capacity(), 3u * 8u);
}

TEST(Slab, IndicesRecycle) {
  Slab<std::vector<int>> slab;
  const std::uint32_t a = slab.put({1, 2});
  const std::uint32_t b = slab.put({3});
  EXPECT_NE(a, b);
  EXPECT_EQ(slab.take(a), (std::vector<int>{1, 2}));
  const std::uint32_t c = slab.put({4});
  EXPECT_EQ(c, a);  // LIFO reuse
  EXPECT_EQ(slab.take(b), (std::vector<int>{3}));
  EXPECT_EQ(slab.take(c), (std::vector<int>{4}));
}

}  // namespace
}  // namespace ibwan::sim
