// Property tests for the EventQueue scheduler.
//
// The contract: the 4-ary heap dispatches the exact (when, seq) sequence of
// a small reference model — a std::priority_queue of (when, seq) keys plus
// a cancelled set — for any schedule/cancel/run stream. The golden
// determinism tests pin the macro behavior; these tests attack the
// scheduler directly with adversarial shapes — same-instant bursts,
// far-future jumps, populations that grow and drain repeatedly, cancels
// interleaved with dispatch, and RunUntil deadlines.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/simos/clock.h"
#include "src/simos/event_queue.h"

namespace iolsim {
namespace {

using Dispatch = std::pair<SimTime, uint64_t>;  // (clock at dispatch, tag).

// The reference scheduler: obviously correct, no pooling, no lazy tricks
// beyond skipping cancelled keys when they surface. An event's tag is its
// schedule index, which is also its seq — the tie-break for equal `when`.
class Model {
 public:
  uint64_t ScheduleAt(SimTime when) {
    uint64_t tag = next_tag_++;
    keys_.push({std::max(when, now_), tag});
    ++live_;
    return tag;
  }

  bool Cancel(uint64_t tag) {
    if (done_.count(tag) != 0 || cancelled_.count(tag) != 0) {
      return false;
    }
    cancelled_.insert(tag);
    --live_;
    return true;
  }

  bool PeekWhen(SimTime* when) {
    while (!keys_.empty() && cancelled_.count(keys_.top().second) != 0) {
      keys_.pop();
    }
    if (keys_.empty()) {
      return false;
    }
    *when = keys_.top().first;
    return true;
  }

  bool RunOne() {
    SimTime when;
    if (!PeekWhen(&when)) {
      return false;
    }
    uint64_t tag = keys_.top().second;
    keys_.pop();
    now_ = std::max(now_, when);
    done_.insert(tag);
    --live_;
    dispatched_.emplace_back(now_, tag);
    return true;
  }

  uint64_t RunUntil(SimTime deadline) {
    uint64_t n = 0;
    SimTime when;
    while (PeekWhen(&when) && when <= deadline) {
      RunOne();
      ++n;
    }
    now_ = std::max(now_, deadline);
    return n;
  }

  SimTime now() const { return now_; }
  size_t size() const { return live_; }
  const std::vector<Dispatch>& dispatched() const { return dispatched_; }

 private:
  using Key = std::pair<SimTime, uint64_t>;  // (when, seq).
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> keys_;
  std::set<uint64_t> cancelled_;
  std::set<uint64_t> done_;
  SimTime now_ = 0;
  uint64_t next_tag_ = 0;
  size_t live_ = 0;
  std::vector<Dispatch> dispatched_;
};

// Drives one EventQueue and one Model in lockstep. Every operation's return
// value, the clock and the live count must agree after each step; the
// dispatched (when, tag) sequences are compared by the caller.
class Lockstep {
 public:
  Lockstep() : queue_(&clock_) {}

  void ScheduleAfter(SimTime delay) {
    SimTime when = clock_.now() + delay;
    uint64_t tag = model_.ScheduleAt(when);
    ids_.push_back(queue_.ScheduleAt(when, [this, tag] {
      dispatched_.emplace_back(clock_.now(), tag);
    }));
    Check();
  }

  // Cancels the `target`-th scheduled event (modulo the count). Targets
  // that already ran or were cancelled exercise the stale-id path.
  void Cancel(size_t target) {
    if (ids_.empty()) {
      return;
    }
    size_t tag = target % ids_.size();
    ASSERT_EQ(queue_.Cancel(ids_[tag]), model_.Cancel(tag)) << "tag " << tag;
    Check();
  }

  bool RunOne() {
    bool ran = queue_.RunOne();
    EXPECT_EQ(ran, model_.RunOne());
    Check();
    return ran;
  }

  uint64_t RunUntil(SimTime deadline) {
    uint64_t n = queue_.RunUntil(deadline);
    EXPECT_EQ(n, model_.RunUntil(deadline));
    Check();
    return n;
  }

  void RunAll() {
    while (RunOne()) {
    }
  }

  size_t size() const { return queue_.size(); }
  const std::vector<Dispatch>& dispatched() const { return dispatched_; }
  const std::vector<Dispatch>& expected() const { return model_.dispatched(); }

 private:
  void Check() {
    ASSERT_EQ(clock_.now(), model_.now());
    ASSERT_EQ(queue_.size(), model_.size());
    ASSERT_EQ(queue_.empty(), model_.size() == 0);
  }

  VirtualClock clock_;
  EventQueue queue_;
  Model model_;
  std::vector<EventQueue::EventId> ids_;  // Indexed by tag.
  std::vector<Dispatch> dispatched_;
};

// One deterministic stream of scheduler operations.
struct OpStream {
  struct Op {
    enum Kind { kSchedule, kCancel, kRunOne, kRunSome } kind;
    SimTime delay = 0;   // kSchedule: offset from now.
    size_t target = 0;   // kCancel: index into scheduled events.
    int count = 0;       // kRunSome.
  };
  std::vector<Op> ops;
};

OpStream MakeRandomStream(uint32_t seed, size_t n_ops, SimTime max_delay) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> kind(0, 99);
  std::uniform_int_distribution<SimTime> delay(0, max_delay);
  std::uniform_int_distribution<size_t> pick(0, 1u << 20);
  std::uniform_int_distribution<int> burst(1, 16);
  OpStream s;
  s.ops.reserve(n_ops);
  for (size_t i = 0; i < n_ops; ++i) {
    int k = kind(rng);
    OpStream::Op op;
    if (k < 55) {
      op.kind = OpStream::Op::kSchedule;
      op.delay = delay(rng);
      if (k < 10) {
        op.delay = 0;  // Same-instant burst pressure.
      }
    } else if (k < 70) {
      op.kind = OpStream::Op::kCancel;
      op.target = pick(rng);
    } else if (k < 90) {
      op.kind = OpStream::Op::kRunOne;
    } else {
      op.kind = OpStream::Op::kRunSome;
      op.count = burst(rng);
    }
    s.ops.push_back(op);
  }
  return s;
}

// Replays `stream` in lockstep, drains both, and checks the dispatched
// (when, tag) sequences match: the same events ran in the same order at the
// same times.
void ReplayMatchesModel(const OpStream& stream) {
  Lockstep run;
  for (const auto& op : stream.ops) {
    switch (op.kind) {
      case OpStream::Op::kSchedule:
        run.ScheduleAfter(op.delay);
        break;
      case OpStream::Op::kCancel:
        run.Cancel(op.target);
        break;
      case OpStream::Op::kRunOne:
        run.RunOne();
        break;
      case OpStream::Op::kRunSome:
        for (int i = 0; i < op.count && run.RunOne(); ++i) {
        }
        break;
    }
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  run.RunAll();
  ASSERT_FALSE(run.dispatched().empty());
  ASSERT_EQ(run.dispatched(), run.expected());
  ASSERT_TRUE(std::is_sorted(run.dispatched().begin(), run.dispatched().end(),
                             [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(SchedulerOracle, RandomStreamsMatchModel) {
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    ReplayMatchesModel(MakeRandomStream(seed, 4000, 1'000'000));
  }
}

TEST(SchedulerOracle, SparseFarFutureStreamsMatchModel) {
  // Huge delays: events scattered far apart in time, mostly one per instant.
  for (uint32_t seed = 100; seed <= 108; ++seed) {
    SCOPED_TRACE(seed);
    ReplayMatchesModel(MakeRandomStream(seed, 1500, SimTime{50'000'000'000}));
  }
}

TEST(SchedulerOracle, DenseSameInstantStreamsMatchModel) {
  // Tiny delay range: most events collide on the same instants, so the
  // order is decided almost entirely by the seq tie-break.
  for (uint32_t seed = 200; seed <= 208; ++seed) {
    SCOPED_TRACE(seed);
    ReplayMatchesModel(MakeRandomStream(seed, 4000, 16));
  }
}

TEST(SchedulerOracle, GrowShrinkCycleMatchesModel) {
  // Pump the population up to thousands, drain to nearly empty, and repeat
  // — the heap and the slot pool both grow and then recycle every lap.
  Lockstep run;
  std::mt19937 rng(7);
  std::uniform_int_distribution<SimTime> delay(0, 200'000);
  for (int lap = 0; lap < 4; ++lap) {
    for (int i = 0; i < 3000; ++i) {
      run.ScheduleAfter(delay(rng));
    }
    while (run.size() > 8) {
      ASSERT_TRUE(run.RunOne());
    }
  }
  run.RunAll();
  EXPECT_EQ(run.dispatched().size(), 4u * 3000u);
  EXPECT_EQ(run.dispatched(), run.expected());
}

TEST(SchedulerOracle, RunUntilDeadlinesMatchModel) {
  // Deadlines that land before, on, between and after event instants,
  // mixed with cancels and fresh schedules between the calls.
  Lockstep run;
  std::mt19937 rng(31);
  std::uniform_int_distribution<SimTime> delay(0, 64);
  std::uniform_int_distribution<SimTime> step(0, 40);
  std::uniform_int_distribution<size_t> pick(0, 1u << 20);
  SimTime deadline = 0;
  for (int round = 0; round < 400; ++round) {
    for (int i = 0; i < 6; ++i) {
      run.ScheduleAfter(delay(rng));
    }
    run.Cancel(pick(rng));
    deadline += step(rng);
    run.RunUntil(deadline);
  }
  run.RunAll();
  EXPECT_EQ(run.dispatched(), run.expected());
}

TEST(SchedulerRunUntil, EventsAtTheDeadlineRun) {
  VirtualClock clock;
  EventQueue q(&clock);
  std::vector<SimTime> out;
  for (SimTime t : {5, 10, 10, 15, 20}) {
    q.ScheduleAt(t, [&out, &clock] { out.push_back(clock.now()); });
  }
  EXPECT_EQ(q.RunUntil(10), 3u);  // Events exactly at the deadline run.
  EXPECT_EQ(clock.now(), 10);
  EXPECT_EQ(q.RunUntil(100), 2u);
  EXPECT_EQ(clock.now(), 100);    // The clock moves to the deadline.
  EXPECT_EQ(out, (std::vector<SimTime>{5, 10, 10, 15, 20}));
}

TEST(SchedulerCancel, CancelledEventsNeverRunAndIdsGoStale) {
  VirtualClock clock;
  EventQueue q(&clock);
  int ran = 0;
  auto id_a = q.ScheduleAfter(10, [&ran] { ++ran; });
  auto id_b = q.ScheduleAfter(20, [&ran] { ++ran; });
  q.ScheduleAfter(30, [&ran] { ++ran; });
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.Cancel(id_b));
  EXPECT_FALSE(q.Cancel(id_b));  // Double-cancel rejected.
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.RunAll(), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(clock.now(), 30);      // The cancelled event moved no clock.
  EXPECT_FALSE(q.Cancel(id_a));    // Dispatched ⇒ stale.
  EXPECT_TRUE(q.empty());
}

TEST(SchedulerCancel, CancelHeadDoesNotAdvanceClockOrCounter) {
  VirtualClock clock;
  uint64_t dispatched = 0;
  EventQueue q(&clock, &dispatched);
  bool late_ran = false;
  auto head = q.ScheduleAfter(5, [] { ADD_FAILURE() << "cancelled head ran"; });
  q.ScheduleAfter(50, [&late_ran] { late_ran = true; });
  ASSERT_TRUE(q.Cancel(head));
  SimTime when = 0;
  ASSERT_TRUE(q.PeekWhen(&when));  // Purges the cancelled head.
  EXPECT_EQ(when, 50);
  EXPECT_EQ(clock.now(), 0);
  EXPECT_EQ(q.RunAll(), 1u);
  EXPECT_TRUE(late_ran);
  EXPECT_EQ(dispatched, 1u);
}

}  // namespace
}  // namespace iolsim
