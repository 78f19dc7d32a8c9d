// Discrete-event engine driving the simulated machine.
//
// Benchmarks model a closed-loop client population: each client issues a
// request, the request visits a series of Resources (CPU, disk, network
// link), and completion schedules the client's next request. The EventQueue
// orders those completions in virtual time.
//
// The engine is allocation-free in steady state: continuations are
// InlineCallbacks (fixed inline storage, no heap), the scheduler orders
// lightweight POD keys in a 4-ary heap over a pooled slot array so
// dispatched events are *moved* out rather than copied, and multi-stage
// continuations ride in pooled nodes (ResourceChain, and per-subsystem
// pools in net/fs/httpd).
//
// Events dispatch in exactly (when, seq) order — seq is unique, so the
// order is a total order independent of heap shape. The golden determinism
// tests pin this; tests/scheduler_test.cc replays randomized
// schedule/cancel streams against a reference model and asserts identical
// sequences.

#ifndef SRC_SIMOS_EVENT_QUEUE_H_
#define SRC_SIMOS_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/simos/clock.h"
#include "src/simos/inline_function.h"

namespace iolsim {

// A time-ordered queue of callbacks. Ties are broken by insertion order so
// simulations are deterministic.
class EventQueue {
 public:
  // Handle for Cancel: packs the callback slot and its generation, so a
  // stale handle (the event already dispatched or cancelled) is rejected.
  using EventId = uint64_t;

  // `dispatched_counter`, when given, is incremented once per dispatched
  // event (SimContext points it at SimStats::events_dispatched).
  explicit EventQueue(VirtualClock* clock, uint64_t* dispatched_counter = nullptr)
      : clock_(clock),
        dispatched_(dispatched_counter != nullptr ? dispatched_counter : &own_dispatched_) {}

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run at absolute time `when` (clamped to now). The
  // returned id is valid until the event dispatches (or is cancelled) and
  // may be ignored — almost every caller does.
  EventId ScheduleAt(SimTime when, InlineCallback fn) {
    if (when < clock_->now()) {
      when = clock_->now();
    }
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot].fn = std::move(fn);
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
      slots_[slot].fn = std::move(fn);
    }
    heap_.push_back(Event{when, next_seq_++, slot});
    SiftUp(heap_.size() - 1);
    ++live_;
    return MakeId(slot, slots_[slot].gen);
  }

  // Schedules `fn` to run `delay` after the current time.
  EventId ScheduleAfter(SimTime delay, InlineCallback fn) {
    return ScheduleAt(clock_->now() + delay, std::move(fn));
  }

  // Cancels a pending event. Returns false for a stale id (already
  // dispatched, already cancelled, or never valid). O(1): the event's key
  // stays queued and is discarded when it surfaces; the callback (and
  // whatever it captured) is destroyed immediately.
  bool Cancel(EventId id) {
    uint32_t slot = static_cast<uint32_t>(id >> 32);
    uint32_t gen = static_cast<uint32_t>(id);
    if (slot >= slots_.size() || slots_[slot].gen != gen || slots_[slot].cancelled) {
      return false;
    }
    Slot& s = slots_[slot];
    // A live generation match can still be a free slot (never scheduled
    // under this gen) only if the caller forged an id; scheduled slots are
    // exactly those not on the free list with matching gen.
    s.cancelled = true;
    s.fn = InlineCallback();
    ++s.gen;  // Invalidate the handle immediately (double-cancel is a no-op).
    assert(live_ > 0);
    --live_;
    return true;
  }

  // True if no live events are pending.
  bool empty() const { return live_ == 0; }

  // Number of live (non-cancelled) pending events.
  size_t size() const { return live_; }

  // Time of the earliest live event; false when none is pending. Purges
  // cancelled keys it surfaces along the way.
  bool PeekWhen(SimTime* when) {
    while (live_ > 0) {
      Event e = heap_[0];
      if (slots_[e.slot].cancelled) {
        PopMin();
        ReleaseCancelled(e.slot);
        continue;
      }
      *when = e.when;
      return true;
    }
    return false;
  }

  // Dispatches the earliest event, advancing the clock to its timestamp.
  // Returns false if the queue was empty.
  bool RunOne() {
    SimTime when;
    if (!PeekWhen(&when)) {
      return false;
    }
    Event ev = PopMin();
    clock_->AdvanceTo(ev.when);
    ++*dispatched_;
    --live_;
    // Move the continuation out and release the slot before invoking: the
    // callback is free to schedule into the slot it just vacated.
    InlineCallback fn = std::move(slots_[ev.slot].fn);
    ReleaseSlot(ev.slot);
    fn();
    return true;
  }

  // Runs events until the queue drains or the clock passes `deadline`.
  // Events scheduled exactly at `deadline` still run. Returns the number of
  // events dispatched.
  uint64_t RunUntil(SimTime deadline) {
    uint64_t dispatched = 0;
    SimTime when;
    while (PeekWhen(&when) && when <= deadline) {
      RunOne();
      ++dispatched;
    }
    clock_->AdvanceTo(deadline);
    return dispatched;
  }

  // Runs until no events remain.
  uint64_t RunAll() {
    uint64_t dispatched = 0;
    while (RunOne()) {
      ++dispatched;
    }
    return dispatched;
  }

 private:
  // The heap orders lightweight POD keys; the continuations themselves sit
  // in a slot pool and never move while queued.
  struct Event {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };

  // A pooled continuation plus the bookkeeping Cancel needs: the
  // generation invalidates stale EventIds, and `cancelled` marks a key
  // whose surfacing should be silent (no clock movement, no dispatch).
  struct Slot {
    InlineCallback fn;
    uint32_t gen = 0;
    bool cancelled = false;
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(slot) << 32) | gen;
  }

  void ReleaseSlot(uint32_t slot) {
    ++slots_[slot].gen;
    free_slots_.push_back(slot);
  }

  // A cancelled key surfaced: the callback is already destroyed and the
  // generation already bumped (Cancel did both); just recycle the slot.
  void ReleaseCancelled(uint32_t slot) {
    slots_[slot].cancelled = false;
    free_slots_.push_back(slot);
  }

  // "a dispatches after b". (when, seq) is a total order — seq is unique —
  // so the dispatch order is independent of heap shape or arity.
  static bool After(const Event& a, const Event& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  }

  static constexpr size_t kArity = 4;

  // Removes and returns the root (precondition: the heap is non-empty).
  Event PopMin() {
    Event ev = heap_[0];
    Event last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDownFromRoot(last);
    }
    return ev;
  }

  void SiftUp(size_t i) {
    Event e = heap_[i];
    while (i > 0) {
      size_t parent = (i - 1) / kArity;
      if (!After(heap_[parent], e)) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  // Places `e` starting at the (just-vacated) root.
  void SiftDownFromRoot(Event e) {
    size_t n = heap_.size();
    size_t i = 0;
    while (true) {
      size_t first_kid = i * kArity + 1;
      if (first_kid >= n) {
        break;
      }
      size_t best = first_kid;
      size_t end = first_kid + kArity < n ? first_kid + kArity : n;
      for (size_t kid = first_kid + 1; kid < end; ++kid) {
        if (After(heap_[best], heap_[kid])) {
          best = kid;
        }
      }
      if (!After(e, heap_[best])) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  VirtualClock* clock_;
  uint64_t* dispatched_;
  uint64_t own_dispatched_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;  // Pending minus cancelled-but-not-yet-surfaced.
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<Event> heap_;  // 4-ary min-heap by (when, seq).
};

class Resource;

// Admission hook for the multi-tenant QoS plane (src/qos). When a scheduler
// is attached to a Resource, asynchronous acquisitions are handed to it
// instead of being reserved immediately: the scheduler queues the work under
// its own discipline (e.g. per-tenant start-time fair queueing) and performs
// the actual unit reservation only when it dispatches the job. Synchronous
// Acquire/AcquireAfter calls bypass the scheduler — direct-mode callers own
// the machine and have no peers to share with.
class ResourceScheduler {
 public:
  virtual ~ResourceScheduler() = default;

  // Takes ownership of one asynchronous acquisition: `done` must eventually
  // run on `events` at the job's completion time, exactly once.
  virtual void Admit(Resource* resource, EventQueue* events, SimTime service,
                     InlineCallback done) = 0;
};

// A FIFO service resource (CPU, disk arm, network link) with one or more
// identical service units (an N-way CPU is Resource(clock, N)).
//
// A job arriving at time `now` with service demand `d` begins service on
// the earliest-available unit at max(now, unit free time) and completes at
// begin + d. Reservations are made in call order, so service is FIFO by
// arrival; callers that arrive via the event queue inherit its deterministic
// insertion-order tie-breaking. The queue itself is never materialized,
// which keeps the simulation allocation-free on the sync path.
//
// Unit selection is O(1): a single unit is tracked directly, and multi-unit
// resources keep an index heap ordered by (free time, index) — the same
// earliest-free, lowest-index-on-ties rule the old linear scan implemented,
// now at O(log units) per acquire and O(1) for available_at.
class Resource {
 public:
  explicit Resource(VirtualClock* clock, int units = 1)
      : clock_(clock), unit_free_at_(units > 0 ? units : 1, 0) {
    heap_.resize(unit_free_at_.size());
    ResetHeap();
  }

  // Reserves a unit for `service` time and returns the completion time.
  // The caller typically schedules an event at the returned time.
  SimTime Acquire(SimTime service) { return AcquireAfter(clock_->now(), service); }

  // Reserves a unit for `service` time starting no earlier than `earliest`
  // (e.g. after an upstream stage completes).
  SimTime AcquireAfter(SimTime earliest, SimTime service) {
    SimTime now = clock_->now();
    SimTime start = earliest > now ? earliest : now;
    SimTime& unit = unit_free_at_[BestUnit()];
    if (unit > start) {
      start = unit;
    }
    if (!fault_windows_.empty()) {
      ApplyFaultWindows(now, &start, &service);
    }
    unit = start + service;
    busy_ += service;
    if (unit_free_at_.size() > 1) {
      SiftRootDown();  // The root's key just grew; restore heap order.
    }
    return unit;
  }

  // Asynchronous acquisition: reserves the earliest-available unit starting
  // now and schedules `done` on `events` at the completion time. FIFO
  // fairness follows from reservation-at-call order; simultaneous
  // completions dispatch in schedule order (EventQueue seq numbers).
  //
  // With a ResourceScheduler attached the acquisition is queued under the
  // scheduler's discipline instead, and the completion time is unknown
  // until it dispatches — the return value is 0 in that case (no async
  // call site consumes it).
  SimTime AcquireAsync(EventQueue* events, SimTime service, InlineCallback done) {
    if (scheduler_ != nullptr) {
      scheduler_->Admit(this, events, service, std::move(done));
      return 0;
    }
    SimTime finish = Acquire(service);
    events->ScheduleAt(finish, std::move(done));
    return finish;
  }

  // QoS hook (src/qos): routes AcquireAsync through `scheduler`; null
  // restores the plain reservation-at-call FIFO semantics.
  void set_scheduler(ResourceScheduler* scheduler) { scheduler_ = scheduler; }
  ResourceScheduler* scheduler() const { return scheduler_; }

  // Time at which some unit next becomes free.
  SimTime available_at() const { return unit_free_at_[BestUnit()]; }

  int units() const { return static_cast<int>(unit_free_at_.size()); }

  // Total busy time accumulated across all units (for utilization
  // reporting; divide by units() for per-unit utilization).
  SimTime busy_time() const { return busy_; }

  void Reset() {
    for (SimTime& t : unit_free_at_) {
      t = 0;
    }
    busy_ = 0;
    ResetHeap();
  }

  // --- Fault plane (src/fault) ------------------------------------------
  //
  // Timed degradation windows, armed against the resource before (or
  // during) a run. A job whose service would begin inside a window is
  // degraded:
  //   * fail-slow: its service demand is multiplied by num/den (integer
  //     arithmetic, so faulted runs stay bit-identical across platforms);
  //   * fail-stop (num == 0): the device serves nothing while stopped —
  //     the job's start is deferred to the window end, and queued work
  //     resumes in the original FIFO reservation order.
  // With no windows armed, the acquire path is untouched (a single
  // empty() check), so an empty FaultPlan is byte-identical to the
  // un-faulted engine. Overlapping slow windows do not stack: the
  // earliest-starting one covering the job applies.

  void AddSlowWindow(SimTime start, SimTime end, uint32_t num, uint32_t den) {
    assert(num > 0 && den > 0 && end > start);
    fault_windows_.push_back(FaultWindow{start, end, num, den});
    SortFaultWindows();
  }

  void AddOutageWindow(SimTime start, SimTime end) {
    assert(end > start);
    fault_windows_.push_back(FaultWindow{start, end, 0, 1});
    SortFaultWindows();
  }

  // True if a fail-stop window covers `t` (proxy fail-open checks this
  // before queueing a fetch behind a dead backhaul).
  bool InOutage(SimTime t) const {
    for (const FaultWindow& w : fault_windows_) {
      if (w.start > t) {
        break;  // Sorted by start: no later window can cover t.
      }
      if (w.num == 0 && t < w.end) {
        return true;
      }
    }
    return false;
  }

  bool has_fault_windows() const { return !fault_windows_.empty(); }

 private:
  struct FaultWindow {
    SimTime start = 0;
    SimTime end = 0;
    uint32_t num = 0;  // 0 = fail-stop (outage); otherwise service *= num/den.
    uint32_t den = 1;
  };

  void SortFaultWindows() {
    // Insertion-time sort (arming is rare, acquiring is hot). Stable order
    // by (start, end) keeps overlapping-window resolution deterministic.
    std::sort(fault_windows_.begin(), fault_windows_.end(),
              [](const FaultWindow& a, const FaultWindow& b) {
                return a.start != b.start ? a.start < b.start : a.end < b.end;
              });
    fault_cursor_ = 0;
  }

  void ApplyFaultWindows(SimTime now, SimTime* start, SimTime* service) {
    // Windows fully in the past can never degrade a new job (start >= now,
    // and now only moves forward), so skip them permanently.
    while (fault_cursor_ < fault_windows_.size() &&
           fault_windows_[fault_cursor_].end <= now) {
      ++fault_cursor_;
    }
    for (size_t i = fault_cursor_; i < fault_windows_.size(); ++i) {
      const FaultWindow& w = fault_windows_[i];
      if (w.start > *start) {
        break;  // Sorted by start: later windows can't cover this start.
      }
      if (*start >= w.end) {
        continue;  // Already over by the time this job would begin.
      }
      if (w.num == 0) {
        *start = w.end;  // Fail-stop: resume when the device comes back.
        continue;        // Back-to-back windows may cover the new start.
      }
      *service = *service * w.num / w.den;
      break;  // One slow multiplier per job; overlapping windows don't stack.
    }
  }

  // Earliest-free unit; ties resolve to the lowest index so unit selection
  // is deterministic. O(1): the single-unit case has no choice to make and
  // the multi-unit case reads the heap root.
  size_t BestUnit() const { return unit_free_at_.size() == 1 ? 0 : heap_[0]; }

  // "unit a is a worse pick than unit b" under (free time, index).
  bool Worse(uint32_t a, uint32_t b) const {
    if (unit_free_at_[a] != unit_free_at_[b]) {
      return unit_free_at_[a] > unit_free_at_[b];
    }
    return a > b;
  }

  void SiftRootDown() {
    size_t n = heap_.size();
    size_t i = 0;
    uint32_t moving = heap_[0];
    while (true) {
      size_t kid = 2 * i + 1;
      if (kid >= n) {
        break;
      }
      if (kid + 1 < n && Worse(heap_[kid], heap_[kid + 1])) {
        ++kid;
      }
      if (!Worse(moving, heap_[kid])) {
        break;
      }
      heap_[i] = heap_[kid];
      i = kid;
    }
    heap_[i] = moving;
  }

  void ResetHeap() {
    // All-equal keys: ascending indices already satisfy the heap property
    // and encode the lowest-index tie-break.
    for (size_t i = 0; i < heap_.size(); ++i) {
      heap_[i] = static_cast<uint32_t>(i);
    }
  }

  VirtualClock* clock_;
  std::vector<SimTime> unit_free_at_;
  std::vector<uint32_t> heap_;  // Unit indices, min-heap by (free time, index).
  SimTime busy_ = 0;
  ResourceScheduler* scheduler_ = nullptr;
  std::vector<FaultWindow> fault_windows_;  // Sorted by (start, end).
  size_t fault_cursor_ = 0;                 // First window not fully past.
};

// Pooled two-hop acquisition: reserve `first` for `s1`, and at its
// completion event reserve `second` for `s2` with `done` running at that
// completion. The continuation between the hops rides in a free-listed node
// — the staged pipeline's disk-then-CPU stages schedule millions of these —
// so steady-state chains never allocate.
class ResourceChain {
 public:
  explicit ResourceChain(EventQueue* events) : events_(events) {}

  ResourceChain(const ResourceChain&) = delete;
  ResourceChain& operator=(const ResourceChain&) = delete;

  void AcquireThenAsync(Resource* first, SimTime s1, Resource* second, SimTime s2,
                        InlineCallback done) {
    uint32_t idx;
    if (free_head_ != kNone) {
      idx = free_head_;
      free_head_ = nodes_[idx].next_free;
    } else {
      idx = static_cast<uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    Node& n = nodes_[idx];
    n.second = second;
    n.s2 = s2;
    n.done = std::move(done);
    first->AcquireAsync(events_, s1, [this, idx] { Resume(idx); });
  }

  size_t pool_size() const { return nodes_.size(); }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Node {
    Resource* second = nullptr;
    SimTime s2 = 0;
    InlineCallback done;
    uint32_t next_free = kNone;
  };

  void Resume(uint32_t idx) {
    Node& n = nodes_[idx];
    Resource* second = n.second;
    SimTime s2 = n.s2;
    InlineCallback done = std::move(n.done);
    n.next_free = free_head_;
    free_head_ = idx;
    second->AcquireAsync(events_, s2, std::move(done));
  }

  EventQueue* events_;
  std::vector<Node> nodes_;
  uint32_t free_head_ = kNone;
};

}  // namespace iolsim

#endif  // SRC_SIMOS_EVENT_QUEUE_H_
