// Probes: the benchmark's view into the simulator's layers, attached only
// through hooks the public API already offers.
//
//  * TimedScheduler — a pass-through iolsim::ResourceScheduler. Admit does
//    exactly what the unhooked Resource::AcquireAsync does (Acquire, then
//    ScheduleAt at the returned finish time), so the event sequence and the
//    simulated results are unchanged; it records the simulated wait and
//    service of each acquisition and times the continuation the grant runs.
//  * TimedPolicy — a decorating iolfs::ReplacementPolicy that times every
//    call into the wrapped policy.
//  * TracingTelemetry — an ioldrv::Telemetry sink that turns a bounded
//    sample of request records into per-request simulated-time spans.
//  * Tracer — the host-time span stack behind all of them. Self time is a
//    span's duration minus the part its child spans cover. Spans stay in
//    memory (a bounded sample of raw spans plus per-site totals) and are
//    written as Chrome trace-event JSON when the run ends.

#ifndef PERFBENCH_CC_PROBES_H_
#define PERFBENCH_CC_PROBES_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/driver/telemetry.h"
#include "src/fs/replacement_policy.h"
#include "src/simos/event_queue.h"

namespace perfbench {

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Instrumented call sites. Each has per-call totals; raw spans of every
// site are sampled into the trace file.
enum Site : int {
  kSiteAdmitCpu,
  kSiteAdmitDisk,
  kSiteAdmitLink,
  kSiteGrantCpu,
  kSiteGrantDisk,
  kSiteGrantLink,
  kSiteNextFile,
  kSitePolicy,
  kSiteCount,
};

const char* SiteName(int site);

struct SiteTotals {
  uint64_t calls = 0;
  int64_t inclusive_ns = 0;
  int64_t self_ns = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Enter() { stack_.push_back(Frame{HostNowNs(), 0}); }

  void Exit(int site) {
    int64_t end = HostNowNs();
    Frame f = stack_.back();
    stack_.pop_back();
    int64_t dur = end - f.start;
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
    }
    SiteTotals& t = totals_[site];
    ++t.calls;
    t.inclusive_ns += dur;
    t.self_ns += dur - f.child_ns;
    if (raw_.size() < kMaxRawSpans) {
      raw_.push_back(RawSpan{SiteName(site), f.start, dur, stack_.size()});
    }
  }

  // A named span recorded after the fact (setup phases, the top-level run
  // call): always kept, never sampled away.
  void AddPhase(const std::string& name, int64_t start_ns, int64_t dur_ns) {
    phases_.push_back(Phase{name, start_ns, dur_ns});
  }

  const SiteTotals& totals(int site) const { return totals_[site]; }

  // Starts a fresh measurement window (raw spans and phases are kept).
  void ResetTotals() {
    for (SiteTotals& t : totals_) {
      t = SiteTotals{};
    }
  }

  // Writes every phase, the raw-span sample and `sim_spans_json` (already
  // formatted trace events, may be empty) as one Chrome trace document.
  bool WriteChromeTrace(const std::string& path, const std::string& sim_spans_json) const;

 private:
  struct Frame {
    int64_t start;
    int64_t child_ns;
  };
  struct RawSpan {
    const char* name;
    int64_t start_ns;
    int64_t dur_ns;
    size_t depth;
  };
  struct Phase {
    std::string name;
    int64_t start_ns;
    int64_t dur_ns;
  };

  static constexpr size_t kMaxRawSpans = 20000;  // The first spans of the run.

  std::vector<Frame> stack_;
  SiteTotals totals_[kSiteCount];
  std::vector<RawSpan> raw_;
  std::vector<Phase> phases_;
};

// Pass-through scheduler for one Resource. Attach with
// Resource::set_scheduler; detach (set_scheduler(nullptr)) before it dies.
class TimedScheduler : public iolsim::ResourceScheduler {
 public:
  TimedScheduler(Tracer* tracer, iolsim::VirtualClock* clock, int admit_site,
                 int grant_site)
      : tracer_(tracer), clock_(clock), admit_site_(admit_site), grant_site_(grant_site) {}

  TimedScheduler(const TimedScheduler&) = delete;
  TimedScheduler& operator=(const TimedScheduler&) = delete;

  void Admit(iolsim::Resource* resource, iolsim::EventQueue* events, iolsim::SimTime service,
             iolsim::InlineCallback done) override;

  uint64_t acquires() const { return waits_.size(); }
  // Simulated queueing delay of every acquisition (start - request time).
  const std::vector<iolsim::SimTime>& waits() const { return waits_; }
  iolsim::SimTime service_total() const { return service_total_; }

 private:
  // The continuation rides in a pooled slot, so the wrapper the event queue
  // stores captures only {this, index} and fits the inline callback limit.
  void Grant(uint32_t idx);

  Tracer* tracer_;
  iolsim::VirtualClock* clock_;
  int admit_site_;
  int grant_site_;
  std::vector<iolsim::InlineCallback> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<iolsim::SimTime> waits_;
  iolsim::SimTime service_total_ = 0;
};

// Times every call into the wrapped replacement policy.
class TimedPolicy : public iolfs::ReplacementPolicy {
 public:
  TimedPolicy(Tracer* tracer, std::unique_ptr<iolfs::ReplacementPolicy> inner)
      : tracer_(tracer), inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  void OnInsert(iolfs::EntryId id, size_t bytes) override;
  void OnAccess(iolfs::EntryId id) override;
  void OnErase(iolfs::EntryId id) override;
  iolfs::EntryId ChooseVictim(const iolfs::CacheView& view) override;

 private:
  Tracer* tracer_;
  std::unique_ptr<iolfs::ReplacementPolicy> inner_;
};

// Keeps the first kMaxRequests counted records as per-request spans
// (accept wait = issue..admit, service = admit..complete), keyed by record
// index, in simulated time.
class TracingTelemetry : public ioldrv::Telemetry {
 public:
  // Chrome trace events (async begin/end pairs), comma-separated.
  const std::string& spans_json() const { return json_; }

 protected:
  void OnRecord(const ioldrv::RequestRecord& rec) override;

 private:
  static constexpr size_t kMaxRequests = 2000;

  size_t kept_ = 0;
  std::string json_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CC_PROBES_H_
