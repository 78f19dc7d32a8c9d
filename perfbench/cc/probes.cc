#include "perfbench/cc/probes.h"

#include <cstdio>

namespace perfbench {

const char* SiteName(int site) {
  switch (site) {
    case kSiteAdmitCpu:
      return "simos.cpu.admit";
    case kSiteAdmitDisk:
      return "simos.disk.admit";
    case kSiteAdmitLink:
      return "simos.link.admit";
    case kSiteGrantCpu:
      return "simos.cpu.grant";
    case kSiteGrantDisk:
      return "simos.disk.grant";
    case kSiteGrantLink:
      return "simos.link.grant";
    case kSiteNextFile:
      return "driver.next_file";
    case kSitePolicy:
      return "fs.policy";
    default:
      return "?";
  }
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& sim_spans_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  int64_t origin = 0;
  if (!phases_.empty()) {
    origin = phases_.front().start_ns;
  }
  for (const Phase& p : phases_) {
    origin = p.start_ns < origin ? p.start_ns : origin;
  }
  // pid 1: host time (phases on tid 1, sampled layer spans on tid 2);
  // pid 2: simulated time, one async track per sampled request.
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
               "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, "
               "\"args\": {\"name\": \"host\"}},\n"
               "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 2, \"tid\": 0, "
               "\"args\": {\"name\": \"simulated\"}}");
  for (const Phase& p : phases_) {
    std::fprintf(f,
                 ",\n{\"ph\": \"X\", \"cat\": \"phase\", \"name\": \"%s\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                 p.name.c_str(), static_cast<double>(p.start_ns - origin) / 1e3,
                 static_cast<double>(p.dur_ns) / 1e3);
  }
  for (const RawSpan& s : raw_) {
    std::fprintf(f,
                 ",\n{\"ph\": \"X\", \"cat\": \"layer\", \"name\": \"%s\", \"pid\": 1, "
                 "\"tid\": 2, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"depth\": %zu}}",
                 s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.depth);
  }
  if (!sim_spans_json.empty()) {
    std::fprintf(f, ",\n%s", sim_spans_json.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void TimedScheduler::Admit(iolsim::Resource* resource, iolsim::EventQueue* events,
                           iolsim::SimTime service, iolsim::InlineCallback done) {
  tracer_->Enter();
  iolsim::SimTime now = clock_->now();
  iolsim::SimTime finish = resource->Acquire(service);
  waits_.push_back(finish - service - now);
  service_total_ += service;
  uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
    slots_[idx] = std::move(done);
  } else {
    idx = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(done));
  }
  events->ScheduleAt(finish, [this, idx] { Grant(idx); });
  tracer_->Exit(admit_site_);
}

void TimedScheduler::Grant(uint32_t idx) {
  iolsim::InlineCallback fn = std::move(slots_[idx]);
  free_slots_.push_back(idx);
  tracer_->Enter();
  fn();
  tracer_->Exit(grant_site_);
}

void TimedPolicy::OnInsert(iolfs::EntryId id, size_t bytes) {
  tracer_->Enter();
  inner_->OnInsert(id, bytes);
  tracer_->Exit(kSitePolicy);
}

void TimedPolicy::OnAccess(iolfs::EntryId id) {
  tracer_->Enter();
  inner_->OnAccess(id);
  tracer_->Exit(kSitePolicy);
}

void TimedPolicy::OnErase(iolfs::EntryId id) {
  tracer_->Enter();
  inner_->OnErase(id);
  tracer_->Exit(kSitePolicy);
}

iolfs::EntryId TimedPolicy::ChooseVictim(const iolfs::CacheView& view) {
  tracer_->Enter();
  iolfs::EntryId victim = inner_->ChooseVictim(view);
  tracer_->Exit(kSitePolicy);
  return victim;
}

void TracingTelemetry::OnRecord(const ioldrv::RequestRecord& rec) {
  if (!rec.counted || kept_ >= kMaxRequests) {
    return;
  }
  size_t index = records().size() - 1;
  char buf[640];
  // Simulated nanoseconds rendered as trace microseconds.
  int n = std::snprintf(
      buf, sizeof(buf),
      "%s{\"ph\": \"b\", \"cat\": \"request\", \"name\": \"accept_wait\", \"id\": %zu, "
      "\"pid\": 2, \"tid\": 1, \"ts\": %.3f},\n"
      "{\"ph\": \"e\", \"cat\": \"request\", \"name\": \"accept_wait\", \"id\": %zu, "
      "\"pid\": 2, \"tid\": 1, \"ts\": %.3f},\n"
      "{\"ph\": \"b\", \"cat\": \"request\", \"name\": \"service\", \"id\": %zu, "
      "\"pid\": 2, \"tid\": 1, \"ts\": %.3f, \"args\": {\"bytes\": %zu, \"server\": %zu, "
      "\"cache_hit\": %d}},\n"
      "{\"ph\": \"e\", \"cat\": \"request\", \"name\": \"service\", \"id\": %zu, "
      "\"pid\": 2, \"tid\": 1, \"ts\": %.3f}",
      kept_ == 0 ? "" : ",\n", index, static_cast<double>(rec.issue) / 1e3, index,
      static_cast<double>(rec.admit) / 1e3, index, static_cast<double>(rec.admit) / 1e3,
      rec.bytes, rec.server, rec.cache_hit ? 1 : 0, index,
      static_cast<double>(rec.complete) / 1e3);
  if (n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
    json_.append(buf, static_cast<size_t>(n));
  }
  ++kept_;
}

}  // namespace perfbench
