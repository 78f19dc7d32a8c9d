#include "perfbench/cc/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <utility>

#include "src/cdn/cdn_topology.h"
#include "src/cdn/write_plan.h"
#include "src/driver/cdn_tier.h"
#include "src/driver/edge_mix.h"
#include "src/driver/experiment.h"
#include "src/driver/process_tier.h"
#include "src/httpd/http_server.h"
#include "src/system/system.h"
#include "src/workload/trace.h"

namespace perfbench {
namespace {

using iolsim::SimTime;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Independent generator seeds derived from the command-line seed, one per
// input stream, so adding a stream never shifts another.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  iolsim::Rng r(seed * 0x9e3779b97f4a7c15ull ^ (stream + 1) * 0xbf58476d1ce4e5b9ull);
  return r.Next();
}

// `n` sizes spread log-uniformly over [lo, hi], one per stratum, in a
// seeded order: every seed gets the same size mix, placed differently.
std::vector<uint64_t> StratifiedSizes(size_t n, double lo, double hi, iolsim::Rng* rng) {
  std::vector<uint64_t> sizes(n);
  double span = std::log(hi / lo);
  for (size_t i = 0; i < n; ++i) {
    double q = (static_cast<double>(i) + rng->NextDouble()) / static_cast<double>(n);
    sizes[i] = static_cast<uint64_t>(lo * std::exp(span * q));
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(sizes[i - 1], sizes[rng->NextBelow(i)]);
  }
  return sizes;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
  return h * 0xff51afd7ed558ccdull;
}

// The simulated digest: every record field plus the final clock, folded the
// way the CDN hierarchy figure checks byte identity.
uint64_t FoldRun(const ioldrv::Telemetry& t, SimTime final_clock) {
  uint64_t h = 1469598103934665603ull;
  for (const ioldrv::RequestRecord& r : t.records()) {
    h = Mix(h, static_cast<uint64_t>(r.issue));
    h = Mix(h, static_cast<uint64_t>(r.admit));
    h = Mix(h, static_cast<uint64_t>(r.complete));
    h = Mix(h, r.bytes);
    h = Mix(h, r.server);
    h = Mix(h, static_cast<uint64_t>(r.outcome));
    h = Mix(h, r.cache_hit ? 1 : 0);
    h = Mix(h, r.counted ? 1 : 0);
  }
  return Mix(h, static_cast<uint64_t>(final_clock));
}

void Put(Metrics* m, const std::string& name, double value, uint64_t samples) {
  auto it = m->find(name);
  if (it == m->end()) {
    std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
    std::abort();
  }
  it->second.value = value;
  it->second.samples = samples;
}

void AddCheck(RepResult* out, const std::string& name, bool ok, const std::string& detail) {
  out->checks.push_back(Check{name, ok, detail});
}

// Every per-layer metric, with its unit. Each traced rep reports all of
// them; a layer the workload does not exercise reads 0 with 0 samples.
Metrics DeclaredLayerMetrics() {
  Metrics m;
  auto declare = [&m](const std::string& name, const char* unit) {
    m[name] = Metric{0, unit, 0};
  };
  declare("simos.events_per_req", "1/req");
  declare("simos.events_per_s", "1/s");
  declare("simos.admit_ns", "ns");
  declare("simos.dispatch_share", "share");
  for (const char* r : {"cpu", "disk", "link"}) {
    std::string p = std::string("simos.") + r;
    declare(p + ".acquires_per_req", "1/req");
    declare(p + ".busy_share", "share");
    declare(p + ".wait_p50_ms", "sim_ms");
    declare(p + ".wait_p99_ms", "sim_ms");
    declare(p + ".service_mean_us", "sim_us");
    declare(p + ".grant_ns", "ns");
  }
  declare("driver.accept_wait_p99_ms", "sim_ms");
  declare("driver.service_p99_ms", "sim_ms");
  declare("driver.record_ns", "ns");
  declare("driver.next_file_ns", "ns");
  declare("net.packets_per_req", "1/req");
  declare("net.checksum_kb_per_req", "KB/req");
  declare("net.cksum_cache_hit_ratio", "share");
  declare("net.bytes_copied_per_req", "B/req");
  declare("fs.cache_hit_ratio", "share");
  declare("fs.evictions_per_req", "1/req");
  declare("fs.disk_reads_per_req", "1/req");
  declare("fs.disk_kb_per_req", "KB/req");
  declare("fs.policy_ns", "ns");
  declare("iolite.buffers_alloc_per_req", "1/req");
  declare("iolite.buffer_recycle_ratio", "share");
  declare("iolite.pages_mapped_per_req", "1/req");
  declare("cdn.l0.hit_ratio", "share");
  declare("cdn.l1.hit_ratio", "share");
  declare("cdn.l2.hit_ratio", "share");
  declare("cdn.origin_fetches_per_req", "1/req");
  declare("cdn.backhaul_kb_per_req", "KB/req");
  declare("cdn.invalidations_per_write", "1/write");
  declare("cdn.fetch_races", "count");
  declare("cdn.stale_p99_ms", "sim_ms");
  declare("ipc.hit_ratio", "share");
  declare("ipc.origin_fills_per_req", "1/req");
  declare("ipc.future_errors", "count");
  declare("ipc.bytes_copied_cross_process", "B");
  return m;
}

Metrics DeclaredSimMetrics() {
  Metrics m;
  m["sim_mbps"] = Metric{0, "Mb/s", 0};
  m["sim_p50_ms"] = Metric{0, "sim_ms", 0};
  m["sim_p99_ms"] = Metric{0, "sim_ms", 0};
  return m;
}

// Routes file requests through the tracer when one is attached.
std::function<iolfs::FileId()> TimedSource(std::function<iolfs::FileId()> inner,
                                           Tracer* tracer) {
  if (tracer == nullptr) {
    return inner;
  }
  return [inner = std::move(inner), tracer]() {
    tracer->Enter();
    iolfs::FileId f = inner();
    tracer->Exit(kSiteNextFile);
    return f;
  };
}

// Builds the machine. Traced reps wrap the replacement policy before any
// cache entry exists, so the wrapped policy sees exactly the calls the
// unwrapped one would.
std::unique_ptr<iolsys::System> MakeSystem(iolsys::SystemOptions options, Tracer* tracer) {
  options.policy = iolsys::SystemOptions::Policy::kGds;  // Flash-Lite's policy.
  options.checksum_cache = true;
  auto sys = std::make_unique<iolsys::System>(options);
  if (tracer != nullptr) {
    sys->cache().SetPolicy(std::make_unique<TimedPolicy>(
        tracer, iolsys::System::MakePolicy(iolsys::SystemOptions::Policy::kGds)));
  }
  return sys;
}

// Setup phases, recorded as trace spans in traced reps.
class PhaseClock {
 public:
  PhaseClock(Tracer* tracer, const std::string& workload)
      : tracer_(tracer), prefix_(workload + "."), start_(HostNowNs()), last_(start_) {}

  void Mark(const char* phase) {
    int64_t now = HostNowNs();
    if (tracer_ != nullptr) {
      tracer_->AddPhase(prefix_ + phase, last_, now - last_);
    }
    last_ = now;
  }

  double total_s() const { return static_cast<double>(last_ - start_) / 1e9; }

 private:
  Tracer* tracer_;
  std::string prefix_;
  int64_t start_;
  int64_t last_;
};

// Pass-through schedulers on the machine's cpu/disk/link for the measured
// call (traced reps), plus the counter and clock snapshots every rep takes.
class MachineProbe {
 public:
  MachineProbe(iolsim::SimContext* ctx, Tracer* tracer) : ctx_(ctx), tracer_(tracer) {
    if (tracer_ != nullptr) {
      for (int r = 0; r < 3; ++r) {
        sched_[r] = std::make_unique<TimedScheduler>(tracer_, &ctx_->clock(),
                                                     kSiteAdmitCpu + r, kSiteGrantCpu + r);
        resource(r).set_scheduler(sched_[r].get());
      }
    }
  }

  ~MachineProbe() {
    for (int r = 0; r < 3; ++r) {
      if (sched_[r] != nullptr) {
        resource(r).set_scheduler(nullptr);
      }
    }
  }

  MachineProbe(const MachineProbe&) = delete;
  MachineProbe& operator=(const MachineProbe&) = delete;

  void Begin() {
    stats0_ = ctx_->stats();
    clock0_ = ctx_->clock().now();
    for (int r = 0; r < 3; ++r) {
      busy0_[r] = resource(r).busy_time();
    }
    if (tracer_ != nullptr) {
      tracer_->ResetTotals();
    }
    t0_ = HostNowNs();
  }

  void End() {
    t1_ = HostNowNs();
    if (tracer_ != nullptr) {
      tracer_->AddPhase("run", t0_, t1_ - t0_);
    }
  }

  double run_s() const { return static_cast<double>(t1_ - t0_) / 1e9; }
  const iolsim::SimStats& before() const { return stats0_; }
  iolsim::SimTime clock0() const { return clock0_; }
  iolsim::SimTime busy0(int r) const { return busy0_[r]; }
  const TimedScheduler* scheduler(int r) const { return sched_[r].get(); }
  iolsim::Resource& resource(int r) {
    return r == 0 ? ctx_->cpu() : r == 1 ? ctx_->disk() : ctx_->link();
  }

 private:
  iolsim::SimContext* ctx_;
  Tracer* tracer_;
  std::unique_ptr<TimedScheduler> sched_[3];
  iolsim::SimStats stats0_;
  iolsim::SimTime clock0_ = 0;
  iolsim::SimTime busy0_[3] = {0, 0, 0};
  int64_t t0_ = 0;
  int64_t t1_ = 0;
};

// Host ns per Telemetry::Record, measured by replaying the run's records
// into a fresh, pre-sized sink (the engine reserves its sink the same way).
double RecordNs(const ioldrv::Telemetry& t) {
  const std::vector<ioldrv::RequestRecord>& recs = t.records();
  if (recs.empty()) {
    return 0;
  }
  ioldrv::Telemetry replay;
  replay.Reserve(recs.size());
  int64_t t0 = HostNowNs();
  for (const ioldrv::RequestRecord& r : recs) {
    replay.Record(r);
  }
  return static_cast<double>(HostNowNs() - t0) / static_cast<double>(recs.size());
}

double SelfNsPerCall(const Tracer& tracer, int site) {
  const SiteTotals& s = tracer.totals(site);
  return Ratio(static_cast<double>(s.self_ns), static_cast<double>(s.calls));
}

// Fills everything a simulated run reports: host timing, the digest, the
// simulated end-to-end metrics, the fault-free checks and, when traced, the
// layer metrics the machine-level probes and counters give.
void FinishSimRun(iolsim::SimContext* ctx, MachineProbe* probe,
                  const ioldrv::ExperimentResult& r, const ioldrv::Telemetry& t,
                  Tracer* tracer, RepResult* out) {
  out->run_s = probe->run_s();
  out->requests = r.requests;
  out->attempted = r.requests;
  out->failed = r.failed_requests;
  out->digest = FoldRun(t, ctx->clock().now());
  const iolsim::SimStats& s0 = probe->before();
  const iolsim::SimStats& s1 = ctx->stats();
  out->events = s1.events_dispatched - s0.events_dispatched;
  Put(&out->sim, "sim_mbps", r.megabits_per_sec, r.requests);
  Put(&out->sim, "sim_p50_ms", r.latency.p50_ms, r.latency.count);
  Put(&out->sim, "sim_p99_ms", r.latency.p99_ms, r.latency.count);
  AddCheck(out, "availability_is_1", r.availability == 1.0 && r.failed_requests == 0,
           "availability=" + std::to_string(r.availability));
  AddCheck(out, "requests_completed", r.requests > 0,
           "counted=" + std::to_string(r.requests));
  if (tracer == nullptr) {
    return;
  }

  // Counter ratios divide by every request the call completed (warmup
  // included), because the counters and probes cover the whole call.
  double reqs = static_cast<double>(t.records().size());
  uint64_t nreq = t.records().size();
  Metrics& m = out->layers;
  Put(&m, "simos.events_per_req", Ratio(static_cast<double>(out->events), reqs), nreq);
  int64_t admit_ns = 0;
  uint64_t admits = 0;
  int64_t grant_ns = 0;
  for (int site : {kSiteAdmitCpu, kSiteAdmitDisk, kSiteAdmitLink}) {
    admit_ns += tracer->totals(site).inclusive_ns;
    admits += tracer->totals(site).calls;
  }
  for (int site : {kSiteGrantCpu, kSiteGrantDisk, kSiteGrantLink}) {
    grant_ns += tracer->totals(site).inclusive_ns;
  }
  Put(&m, "simos.admit_ns", Ratio(static_cast<double>(admit_ns), static_cast<double>(admits)),
      admits);
  Put(&m, "simos.dispatch_share", 1.0 - static_cast<double>(grant_ns) / (out->run_s * 1e9),
      1);
  SimTime elapsed = ctx->clock().now() - probe->clock0();
  const char* names[3] = {"cpu", "disk", "link"};
  for (int r_i = 0; r_i < 3; ++r_i) {
    std::string p = std::string("simos.") + names[r_i];
    const TimedScheduler& sched = *probe->scheduler(r_i);
    iolsim::Resource& res = probe->resource(r_i);
    uint64_t n = sched.acquires();
    ioldrv::LatencySummary w = ioldrv::SummarizeSamples(sched.waits());
    Put(&m, p + ".acquires_per_req", Ratio(static_cast<double>(n), reqs), n);
    Put(&m, p + ".busy_share",
        Ratio(static_cast<double>(res.busy_time() - probe->busy0(r_i)),
              static_cast<double>(elapsed) * res.units()),
        n);
    Put(&m, p + ".wait_p50_ms", w.p50_ms, n);
    Put(&m, p + ".wait_p99_ms", w.p99_ms, n);
    Put(&m, p + ".service_mean_us",
        Ratio(static_cast<double>(sched.service_total()), static_cast<double>(n)) / 1e3, n);
    Put(&m, p + ".grant_ns", SelfNsPerCall(*tracer, kSiteGrantCpu + r_i),
        tracer->totals(kSiteGrantCpu + r_i).calls);
  }

  std::vector<SimTime> service;
  for (const ioldrv::RequestRecord& rec : t.records()) {
    if (rec.counted && ioldrv::Delivered(rec.outcome)) {
      service.push_back(rec.complete - rec.admit);
    }
  }
  ioldrv::LatencySummary queue = t.QueueWait();
  ioldrv::LatencySummary serve = ioldrv::SummarizeSamples(std::move(service));
  Put(&m, "driver.accept_wait_p99_ms", queue.p99_ms, queue.count);
  Put(&m, "driver.service_p99_ms", serve.p99_ms, serve.count);
  Put(&m, "driver.record_ns", RecordNs(t), nreq);
  Put(&m, "driver.next_file_ns", SelfNsPerCall(*tracer, kSiteNextFile),
      tracer->totals(kSiteNextFile).calls);

  auto delta = [&](uint64_t iolsim::SimStats::*field) {
    return static_cast<double>(s1.*field - s0.*field);
  };
  Put(&m, "net.packets_per_req", Ratio(delta(&iolsim::SimStats::packets_sent), reqs), nreq);
  Put(&m, "net.checksum_kb_per_req",
      Ratio(delta(&iolsim::SimStats::bytes_checksummed) / 1024.0, reqs), nreq);
  double ck_hits = delta(&iolsim::SimStats::checksum_cache_hits);
  double ck_all = ck_hits + delta(&iolsim::SimStats::checksum_cache_misses);
  Put(&m, "net.cksum_cache_hit_ratio", Ratio(ck_hits, ck_all), static_cast<uint64_t>(ck_all));
  Put(&m, "net.bytes_copied_per_req", Ratio(delta(&iolsim::SimStats::bytes_copied), reqs),
      nreq);
  double c_hits = delta(&iolsim::SimStats::cache_hits);
  double c_all = c_hits + delta(&iolsim::SimStats::cache_misses);
  Put(&m, "fs.cache_hit_ratio", Ratio(c_hits, c_all), static_cast<uint64_t>(c_all));
  Put(&m, "fs.evictions_per_req", Ratio(delta(&iolsim::SimStats::cache_evictions), reqs),
      nreq);
  Put(&m, "fs.disk_reads_per_req", Ratio(delta(&iolsim::SimStats::disk_reads), reqs), nreq);
  Put(&m, "fs.disk_kb_per_req",
      Ratio(delta(&iolsim::SimStats::disk_bytes_read) / 1024.0, reqs), nreq);
  Put(&m, "fs.policy_ns", SelfNsPerCall(*tracer, kSitePolicy),
      tracer->totals(kSitePolicy).calls);
  double fresh = delta(&iolsim::SimStats::buffers_allocated);
  double reused = delta(&iolsim::SimStats::buffers_recycled);
  Put(&m, "iolite.buffers_alloc_per_req", Ratio(fresh + reused, reqs), nreq);
  Put(&m, "iolite.buffer_recycle_ratio", Ratio(reused, fresh + reused),
      static_cast<uint64_t>(fresh + reused));
  Put(&m, "iolite.pages_mapped_per_req", Ratio(delta(&iolsim::SimStats::pages_mapped), reqs),
      nreq);

  if (const auto* traced = dynamic_cast<const TracingTelemetry*>(&t)) {
    out->sim_spans_json = traced->spans_json();
  }
}

std::unique_ptr<ioldrv::Telemetry> MakeSink(Tracer* tracer) {
  if (tracer != nullptr) {
    return std::make_unique<TracingTelemetry>();
  }
  return std::make_unique<ioldrv::Telemetry>();
}

// --- static_hot ---------------------------------------------------------
// One Flash-Lite machine, a closed loop on nonpersistent connections, and a
// prewarmed hot set: every counted request hits the unified cache.
void RunStaticHot(uint64_t seed, bool tiny, Tracer* tracer, RepResult* out) {
  const size_t docs = tiny ? 16 : 64;
  const int clients = 40;
  const uint64_t warmup = 4 * docs;
  const uint64_t requests = tiny ? 2000 : 240000;
  out->sizes = {{"docs", static_cast<double>(docs)},
               {"clients", clients},
               {"warmup_requests", static_cast<double>(warmup)},
               {"counted_requests", static_cast<double>(requests)}};

  PhaseClock phase(tracer, "static_hot");
  std::unique_ptr<iolsys::System> sys = MakeSystem({}, tracer);
  iolhttp::FlashLiteServer server(&sys->ctx(), &sys->net(), &sys->io(), &sys->runtime());
  phase.Mark("build_machine");
  iolsim::Rng size_rng(SubSeed(seed, 1));
  std::vector<uint64_t> sizes = StratifiedSizes(docs, 256, 100 * 1024, &size_rng);
  std::vector<iolfs::FileId> ids;
  for (size_t i = 0; i < docs; ++i) {
    ids.push_back(sys->fs().CreateFile("doc-" + std::to_string(i), sizes[i]));
  }
  phase.Mark("make_files");
  for (size_t i = 0; i < docs; ++i) {
    sys->io().ReadExtent(ids[i], 0, sizes[i]);
  }
  phase.Mark("prewarm_cache");
  out->setup_s = phase.total_s();

  ioldrv::ExperimentConfig config;
  config.max_requests = requests;
  config.warmup_requests = warmup;
  config.persistent_connections = false;
  ioldrv::ClosedLoop workload(clients);
  ioldrv::Experiment experiment(&sys->ctx(), &sys->net(), &sys->cache(), &server, config);
  iolsim::Rng pick(SubSeed(seed, 2));
  auto source = TimedSource([&ids, &pick] { return ids[pick.NextBelow(ids.size())]; }, tracer);
  std::unique_ptr<ioldrv::Telemetry> sink = MakeSink(tracer);
  MachineProbe probe(&sys->ctx(), tracer);
  probe.Begin();
  ioldrv::ExperimentResult r = experiment.Run(&workload, source, sink.get());
  probe.End();
  FinishSimRun(&sys->ctx(), &probe, r, *sink, tracer, out);

  uint64_t misses = 0;
  for (const ioldrv::RequestRecord& rec : sink->records()) {
    misses += rec.counted && !rec.cache_hit ? 1 : 0;
  }
  AddCheck(out, "static_hot_all_hits", misses == 0,
           "counted cache misses=" + std::to_string(misses));
  return;
}

// --- trace_disk -----------------------------------------------------------
// MERGED-shaped Zipf/lognormal replay against a cache budget a quarter of the
// data set, so a large share of requests go to the simulated disk.
void RunTraceDisk(uint64_t seed, bool tiny, Tracer* tracer, RepResult* out) {
  const int clients = 64;
  const uint64_t warmup = tiny ? 500 : 10000;
  const uint64_t requests = tiny ? 2000 : 30000;

  PhaseClock phase(tracer, "trace_disk");
  iolwl::TraceSpec spec = iolwl::Scaled(iolwl::MergedSpec(), tiny ? 0.004 : 0.05);
  spec.size_sigma = 1.0;
  spec.seed = SubSeed(seed, 1);
  iolwl::Trace trace = iolwl::Trace::Generate(spec);
  phase.Mark("generate_trace");
  std::unique_ptr<iolsys::System> sys = MakeSystem({}, tracer);
  iolhttp::FlashLiteServer server(&sys->ctx(), &sys->net(), &sys->io(), &sys->runtime());
  phase.Mark("build_machine");
  std::vector<iolfs::FileId> ids = trace.Materialize(&sys->fs());
  phase.Mark("materialize_files");
  out->setup_s = phase.total_s();
  const uint64_t budget = trace.total_bytes() / 4;
  out->sizes = {{"files", static_cast<double>(ids.size())},
               {"data_bytes", static_cast<double>(trace.total_bytes())},
               {"cache_budget_bytes", static_cast<double>(budget)},
               {"clients", clients},
               {"warmup_requests", static_cast<double>(warmup)},
               {"counted_requests", static_cast<double>(requests)}};

  ioldrv::ExperimentConfig config;
  config.max_requests = requests;
  config.warmup_requests = warmup;
  config.persistent_connections = false;
  config.enforce_cache_budget = true;
  config.cache_budget_bytes = budget;
  ioldrv::ClosedLoop workload(clients);
  ioldrv::Experiment experiment(&sys->ctx(), &sys->net(), &sys->cache(), &server, config);
  const std::vector<uint32_t>& seq = trace.requests();
  size_t cursor = 0;
  auto source = TimedSource(
      [&ids, &seq, &cursor] { return ids[seq[cursor++ % seq.size()]]; }, tracer);
  std::unique_ptr<ioldrv::Telemetry> sink = MakeSink(tracer);
  MachineProbe probe(&sys->ctx(), tracer);
  probe.Begin();
  ioldrv::ExperimentResult r = experiment.Run(&workload, source, sink.get());
  probe.End();
  FinishSimRun(&sys->ctx(), &probe, r, *sink, tracer, out);
  return;
}

// --- cdn_write ------------------------------------------------------------
// A 3-level invalidate-protocol tree (4 edges -> 2 regionals -> 1 top) over
// two Flash-Lite origins. Three metros read their own hot sets, a flooder
// scans a wide tail, and a Poisson write stream hits the metro documents.
void RunCdnWrite(uint64_t seed, bool tiny, Tracer* tracer, RepResult* out) {
  const int origins = 2;
  const int metros = 3;
  const int metro_docs = 16;
  const int metro_hot = 12;
  const int flooder_docs = tiny ? 64 : 512;
  const uint64_t warmup = tiny ? 200 : 2000;
  const uint64_t requests = tiny ? 2000 : 40000;
  const double writes_per_sec = 200;
  const uint64_t total_budget = 3 * 512 * 1024;
  const double level_share[3] = {0.6, 0.3, 0.1};
  const int level_count[3] = {4, 2, 1};
  out->sizes = {{"metro_docs", metros * metro_docs},
               {"flooder_docs", flooder_docs},
               {"writes_per_sec", writes_per_sec},
               {"warmup_requests", static_cast<double>(warmup)},
               {"counted_requests", static_cast<double>(requests)}};

  PhaseClock phase(tracer, "cdn_write");
  iolsys::SystemOptions options;
  options.cost.cpu_count = origins;
  options.cost.disk_count = origins;
  std::unique_ptr<iolsys::System> sys = MakeSystem(options, tracer);
  // Metro documents share one size, so every seed's hot sets weigh the
  // same against the edge budgets; the flooder's tail carries the mixed
  // sizes.
  iolsim::Rng size_rng(SubSeed(seed, 1));
  std::vector<uint64_t> sizes(static_cast<size_t>(metros * metro_docs), 16 * 1024);
  std::vector<uint64_t> tail = StratifiedSizes(flooder_docs, 4096, 32768, &size_rng);
  sizes.insert(sizes.end(), tail.begin(), tail.end());
  std::vector<iolfs::FileId> ids;
  for (size_t i = 0; i < sizes.size(); ++i) {
    ids.push_back(sys->fs().CreateFile("doc-" + std::to_string(i), sizes[i]));
  }
  phase.Mark("make_files");
  std::vector<std::unique_ptr<iolhttp::FlashLiteServer>> servers;
  std::vector<iolhttp::HttpServer*> members;
  for (int i = 0; i < origins; ++i) {
    servers.push_back(std::make_unique<iolhttp::FlashLiteServer>(
        &sys->ctx(), &sys->net(), &sys->io(), &sys->runtime()));
    members.push_back(servers.back().get());
  }
  iolcdn::CdnTopology topo;
  for (int l = 0; l < 3; ++l) {
    iolcdn::CdnLevelSpec spec;
    spec.count = level_count[l];
    spec.cache_bytes =
        static_cast<uint64_t>(static_cast<double>(total_budget) * level_share[l] / level_count[l]);
    topo.levels.push_back(spec);
  }
  topo.protocol = iolproxy::ConsistencyMode::kInvalidate;
  iolproxy::ProxyConfig pc;
  pc.data_path = iolproxy::ProxyDataPath::kIoLite;
  pc.backhaul = iolproxy::BackhaulMode::kRemote;
  ioldrv::ExperimentConfig config;
  config.persistent_connections = true;
  config.max_requests = requests;
  config.warmup_requests = warmup;
  ioldrv::CdnTier tier(&sys->ctx(), &sys->net(), &sys->io(), &sys->runtime(),
                       ioldrv::Fleet(members), topo, pc, config);
  iolcdn::WritePlanSpec wspec;
  wspec.writes_per_sec = writes_per_sec;
  wspec.num_files = static_cast<uint64_t>(metros * metro_docs);
  wspec.hot_bias = 1.0;
  wspec.seed = SubSeed(seed, 2);
  iolcdn::WritePlan writes(&sys->ctx(), &tier.authority(), wspec);
  tier.set_write_plan(&writes);

  std::vector<ioldrv::EdgePopulationSpec> pops;
  for (int m = 0; m < metros; ++m) {
    auto rng = std::make_shared<iolsim::Rng>(SubSeed(seed, 10 + m));
    size_t lo = static_cast<size_t>(m * metro_docs);
    pops.push_back({"metro-" + std::to_string(m), 2,
                    TimedSource(
                        [rng, &ids, lo, metro_hot]() {
                          // u^3 concentrates draws on the low ranks.
                          double u = rng->NextDouble();
                          auto r = static_cast<size_t>(u * u * u * metro_hot);
                          return ids[lo + std::min<size_t>(r, metro_hot - 1)];
                        },
                        tracer)});
  }
  auto flood_rng = std::make_shared<iolsim::Rng>(SubSeed(seed, 3));
  size_t flood_lo = static_cast<size_t>(metros * metro_docs);
  pops.push_back({"flooder", 6,
                  TimedSource(
                      [flood_rng, &ids, flood_lo, flooder_docs]() {
                        return ids[flood_lo + flood_rng->NextBelow(flooder_docs)];
                      },
                      tracer)});
  ioldrv::EdgeMix mix(std::move(pops));
  phase.Mark("build_tree");
  out->setup_s = phase.total_s();

  std::unique_ptr<ioldrv::Telemetry> sink = MakeSink(tracer);
  MachineProbe probe(&sys->ctx(), tracer);
  probe.Begin();
  ioldrv::ExperimentResult r = tier.Run(&mix, [&ids] { return ids[0]; }, sink.get());
  probe.End();
  FinishSimRun(&sys->ctx(), &probe, r, *sink, tracer, out);
  AddCheck(out, "cdn_writes_applied", r.cdn_writes > 0,
           "writes=" + std::to_string(r.cdn_writes));
  if (tracer == nullptr) {
    return;
  }
  Metrics& m = out->layers;
  double reqs = static_cast<double>(sink->records().size());
  uint64_t nreq = sink->records().size();
  uint64_t invalidations = 0;
  uint64_t races = 0;
  for (size_t l = 0; l < r.cdn_levels.size(); ++l) {
    Put(&m, "cdn.l" + std::to_string(l) + ".hit_ratio", r.cdn_levels[l].hit_rate, nreq);
    invalidations += r.cdn_levels[l].invalidations_sent;
    races += r.cdn_levels[l].fetch_races;
  }
  Put(&m, "cdn.origin_fetches_per_req",
      Ratio(static_cast<double>(r.origin_fleet_fetches), reqs), nreq);
  Put(&m, "cdn.backhaul_kb_per_req", Ratio(static_cast<double>(r.backhaul_bytes) / 1024.0, reqs),
      nreq);
  Put(&m, "cdn.invalidations_per_write",
      Ratio(static_cast<double>(invalidations), static_cast<double>(r.cdn_writes)),
      r.cdn_writes);
  Put(&m, "cdn.fetch_races", static_cast<double>(races), 1);
  Put(&m, "cdn.stale_p99_ms", r.staleness.p99_ms, r.staleness.count);
  return;
}

// --- plane_procs ----------------------------------------------------------
// The shared-memory plane with fork()ed proxy and origin workers, small
// documents and every response verified. Worker processes plus the client
// never exceed the host's cores.
void RunPlaneProcs(uint64_t seed, bool tiny, Tracer* tracer, RepResult* out) {
  ioldrv::ProcessTierConfig cfg;
  cfg.mode = iolipc::PlaneMode::kProcesses;
  cfg.region_name.clear();  // Anonymous fork-shared mapping: no shm files.
  cfg.requests = tiny ? 2000 : 12000;
  cfg.inflight = 8;
  // The plane's request stream is fixed inside the tier; the seed picks the
  // size of the document population it indexes into. Documents keep one
  // size because verification cost is linear in response bytes.
  cfg.docs.doc_count = 24 + static_cast<int>(SubSeed(seed, 1) % 17);
  cfg.docs.doc_bytes = 2048;
  cfg.cgi_every = 0;
  cfg.cgi_workers = 0;
  cfg.origin_workers = 1;
  cfg.proxy_workers = 1;
  cfg.verify = true;
  out->sizes = {{"requests", cfg.requests},
               {"inflight", cfg.inflight},
               {"docs", cfg.docs.doc_count},
               {"doc_bytes", static_cast<double>(cfg.docs.doc_bytes)},
               {"proxy_workers", cfg.proxy_workers},
               {"origin_workers", cfg.origin_workers}};

  int64_t t0 = HostNowNs();
  ioldrv::ProcessTierResult r = ioldrv::RunProcessTier(cfg);
  int64_t total_ns = HostNowNs() - t0;
  if (tracer != nullptr) {
    tracer->AddPhase("plane_procs.RunProcessTier", t0, total_ns);
  }
  out->run_s = r.wall_ms / 1e3;
  // Region build, reference system, fork, quiesce and join: everything the
  // call does outside its measured request loop.
  out->setup_s = static_cast<double>(total_ns) / 1e9 - out->run_s;
  out->requests = r.requests;
  out->attempted = static_cast<uint64_t>(cfg.requests);
  out->failed = out->attempted - std::min(out->attempted, r.requests);
  out->digest = r.response_checksum;
  AddCheck(out, "plane_ok", r.ok, "abnormal exits=" + std::to_string(r.abnormal_worker_exits));
  AddCheck(out, "plane_byte_identical", r.byte_identical, "");
  AddCheck(out, "plane_no_leaked_pins", r.leaked_pins == 0,
           "leaked=" + std::to_string(r.leaked_pins));
  AddCheck(out, "plane_zero_copy", r.bytes_copied_cross_process == 0,
           "copied=" + std::to_string(r.bytes_copied_cross_process));
  AddCheck(out, "plane_responses", r.requests > 0, "responses=" + std::to_string(r.requests));
  if (tracer != nullptr) {
    Metrics& m = out->layers;
    double lookups = static_cast<double>(r.cache_hits + r.cache_misses);
    Put(&m, "ipc.hit_ratio", Ratio(static_cast<double>(r.cache_hits), lookups),
        r.cache_hits + r.cache_misses);
    Put(&m, "ipc.origin_fills_per_req",
        Ratio(static_cast<double>(r.origin_fills), static_cast<double>(r.requests)), r.requests);
    Put(&m, "ipc.future_errors", static_cast<double>(r.future_errors), 1);
    Put(&m, "ipc.bytes_copied_cross_process", static_cast<double>(r.bytes_copied_cross_process),
        1);
  }
  return;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"static_hot", "trace_disk", "cdn_write",
                                                 "plane_procs"};
  return names;
}

RepResult RunRep(const std::string& workload, uint64_t seed, bool tiny, Tracer* tracer) {
  RepResult out;
  out.sim = DeclaredSimMetrics();
  out.layers = DeclaredLayerMetrics();
  if (workload == "static_hot") {
    RunStaticHot(seed, tiny, tracer, &out);
  } else if (workload == "trace_disk") {
    RunTraceDisk(seed, tiny, tracer, &out);
  } else if (workload == "cdn_write") {
    RunCdnWrite(seed, tiny, tracer, &out);
  } else {
    RunPlaneProcs(seed, tiny, tracer, &out);
  }
  return out;
}

}  // namespace perfbench
