// perfbench: runs one workload for a host-time budget and prints one JSON
// document (manifest, checks, end-to-end and per-layer metrics) on stdout.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-out <path>]
//
// A run repeats set-up + measured call ("reps") until the budget is spent.
// Every rep of a seed builds identical inputs, so its simulated results and
// digest must match every other rep's; host metrics are medians over reps.
// With --trace 1, untraced and traced reps alternate: per-layer metrics come
// from the traced reps, and the tracing overhead is the ratio of the two.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/cc/probes.h"
#include "perfbench/cc/workloads.h"

namespace perfbench {
namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--trace-out <path>]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + a).c_str());
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      std::string v = value();
      if (v != "0" && v != "1") {
        Usage("--trace takes 0 or 1");
      }
      o.trace = v == "1";
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    Usage("unknown --workload");
  }
  if (!have_seed || !(o.seconds > 0)) {
    Usage("--seed and a positive --seconds are required");
  }
  return o;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c >= 0x20 ? c : ' ';
  }
  return out;
}

void EmitMetrics(std::FILE* f, const Metrics& m) {
  std::fputc('{', f);
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"samples\": %llu}",
                 first ? "" : ", ", Escape(name).c_str(), metric.value,
                 Escape(metric.unit).c_str(), static_cast<unsigned long long>(metric.samples));
    first = false;
  }
  std::fputc('}', f);
}

// Host speed calibration. A host shared with other tenants runs tens of
// percent faster or slower from one minute to the next, and every host-time
// metric moves with it. A fixed kernel that shares no code with the
// simulator (sort a seeded 1 MiB array, then fill and probe a hash map) is
// timed just before every rep. Each rep's host-time figures are scaled by
// that rep's kernel time over kCalibrationRefS (the kernel's time on the
// quiet 4-vCPU Xeon host the benchmark was defined on) before taking
// medians; the raw medians are reported beside them. A code change moves a
// scaled metric exactly as much as the raw one, because the kernel never
// runs simulator code.
constexpr double kCalibrationRefS = 0.015;
volatile uint64_t calibration_sink = 0;  // Keeps the kernel from being elided.

// One pass of the kernel over preallocated storage, so the timing carries
// no page faults or allocator work.
double CalibrationPassS(std::vector<uint64_t>* v, std::unordered_map<uint64_t, uint64_t>* m) {
  int64_t t0 = HostNowNs();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t& e : *v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = x;
  }
  std::sort(v->begin(), v->end());
  m->clear();
  for (size_t i = 0; i < v->size(); i += 2) {
    (*m)[(*v)[i] >> 24] += i;
  }
  uint64_t sum = 0;
  for (size_t i = 1; i < v->size(); i += 2) {
    auto it = m->find((*v)[i] >> 24);
    sum += it != m->end() ? it->second : 1;
  }
  calibration_sink = sum;
  return static_cast<double>(HostNowNs() - t0) / 1e9;
}

// Median of three passes: one pass hit by an interruption does not count.
double CalibrationS() {
  static std::vector<uint64_t> v(1 << 17);
  static std::unordered_map<uint64_t, uint64_t> m(1 << 16);
  double t[3];
  for (double& ti : t) {
    ti = CalibrationPassS(&v, &m);
  }
  std::sort(t, t + 3);
  return t[1];
}

double PeakRssMb() {
  struct rusage self {};
  struct rusage kids {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  long kb = std::max(self.ru_maxrss, kids.ru_maxrss);  // Linux reports KiB.
  return static_cast<double>(kb) / 1024.0;
}

int Main(int argc, char** argv) {
  Options opt = Parse(argc, argv);
  if (!kOptimized) {
    std::fprintf(stderr, "perfbench: refusing to report from an unoptimised build\n");
    return 3;
  }

  // Reps run until the next one would overrun the budget; at least three
  // untraced reps (plus two traced ones with --trace 1) always run.
  const size_t min_untraced = opt.trace ? 2 : 3;
  const size_t min_traced = opt.trace ? 2 : 0;
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  Tracer tracer;
  CalibrationS();  // Untimed: first-touch page faults.
  int64_t start = HostNowNs();
  double longest_rep_s = 0;
  for (;;) {
    double elapsed = static_cast<double>(HostNowNs() - start) / 1e9;
    bool need_more = untraced.size() < min_untraced || traced.size() < min_traced;
    if (!need_more && elapsed + longest_rep_s > opt.seconds) {
      break;
    }
    bool run_traced = opt.trace && traced.size() < untraced.size();
    double calibration_s = CalibrationS();
    int64_t t0 = HostNowNs();
    RepResult rep = RunRep(opt.workload, opt.seed, opt.tiny, run_traced ? &tracer : nullptr);
    rep.calibration_s = calibration_s;
    longest_rep_s = std::max(longest_rep_s, static_cast<double>(HostNowNs() - t0) / 1e9);
    if (!traced.empty()) {
      rep.sim_spans_json.clear();  // The trace file shows the first traced rep.
    }
    (run_traced ? traced : untraced).push_back(std::move(rep));
  }
  double measured_s = static_cast<double>(HostNowNs() - start) / 1e9;
  const RepResult& first = untraced.front();

  // --- Output checks ------------------------------------------------------
  std::vector<Check> checks;
  std::vector<const RepResult*> all;
  for (const RepResult& r : untraced) {
    all.push_back(&r);
  }
  for (const RepResult& r : traced) {
    all.push_back(&r);
  }
  for (const Check& c : first.checks) {
    Check agg{c.name, true, c.detail};
    for (const RepResult* r : all) {
      for (const Check& rc : r->checks) {
        if (rc.name == c.name && !rc.ok) {
          agg.ok = false;
          agg.detail = rc.detail;
        }
      }
    }
    checks.push_back(agg);
  }
  // Equal inputs must give equal digests. Plane responses lost to errors
  // change the response fold, so the plane compares error-free reps only
  // (errors are counted as failures instead).
  bool plane = opt.workload == "plane_procs";
  auto comparable = [plane](const RepResult& r) { return !plane || r.failed == 0; };
  bool untraced_same = true;
  for (const RepResult& r : untraced) {
    if (comparable(r) && comparable(first) && r.digest != first.digest) {
      untraced_same = false;
    }
  }
  checks.push_back(Check{"digest_equal_across_reps", untraced_same, ""});
  if (opt.trace) {
    bool traced_same = true;
    for (const RepResult& r : traced) {
      if (comparable(r) && comparable(first) && r.digest != first.digest) {
        traced_same = false;
      }
    }
    checks.push_back(Check{"traced_digest_equals_untraced", traced_same, ""});
  }
  bool correct = kOptimized;
  for (const Check& c : checks) {
    correct = correct && c.ok;
  }

  // --- Metrics ------------------------------------------------------------
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const RepResult* r : all) {
    attempted += r->attempted;
    failed += r->failed;
  }
  std::vector<double> calibration;
  for (const RepResult* r : all) {
    calibration.push_back(r->calibration_s);
  }
  std::vector<double> rate;
  std::vector<double> setup;
  std::vector<double> events_rate;
  std::vector<double> raw_rate;
  std::vector<double> raw_setup;
  for (const RepResult& r : untraced) {
    double slowdown = r.calibration_s / kCalibrationRefS;  // > 1: host slower.
    raw_rate.push_back(static_cast<double>(r.requests) / r.run_s);
    raw_setup.push_back(r.setup_s);
    rate.push_back(raw_rate.back() * slowdown);
    setup.push_back(r.setup_s / slowdown);
    events_rate.push_back(static_cast<double>(r.events) / r.run_s * slowdown);
  }
  double slowdown = Median(calibration) / kCalibrationRefS;
  Metrics e2e;
  e2e["req_per_s"] = Metric{Median(rate), "1/s", untraced.size()};
  e2e["setup_s"] = Metric{Median(setup), "s", untraced.size()};
  e2e["req_per_s_raw"] = Metric{Median(raw_rate), "1/s", untraced.size()};
  e2e["setup_s_raw"] = Metric{Median(raw_setup), "s", untraced.size()};
  e2e["host_slowdown"] = Metric{slowdown, "x", calibration.size()};
  e2e["peak_rss_mb"] = Metric{PeakRssMb(), "MB", 1};
  e2e["failed_share"] = Metric{attempted > 0 ? static_cast<double>(failed) / attempted : 0,
                               "share", attempted};
  if (!plane) {
    for (const auto& [name, metric] : first.sim) {
      e2e[name] = metric;
    }
  }

  Metrics layers;
  if (opt.trace) {
    for (const auto& [name, metric] : traced.front().layers) {
      std::vector<double> values;
      for (const RepResult& r : traced) {
        values.push_back(r.layers.at(name).value);
      }
      // Host nanoseconds are scaled by the run's median slowdown.
      double scale = metric.unit == "ns" ? 1.0 / slowdown : 1.0;
      layers[name] = Metric{Median(values) * scale, metric.unit, metric.samples};
    }
    if (!plane) {
      layers["simos.events_per_s"] = Metric{Median(events_rate), "1/s", untraced.size()};
    }
    std::vector<double> traced_run;
    std::vector<double> plain_run;
    for (const RepResult& r : traced) {
      traced_run.push_back(r.run_s);
    }
    for (const RepResult& r : untraced) {
      plain_run.push_back(r.run_s);
    }
    layers["trace.overhead_share"] =
        Metric{Median(traced_run) / Median(plain_run) - 1.0, "share", traced.size()};
    if (!opt.trace_out.empty() &&
        !tracer.WriteChromeTrace(opt.trace_out, traced.front().sim_spans_json)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
      correct = false;
    }
  }

  // --- Report -------------------------------------------------------------
  std::FILE* f = stdout;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s, ",
               Escape(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
               correct ? "true" : "false");
  std::fprintf(f, "\"attempted\": %llu, \"failed\": %llu, ",
               static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  std::fprintf(f,
               "\"manifest\": {\"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
               "\"compiler\": \"%s\", \"optimized\": %s, \"asserts\": %s, \"nproc\": %ld, "
               "\"tiny\": %s, \"untraced_reps\": %zu, \"traced_reps\": %zu, "
               "\"measured_s\": %.6f, \"sizes\": {",
               PERFBENCH_BUILD_TYPE, Escape(PERFBENCH_CXX_FLAGS).c_str(),
               Escape(PERFBENCH_COMPILER).c_str(), kOptimized ? "true" : "false",
               kAssertsOn ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN),
               opt.tiny ? "true" : "false", untraced.size(), traced.size(), measured_s);
  bool first_size = true;
  for (const auto& [name, value] : first.sizes) {
    std::fprintf(f, "%s\"%s\": %.17g", first_size ? "" : ", ", Escape(name).c_str(), value);
    first_size = false;
  }
  std::fprintf(f, "}}, \"reps\": [");
  for (size_t i = 0; i < all.size(); ++i) {
    std::fprintf(f,
                 "%s{\"traced\": %s, \"calibration_s\": %.9g, \"setup_s\": %.9g, "
                 "\"run_s\": %.9g, \"requests\": %llu}",
                 i == 0 ? "" : ", ", i >= untraced.size() ? "true" : "false",
                 all[i]->calibration_s, all[i]->setup_s, all[i]->run_s,
                 static_cast<unsigned long long>(all[i]->requests));
  }
  std::fprintf(f, "], \"checks\": [");
  for (size_t i = 0; i < checks.size(); ++i) {
    std::fprintf(f, "%s{\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}", i == 0 ? "" : ", ",
                 Escape(checks[i].name).c_str(), checks[i].ok ? "true" : "false",
                 Escape(checks[i].detail).c_str());
  }
  std::fprintf(f, "], \"end_to_end\": ");
  EmitMetrics(f, e2e);
  std::fprintf(f, ", \"per_layer\": ");
  EmitMetrics(f, layers);
  std::fprintf(f, "}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
