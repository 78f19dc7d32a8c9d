// The benchmark's four workloads. Each rep builds everything it measures
// from the seed (documents, trace, edge mixes, write plan, plane request
// mix), runs the layer once, and reports host timings, simulated results
// and — when a Tracer is given — per-layer metrics.

#ifndef PERFBENCH_CC_WORKLOADS_H_
#define PERFBENCH_CC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/cc/probes.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // Observations the value summarizes.
};

using Metrics = std::map<std::string, Metric>;

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RepResult {
  double setup_s = 0;  // Host seconds building inputs and machines.
  double run_s = 0;    // Host seconds inside the measured call.
  double calibration_s = 0;  // Host calibration kernel time just before.
  // Requests completed in the measured window: counted simulated requests,
  // or verified plane responses.
  uint64_t requests = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Fold of the simulated record stream and final clock (simulated
  // workloads) or of the response bytes (plane). Equal for equal inputs.
  uint64_t digest = 0;
  uint64_t events = 0;  // Events the simulator dispatched during the run.
  Metrics sim;          // Simulated end-to-end metrics (deterministic).
  Metrics layers;       // Per-layer metrics (traced reps only).
  std::vector<Check> checks;
  std::map<std::string, double> sizes;  // Workload sizes, for the manifest.
  std::string sim_spans_json;           // Traced reps: per-request spans.
};

// Names of the workloads, in the order the doc lists them.
const std::vector<std::string>& WorkloadNames();

// One rep of `workload`. `tiny` shrinks every size for the self-tests;
// `tracer` (nullable) attaches the probes.
RepResult RunRep(const std::string& workload, uint64_t seed, bool tiny, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_CC_WORKLOADS_H_
