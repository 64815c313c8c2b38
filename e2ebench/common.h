// Shared plumbing of the end-to-end benchmark driver (edsr_e2e): the run
// options, the report every workload fills, and small statistics helpers.
//
// A workload reports three kinds of numbers:
//   e2e    — what a user of the system sees (wall time of the fixed work,
//            accuracy, request latency); measured only with tracing off;
//   layer  — per-layer values the workload measures itself (counts from
//            results, checkpoint sizes, load-generator lateness, tracing
//            overhead); run.py adds the span- and registry-derived ones;
//   checks — output checks; any failed check fails the command;
//   info   — run details printed next to the result: sample counts, the
//            samples a median was taken over, figures too unsteady to gate.
#ifndef EDSR_E2EBENCH_COMMON_H_
#define EDSR_E2EBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory inside the checkout (checkpoints, journals, logs).
  std::string work_dir;
};

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  edsr::obs::Json checks = edsr::obs::Json::Array();
  edsr::obs::Json e2e = edsr::obs::Json::Object();
  edsr::obs::Json layer = edsr::obs::Json::Object();
  edsr::obs::Json info = edsr::obs::Json::Object();
  // Traced runs: MetricsRegistry::ToJson() taken at the end of the traced
  // half, before any post-run evaluation touches the registry.
  edsr::obs::Json registry = edsr::obs::Json::Object();
  // Traced runs: how many timed units (repetitions) ran with tracing on, so
  // per-run counts can be normalized.
  int64_t traced_units = 0;
  bool correct = true;

  // Records one output check; a false `ok` makes the whole run incorrect.
  void Check(bool ok, const std::string& name, const std::string& detail) {
    if (ok) return;
    correct = false;
    edsr::obs::Json entry = edsr::obs::Json::Object();
    entry.Set("check", name);
    entry.Set("detail", detail);
    checks.Push(std::move(entry));
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e.Set(name, Metric(value, unit));
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer.Set(name, Metric(value, unit));
  }
  void Info(const std::string& name, double value) { info.Set(name, value); }
  void Info(const std::string& name, const std::vector<double>& values) {
    edsr::obs::Json list = edsr::obs::Json::Array();
    for (double v : values) list.Push(edsr::obs::Json::Number(v));
    info.Set(name, std::move(list));
  }

 private:
  static edsr::obs::Json Metric(double value, const std::string& unit) {
    edsr::obs::Json metric = edsr::obs::Json::Object();
    metric.Set("value", value);
    metric.Set("unit", unit);
    return metric;
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 when
// empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

inline bool InUnitRange(double v) {
  return std::isfinite(v) && v >= 0.0 && v <= 1.0;
}

// Host-speed normalization. The benchmark runs on shared hosts whose speed
// changes by up to ~1.8x for minutes at a time with almost no steal time
// reported; the change reaches CPU time as much as wall time and shows in
// cache and memory throughput. A probe times a fixed piece of work that
// does not use the library: passes over an 8 MiB buffer, more than a core's
// L2, so they stream through the shared cache. Each probe keeps the fastest
// of five timings, which drops the timings a preemption spoils. Workloads
// probe before their first timed repetition and after every one, rescale
// each repetition's times by kProbeReferenceS over the mean of the probes
// on either side of it, and report the median of the rescaled times:
// seconds on a host whose probe takes kProbeReferenceS. On a shared 4-vCPU
// host this lowered the spread of edsr_seq run_s over ten seeds from
// 0.18-0.21 to 0.05-0.08 of the median, and kept the medians of two
// ten-seed batches within 1% where the raw ones moved 8%. The
// raw times and the probes are printed as run information, and run.py
// prints the median probe with the host context.
constexpr double kProbeReferenceS = 0.004;

class HostSpeed {
 public:
  void Probe() {
    double fastest = ProbeOnce();
    for (int trial = 1; trial < 5; ++trial) {
      fastest = std::min(fastest, ProbeOnce());
    }
    probe_s_.push_back(fastest);
  }
  // The factor that rescales the times measured between the last two
  // probes to the reference host speed.
  double Factor() const {
    const size_t n = probe_s_.size();
    return 2.0 * kProbeReferenceS / (probe_s_[n - 1] + probe_s_[n - 2]);
  }
  const std::vector<double>& probe_s() const { return probe_s_; }

 private:
  static double ProbeOnce() {
    constexpr size_t kFloats = size_t{8} << 18;  // 8 MiB
    static std::vector<float> buffer(kFloats, 1.0f);
    static volatile float sink = 0.0f;
    Clock::time_point start = Clock::now();
    for (int pass = 0; pass < 8; ++pass) {
      for (size_t i = 0; i < kFloats; ++i) buffer[i] = buffer[i] * 0.5f + 0.5f;
    }
    sink = sink + buffer[kFloats / 2];
    return SecondsSince(start);
  }

  std::vector<double> probe_s_;
};

// Repetitions of a repetition workload: the timed work is a fixed number of
// whole passes over its sub-seeds, sized once from --seconds and the nominal
// seconds of a pass, so every run with the same --seconds times the same
// work however fast the host runs.
inline int Passes(double seconds, double nominal_pass_s) {
  return std::max(1, static_cast<int>(std::lround(seconds / nominal_pass_s)));
}

// The traced run of a repetition workload. `rep` runs one repetition and
// returns its run seconds. `reps` repetitions run untraced, then
// `reps` with spans and events recorded; `report` gets the traced half's
// registry snapshot, wall time and repetition count and the tracing
// overhead: median traced run time over median untraced run time.
template <typename Rep>
void RunTracedHalves(int reps, Rep rep, Report* report) {
  std::vector<double> untraced, traced;
  for (int i = 0; i < reps; ++i) untraced.push_back(rep());
  edsr::obs::MetricsRegistry::Global().ResetCountersAndHistograms();
  edsr::obs::Tracer::Reset();
  edsr::obs::Tracer::SetEnabled(true);
  Clock::time_point start = Clock::now();
  for (int i = 0; i < reps; ++i) traced.push_back(rep());
  edsr::obs::Tracer::SetEnabled(false);
  report->Layer("trace.wall_s", SecondsSince(start), "s");
  report->registry = edsr::obs::MetricsRegistry::Global().ToJson();
  report->traced_units = static_cast<int64_t>(traced.size());
  report->Layer("trace.overhead", Median(traced) / Median(untraced), "ratio");
  report->Info("untraced_run_s", untraced);
  report->Info("traced_run_s", traced);
}

// The workloads. Each times a fixed amount of work sized from opt.seconds.
Report RunEdsrSeq(const Options& opt);
Report RunStreamDirty(const Options& opt);
Report RunLearnServe(const Options& opt);

}  // namespace e2e

#endif  // EDSR_E2EBENCH_COMMON_H_
