// edsr_e2e: the end-to-end benchmark driver. Runs one seeded workload
// through the edsr library's public API, checks its outputs, and writes one
// JSON report for run.py to turn into the benchmark's result line.
//
//   edsr_e2e --workload <edsr_seq|stream_dirty|learn_serve> --seed <n>
//            --seconds <s> --trace <0|1> --work_dir <dir> --out <report.json>
//
// With --trace 0 the report carries the end-to-end metrics. With --trace 1
// the workload runs half its time untraced and half with obs::Tracer span
// and event recording on; the report then carries the tracing overhead, the
// metrics-registry snapshot of the traced half and the Chrome trace written
// to <work_dir>/trace.json. No end-to-end number comes from a traced run.
// The exit code is 0 whenever a report was written; run.py fails the
// command when a check in it failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "e2ebench/common.h"
#include "src/obs/trace.h"
#include "src/tensor/simd.h"
#include "src/util/threadpool.h"

namespace {

bool ParseFlag(int argc, char** argv, int* i, const char* name,
               std::string* out) {
  if (std::strcmp(argv[*i], name) != 0 || *i + 1 >= argc) return false;
  *out = argv[++*i];
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "edsr_e2e: %s\nusage: edsr_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work_dir <dir> --out <file>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edsr;
  e2e::Options opt;
  std::string seed_flag, seconds_flag, trace_flag, out_path;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argc, argv, &i, "--workload", &opt.workload) ||
        ParseFlag(argc, argv, &i, "--seed", &seed_flag) ||
        ParseFlag(argc, argv, &i, "--seconds", &seconds_flag) ||
        ParseFlag(argc, argv, &i, "--trace", &trace_flag) ||
        ParseFlag(argc, argv, &i, "--work_dir", &opt.work_dir) ||
        ParseFlag(argc, argv, &i, "--out", &out_path)) {
      continue;
    }
    return Usage((std::string("unknown argument ") + argv[i]).c_str());
  }
  if (opt.workload.empty() || seed_flag.empty() || seconds_flag.empty() ||
      opt.work_dir.empty() || out_path.empty()) {
    return Usage("missing a required flag");
  }
  opt.seed = std::strtoull(seed_flag.c_str(), nullptr, 10);
  opt.seconds = std::strtod(seconds_flag.c_str(), nullptr);
  opt.trace = trace_flag == "1";
  if (!(opt.seconds > 0.0)) return Usage("--seconds must be positive");

  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) return Usage(("cannot create --work_dir: " + ec.message()).c_str());
  if (opt.trace) obs::Tracer::SetEventRecording(true);

  e2e::Report report;
  if (opt.workload == "edsr_seq") {
    report = e2e::RunEdsrSeq(opt);
  } else if (opt.workload == "stream_dirty") {
    report = e2e::RunStreamDirty(opt);
  } else if (opt.workload == "learn_serve") {
    report = e2e::RunLearnServe(opt);
  } else {
    return Usage(("unknown workload " + opt.workload).c_str());
  }

  obs::Json out = obs::Json::Object();
  out.Set("workload", opt.workload);
  out.Set("seed", static_cast<int64_t>(opt.seed));
  out.Set("trace", opt.trace);
  obs::Json host = obs::Json::Object();
  host.Set("simd", tensor::simd::TierName(tensor::simd::ActiveTier()));
  host.Set("threads", util::ThreadPool::Global().NumThreads());
  out.Set("host", std::move(host));
  out.Set("correct", report.correct);
  out.Set("attempted", report.attempted);
  out.Set("failed", report.failed);
  out.Set("checks", std::move(report.checks));
  out.Set("e2e", std::move(report.e2e));
  out.Set("layer", std::move(report.layer));
  out.Set("info", std::move(report.info));
  if (opt.trace) {
    obs::Tracer::SetEnabled(false);
    const std::string trace_path = opt.work_dir + "/trace.json";
    util::Status written = obs::Tracer::WriteChromeTrace(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "edsr_e2e: %s\n", written.ToString().c_str());
      return 1;
    }
    out.Set("trace_file", trace_path);
    out.Set("dropped_events", obs::Tracer::dropped_events());
    out.Set("traced_units", report.traced_units);
    out.Set("registry", std::move(report.registry));
  }

  std::ofstream file(out_path, std::ios::trunc);
  file << out.Dump() << "\n";
  file.close();
  if (!file) {
    std::fprintf(stderr, "edsr_e2e: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
