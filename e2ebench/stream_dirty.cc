// Workload stream_dirty: task-free EDSR over a dirty stream through
// stream::RunStream —
//   stream  SynthCifar10|imbalance:alpha=1.5|label_noise:p=0.2|corrupt
//   trigger drift:threshold=0.02,min=48,max=96, micro-batch 16
//   an ID probe (clean held-out split) and an OOD probe (SynthTinyImageNet)
//   after every cycle, and a cycle-boundary checkpoint.
// Here the train step is a minority of the work: per-cycle consolidation,
// kNN probes and checkpoints dominate, so eval/io/stream changes show here
// and a train-step gain shows only diluted.
//
// One repetition = set-up (both presets generated, strategy and trigger
// built) and one RunStream over kSamples samples. The timed repetitions are
// whole passes over kQualitySeeds sub-seeds of --seed, as many passes as
// fill --seconds at kNominalRepS per repetition (one pass at the
// benchmark's 12 s), with host-speed probes between them:
//   setup_s / run_s — medians of the repetitions' times, each rescaled to the
//   reference host speed (common.h);
//   final_acc — mean over the sub-seeds of the last cycle's ID probe.
// Every repetition must reproduce the per-cycle results (window, cause,
// drift, loss, probes) of the first run of its sub-seed exactly; the
// untimed warm-up is the first run of sub-seed 0.
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "e2ebench/common.h"
#include "src/cl/factory.h"
#include "src/core/edsr.h"
#include "src/data/synthetic.h"
#include "src/obs/trace.h"
#include "src/stream/driver.h"
#include "src/stream/source.h"
#include "src/stream/trigger.h"

namespace e2e {
namespace {

using namespace edsr;

constexpr char kStreamSpec[] =
    "SynthCifar10|imbalance:alpha=1.5|label_noise:p=0.2|corrupt";
constexpr char kTriggerSpec[] = "drift:threshold=0.02,min=48,max=96";
constexpr char kOodPreset[] = "SynthTinyImageNet";
constexpr int64_t kMicroBatch = 16;
constexpr int64_t kSamples = 4096;
constexpr int kQualitySeeds = 6;
// Seconds of one repetition on a fast host; sizes the passes.
constexpr double kNominalRepS = 2.0;

uint64_t SubSeed(uint64_t seed, int k) { return seed * 1000 + k; }

struct Rep {
  stream::StreamRunResult result;
  double setup_s = 0.0;
  double run_s = 0.0;
  int64_t checkpoint_bytes = 0;
};

// The stream_continual configuration.
cl::StrategyContext Context(int64_t dim, uint64_t seed) {
  cl::StrategyContext context;
  context.encoder.mlp_dims = {dim, 64, 64};
  context.encoder.projector_hidden = 64;
  context.encoder.representation_dim = 32;
  context.batch_size = kMicroBatch;
  context.lr = 0.05f;
  context.weight_decay = 0.03f;
  context.memory_per_task = 8;
  context.replay_batch_size = 8;
  context.seed = seed;
  return context;
}

Rep RunRep(uint64_t seed, const std::string& checkpoint_dir, Report* report) {
  Rep rep;
  Clock::time_point setup_start = Clock::now();
  stream::StreamBundle bundle;
  data::Task ood_task;
  {
    EDSR_TRACE_SPAN("data.generate");
    bundle = stream::MakeStreamBundle(kStreamSpec, seed).ValueOrDie();
    data::SyntheticImagePair ood = data::MakeSyntheticImageData(
        *data::ImagePresetConfig(kOodPreset, seed));
    ood_task.train = std::move(ood.train);
    ood_task.test = std::move(ood.test);
  }
  data::Task id_task;
  id_task.train = bundle.id_train;
  id_task.test = bundle.id_test;
  std::unique_ptr<stream::CycleTrigger> trigger =
      stream::TriggerRegistry::Global().Create(kTriggerSpec).ValueOrDie();
  std::unique_ptr<cl::ContinualStrategy> strategy =
      cl::MakeStrategy("edsr", Context(id_task.train.dim(), seed));

  stream::StreamRunOptions options;
  options.micro_batch = kMicroBatch;
  options.total_samples = kSamples;
  options.id_probe = &id_task;
  options.ood_probe = &ood_task;
  // EDSR's replay buffer anchors the drift trigger.
  options.memory = &dynamic_cast<const core::Edsr&>(*strategy).memory();
  options.stream_spec = kStreamSpec;
  options.trigger_spec = kTriggerSpec;
  options.checkpoint_directory = checkpoint_dir;
  rep.setup_s = SecondsSince(setup_start);

  Clock::time_point run_start = Clock::now();
  util::Result<stream::StreamRunResult> run = util::Status::Internal("unset");
  {
    EDSR_TRACE_SPAN("stream.run");
    run = stream::RunStream(strategy.get(), bundle.source.get(), trigger.get(),
                            options);
  }
  rep.run_s = SecondsSince(run_start);
  if (!run.ok()) {
    report->Check(false, "run_stream", run.status().ToString());
    return rep;
  }
  rep.result = std::move(run).ValueOrDie();
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(
      checkpoint_dir + "/" + options.checkpoint_filename, ec);
  rep.checkpoint_bytes = ec ? 0 : static_cast<int64_t>(bytes);
  std::filesystem::remove_all(checkpoint_dir, ec);
  return rep;
}

// Checks one repetition; returns the number of bad cycles (every cycle
// counts as bad when the run as a whole is inconsistent).
int64_t CheckRep(const Rep& rep, const std::string& label, Report* report) {
  const auto& cycles = rep.result.cycles;
  int64_t bad = 0;
  int64_t window_sum = 0;
  for (const stream::StreamCycleResult& c : cycles) {
    window_sum += c.samples;
    bool ok = std::isfinite(c.loss) && InUnitRange(c.id_accuracy) &&
              InUnitRange(c.ood_accuracy) && c.total_samples == window_sum;
    report->Check(ok, "cycle_outputs",
                  label + ": cycle " + std::to_string(c.cycle) +
                      " has a non-finite loss, an accuracy outside [0,1] or "
                      "a bad running sample total");
    if (!ok) ++bad;
  }
  bool whole = rep.result.finished && !cycles.empty() &&
               window_sum == rep.result.total_samples &&
               rep.result.total_samples == kSamples && rep.checkpoint_bytes > 0;
  report->Check(whole, "stream_windows",
                label + ": cycle windows sum to " + std::to_string(window_sum) +
                    ", consumed " + std::to_string(rep.result.total_samples) +
                    ", expected " + std::to_string(kSamples) +
                    " and a checkpoint");
  return whole ? bad
               : std::max<int64_t>(1, static_cast<int64_t>(cycles.size()));
}

// Whether two runs of one sub-seed produced the same cycles. Wall-clock
// fields are excluded.
bool SameCycles(const stream::StreamRunResult& a,
                const stream::StreamRunResult& b) {
  if (a.cycles.size() != b.cycles.size() ||
      a.total_samples != b.total_samples) {
    return false;
  }
  for (size_t i = 0; i < a.cycles.size(); ++i) {
    const stream::StreamCycleResult& x = a.cycles[i];
    const stream::StreamCycleResult& y = b.cycles[i];
    if (x.cause != y.cause || x.samples != y.samples ||
        x.micro_batches != y.micro_batches ||
        x.total_samples != y.total_samples || x.loss != y.loss ||
        x.drift != y.drift || x.buffer_size != y.buffer_size ||
        x.id_accuracy != y.id_accuracy || x.ood_accuracy != y.ood_accuracy) {
      return false;
    }
  }
  return true;
}

}  // namespace

Report RunStreamDirty(const Options& opt) {
  Report report;
  int rep_index = 0;
  // Raw and rescaled (common.h) times of the timed repetitions.
  std::vector<double> setup_s, run_s, scaled_setup_s, scaled_run_s;
  std::vector<Rep> reps;
  // The first run of each sub-seed, the reference for later repetitions.
  std::vector<stream::StreamRunResult> first(kQualitySeeds);
  std::vector<bool> seen(kQualitySeeds, false);

  // Warm-up: one untimed repetition fills caches and finishes lazy set-up.
  Rep warmup =
      RunRep(SubSeed(opt.seed, 0), opt.work_dir + "/stream-warmup", &report);
  CheckRep(warmup, "warm-up", &report);
  first[0] = std::move(warmup.result);
  seen[0] = true;

  HostSpeed speed;
  speed.Probe();
  auto timed_rep = [&](int sub_seed) {
    const std::string dir =
        opt.work_dir + "/stream-ckpt-" + std::to_string(rep_index);
    Rep rep = RunRep(SubSeed(opt.seed, sub_seed), dir, &report);
    speed.Probe();
    const std::string label = "rep " + std::to_string(rep_index);
    const int64_t units =
        std::max<int64_t>(1, static_cast<int64_t>(rep.result.cycles.size()));
    report.attempted += units;
    int64_t bad = CheckRep(rep, label, &report);
    if (!seen[sub_seed]) {
      first[sub_seed] = rep.result;
      seen[sub_seed] = true;
    } else {
      const bool same = SameCycles(rep.result, first[sub_seed]);
      report.Check(same, "deterministic",
                   label + " differs from the first run of its sub-seed");
      if (!same) bad = units;
    }
    report.failed += bad;
    ++rep_index;
    setup_s.push_back(rep.setup_s);
    run_s.push_back(rep.run_s);
    scaled_setup_s.push_back(rep.setup_s * speed.Factor());
    scaled_run_s.push_back(rep.run_s * speed.Factor());
    reps.push_back(std::move(rep));
  };

  if (!opt.trace) {
    const int total =
        kQualitySeeds * Passes(opt.seconds, kQualitySeeds * kNominalRepS);
    for (int rep = 0; rep < total; ++rep) timed_rep(rep % kQualitySeeds);
    std::vector<double> acc;
    for (int k = 0; k < kQualitySeeds; ++k) {
      const auto& cycles = reps[k].result.cycles;
      acc.push_back(cycles.empty() ? 0.0 : cycles.back().id_accuracy);
    }
    report.E2e("setup_s", Median(scaled_setup_s), "s");
    report.E2e("run_s", Median(scaled_run_s), "s");
    report.E2e("final_acc", Mean(acc), "ratio");
    report.Info("raw_run_s", run_s);
    report.Info("raw_setup_s", setup_s);
    report.Info("probe_s", speed.probe_s());
    report.Info("final_acc", acc);
    return report;
  }

  // Traced run, sub-seed 0 only.
  RunTracedHalves(
      Passes(opt.seconds / 2.0, kNominalRepS),
      [&] {
        timed_rep(0);
        return scaled_run_s.back();
      },
      &report);

  // Per-repetition counts from the RunStream results of the traced half.
  std::vector<double> cycles, drift_fires, bytes;
  const size_t first_traced =
      reps.size() - static_cast<size_t>(report.traced_units);
  for (size_t i = first_traced; i < reps.size(); ++i) {
    const auto& result = reps[i].result;
    cycles.push_back(static_cast<double>(result.cycles.size()));
    double fires = 0;
    for (const auto& c : result.cycles) fires += c.cause == "drift" ? 1 : 0;
    drift_fires.push_back(fires);
    bytes.push_back(static_cast<double>(reps[i].checkpoint_bytes));
  }
  report.Layer("stream.cycles", Mean(cycles), "count");
  report.Layer("stream.drift_fires", Mean(drift_fires), "count");
  report.Layer("io.checkpoint_bytes", Mean(bytes), "bytes");
  return report;
}

}  // namespace e2e
