#include "src/daemon/daemon.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "src/cl/factory.h"
#include "src/data/synthetic.h"
#include "src/io/container.h"
#include "src/obs/flight.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/trace_context.h"
#include "src/stream/driver.h"
#include "src/util/logging.h"
#include "src/util/stopwatch.h"

namespace edsr::daemon {

namespace {

// Daemon-checkpoint sub-format inside the io:: container ("daemon/..."
// sections alongside the strategy's "strategy/..." sections, so
// serve::LoadSnapshotPayload can open the same file, as serve_embeddings
// and a serving process beside the daemon do).
constexpr uint32_t kDaemonCheckpointVersion = 1;

void WriteDaemonCycle(const DaemonCycleResult& cycle, io::BufferWriter* out) {
  out->WriteI64(cycle.cycle);
  out->WriteString(cycle.cause);
  out->WriteI64(cycle.samples);
  out->WriteI64(cycle.micro_batches);
  out->WriteI64(cycle.total_samples);
  out->WriteF64(cycle.loss);
  out->WriteF64(cycle.drift);
  out->WriteI64(cycle.buffer_size);
  out->WriteF64(cycle.buffer_entropy);
}

util::Status ReadDaemonCycle(io::BufferReader* in, DaemonCycleResult* cycle) {
  EDSR_RETURN_NOT_OK(in->ReadI64(&cycle->cycle));
  EDSR_RETURN_NOT_OK(in->ReadString(&cycle->cause));
  EDSR_RETURN_NOT_OK(in->ReadI64(&cycle->samples));
  EDSR_RETURN_NOT_OK(in->ReadI64(&cycle->micro_batches));
  EDSR_RETURN_NOT_OK(in->ReadI64(&cycle->total_samples));
  EDSR_RETURN_NOT_OK(in->ReadF64(&cycle->loss));
  EDSR_RETURN_NOT_OK(in->ReadF64(&cycle->drift));
  EDSR_RETURN_NOT_OK(in->ReadI64(&cycle->buffer_size));
  EDSR_RETURN_NOT_OK(in->ReadF64(&cycle->buffer_entropy));
  return util::Status::OK();
}

util::Status Mismatch(const std::string& path, const std::string& field,
                      const std::string& saved, const std::string& configured) {
  return util::Status::InvalidArgument(
      path + ": checkpoint " + field + " \"" + saved +
      "\" does not match configured \"" + configured + "\"");
}

}  // namespace

LearnServeDaemon::LearnServeDaemon(const DaemonOptions& options)
    : options_(options) {}

LearnServeDaemon::~LearnServeDaemon() { Stop(); }

std::string LearnServeDaemon::checkpoint_path() const {
  return options_.directory + "/daemon.ckpt";
}

std::string LearnServeDaemon::journal_path() const {
  return options_.directory + "/ingest.journal";
}

std::string LearnServeDaemon::metrics_path() const {
  return options_.metrics_filename.empty()
             ? std::string()
             : options_.directory + "/" + options_.metrics_filename;
}

int64_t LearnServeDaemon::cycles_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(history_.size());
}

int64_t LearnServeDaemon::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(pending_.size());
}

int64_t LearnServeDaemon::consumed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consumed_;
}

uint64_t LearnServeDaemon::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

std::vector<DaemonCycleResult> LearnServeDaemon::cycles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

util::Status LearnServeDaemon::Start() {
  if (started_) return util::Status::Internal("daemon already started");
  if (options_.directory.empty()) {
    return util::Status::InvalidArgument("daemon needs a state directory");
  }
  if (options_.micro_batch < 2) {
    return util::Status::InvalidArgument(
        "daemon micro_batch must be >= 2 (contrastive views need pairs)");
  }

  // The preset supplies the modality only: input dim, class count, image
  // geometry (what augmented views need). No data is generated from it.
  util::Result<data::SyntheticImageConfig> preset =
      data::ImagePresetConfig(options_.preset, options_.seed);
  if (!preset.ok()) return preset.status();
  geometry_ = (*preset).geometry;
  input_dim_ = geometry_.Pixels();
  num_classes_ = (*preset).num_classes;

  cl::StrategyContext context;
  context.encoder.mlp_dims = {input_dim_, 64, 64};
  context.encoder.projector_hidden = 64;
  context.encoder.representation_dim = 32;
  context.batch_size = options_.micro_batch;
  context.lr = 0.05f;
  context.weight_decay = 0.03f;
  context.memory_per_task = options_.memory_per_task;
  context.replay_batch_size = options_.replay_batch_size;
  context.seed = options_.seed;
  strategy_ = cl::MakeStrategy(options_.strategy, context);
  if (strategy_ == nullptr) {
    return util::Status::InvalidArgument("unknown strategy \"" +
                                         options_.strategy + "\"");
  }
  memory_ = strategy_->replay_memory();

  util::Result<std::unique_ptr<stream::CycleTrigger>> trigger =
      stream::TriggerRegistry::Global().Create(options_.trigger_spec);
  if (!trigger.ok()) return trigger.status();
  trigger_ = std::move(trigger).ValueOrDie();
  gate_ = std::make_unique<stream::TriggerGate>(trigger_.get());
  gate_->Reset(0, 0);

  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    return util::Status::IoError("cannot create daemon directory " +
                                 options_.directory + ": " + ec.message());
  }

  bool restored = false;
  EDSR_RETURN_NOT_OK(LoadCheckpoint(&restored));

  // Journal replay: the first `consumed_` records are already inside the
  // checkpointed strategy state; the rest re-enter the pending queue in
  // journal order — exactly the stream an uninterrupted run would consume.
  std::vector<JournalRecord> replayed;
  EDSR_RETURN_NOT_OK(
      journal_.Open(journal_path(), options_.fsync_journal, &replayed));
  if (static_cast<int64_t>(replayed.size()) < consumed_) {
    return util::Status::IoError(
        journal_path() + ": journal holds " +
        std::to_string(replayed.size()) + " records but the checkpoint " +
        "already consumed " + std::to_string(consumed_));
  }
  pending_.clear();
  for (size_t i = static_cast<size_t>(consumed_); i < replayed.size(); ++i) {
    pending_.push_back(std::move(replayed[i]));
  }
  next_seq_ = journal_.last_seq() + 1;
  {
    // Seed the gauges from the recovered state so a restarted daemon
    // reports its history before the first new ingest/cycle touches them.
    auto& metrics = obs::MetricsRegistry::Global();
    metrics.GetGauge("daemon.last_seq")
        ->Set(static_cast<double>(journal_.last_seq()));
    metrics.GetGauge("daemon.cycles")
        ->Set(static_cast<double>(history_.size()));
    metrics.GetGauge("daemon.consumed")->Set(static_cast<double>(consumed_));
    metrics.GetGauge("daemon.pending")
        ->Set(static_cast<double>(pending_.size()));
  }

  options_.serve.load.encoder = context.encoder;
  handle_ = std::make_unique<serve::ServeHandle>(options_.serve);

  RewriteMetricsFile();

  // Fresh starts pin the initial (untrained) state as the cycle-0 boundary
  // checkpoint, so a kill before the first cycle restores the exact same
  // state, and every serving snapshot — the first included — is a state
  // already on disk. An existing checkpoint is left byte-untouched; the
  // strategy was just loaded from it, so the in-memory state is the file's.
  if (!restored) EDSR_RETURN_NOT_OK(SaveCheckpoint());
  EDSR_RETURN_NOT_OK(SwapFromMemory());

  size_t cycles = 0;
  size_t pending = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    stop_ = false;
    // Read under the lock: once the cycle thread starts it mutates both.
    cycles = history_.size();
    pending = pending_.size();
  }
  cycle_thread_ = std::thread([this] { CycleLoop(); });
  EDSR_LOG(Info) << "daemon: " << options_.strategy << " on "
                 << options_.preset << " (dim " << input_dim_ << "), trigger "
                 << options_.trigger_spec << ", "
                 << (restored ? "resumed at cycle " : "fresh at cycle ")
                 << cycles << ", " << pending << " pending journaled samples";
  return util::Status::OK();
}

void LearnServeDaemon::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ && !cycle_thread_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (cycle_thread_.joinable()) cycle_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }
  journal_.Close();
}

serve::IngestResult LearnServeDaemon::Ingest(int64_t label,
                                             const std::vector<float>& input) {
  serve::IngestResult result;
  if (static_cast<int64_t>(input.size()) != input_dim_) {
    result.status = util::Status::InvalidArgument(
        "ingest dim " + std::to_string(input.size()) +
        " does not match daemon input dim " + std::to_string(input_dim_));
    EDSR_METRIC_COUNT("daemon.ingest.rejected_dim", 1);
    return result;
  }
  const int64_t t0_us = serve::TraceNowUs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stop_) {
      result.status = util::Status::Internal("daemon is not accepting");
      return result;
    }
    JournalRecord record;
    record.seq = next_seq_;
    record.label = label;
    record.features = input;
    util::Status appended = journal_.Append(record);
    if (!appended.ok()) {
      EDSR_METRIC_COUNT("daemon.ingest.errors", 1);
      result.status = std::move(appended);
      return result;
    }
    ++next_seq_;
    result.seq = record.seq;
    pending_.push_back(std::move(record));
    result.pending = static_cast<int64_t>(pending_.size());
  }
  cv_.notify_one();
  EDSR_METRIC_COUNT("daemon.ingest.accepted", 1);
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.GetGauge("daemon.pending")
      ->Set(static_cast<double>(result.pending));
  metrics.GetGauge("daemon.last_seq")->Set(static_cast<double>(result.seq));
  metrics.GetLatencyHisto("daemon.lat.ingest")
      ->Record(serve::TraceNowUs() - t0_us);
  result.status = util::Status::OK();
  return result;
}

serve::IngestHandler LearnServeDaemon::MakeIngestHandler() {
  return [this](int64_t label, const std::vector<float>& input) {
    return Ingest(label, input);
  };
}

bool LearnServeDaemon::WaitForCycles(int64_t n, int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return static_cast<int64_t>(history_.size()) >= n;
  });
}

void LearnServeDaemon::CycleLoop() {
  while (true) {
    std::vector<JournalRecord> chunk;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        if (stop_) return true;
        if (options_.max_cycles >= 0 &&
            static_cast<int64_t>(history_.size()) >= options_.max_cycles) {
          return false;  // boundary hold: samples keep journaling
        }
        return static_cast<int64_t>(pending_.size()) >= options_.micro_batch;
      });
      if (stop_) return;
      chunk.reserve(options_.micro_batch);
      for (int64_t i = 0; i < options_.micro_batch; ++i) {
        chunk.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
      obs::MetricsRegistry::Global().GetGauge("daemon.pending")
          ->Set(static_cast<double>(pending_.size()));
    }
    std::string cause = TrainChunk(std::move(chunk));
    if (!cause.empty()) CloseCycle(cause);
  }
}

std::string LearnServeDaemon::TrainChunk(std::vector<JournalRecord> chunk) {
  util::Stopwatch watch;
  const int64_t n = static_cast<int64_t>(chunk.size());
  data::Task task =
      TaskFromRecords(chunk, gate_->context().cycle, "daemon-micro");
  if (!cycle_open_) {
    strategy_->StreamBeginCycle(task);
    cycle_open_ = true;
    window_.clear();
    loss_sum_ = 0.0;
    last_drift_ = -1.0;
    train_seconds_ = 0.0;
  }
  loss_sum_ += strategy_->StreamTrainBatch(task);
  window_.insert(window_.end(), std::make_move_iterator(chunk.begin()),
                 std::make_move_iterator(chunk.end()));
  if (options_.train_hold_us > 0) {
    // Torture hook: widen the mid-cycle kill window.
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.train_hold_us));
  }
  auto drift_probe = [&]() -> double {
    last_drift_ = stream::BufferDrift(strategy_.get(), memory_);
    return last_drift_;
  };
  std::string cause = gate_->OnMicroBatch(n, drift_probe);
  train_seconds_ += watch.ElapsedSeconds();
  return cause;
}

void LearnServeDaemon::CloseCycle(const std::string& cause) {
  util::Stopwatch close_watch;
  data::Task window_task =
      TaskFromRecords(window_, gate_->context().cycle, "daemon-window");
  strategy_->StreamEndCycle(window_task);

  DaemonCycleResult current;
  current.cycle = gate_->context().cycle;
  current.cause = cause;
  current.samples = gate_->context().samples_in_cycle;
  current.micro_batches = gate_->context().micro_batches_in_cycle;
  current.total_samples = gate_->context().total_samples;
  current.loss = current.micro_batches > 0
                     ? loss_sum_ / static_cast<double>(current.micro_batches)
                     : 0.0;
  current.drift = last_drift_;
  current.buffer_size = memory_ != nullptr ? memory_->size() : 0;
  current.buffer_entropy = stream::BufferCompositionEntropy(memory_);
  gate_->CloseCycle();

  // Checkpoint, then swap, then count the cycle as completed. The
  // checkpoint write is atomic (temp + rename), so a kill here leaves
  // either the previous boundary or this one — both resume bit-identically
  // (the journal still holds this cycle's window). The swap installs the
  // in-memory state only once its file is written, so the served model is
  // never newer than what a restart would load.
  util::Status status = SaveCheckpoint(&current);
  uint64_t snapshot_id = 0;
  if (status.ok()) {
    status = SwapFromMemory();
    if (status.ok()) {
      serve::SnapshotHandle snapshot = handle_->registry()->Current();
      snapshot_id = snapshot != nullptr ? snapshot->id() : 0;
      EDSR_METRIC_COUNT("daemon.swaps", 1);
    }
  }
  EDSR_METRIC_COUNT("daemon.req.cycle", 1);
  if (!status.ok()) {
    // The in-memory state is still consistent; the journal still holds this
    // cycle's samples, so a restart simply re-runs it from the previous
    // boundary. Keep serving and keep training.
    EDSR_LOG(Error) << "daemon cycle " << current.cycle
                    << " checkpoint/swap failed: " << status.ToString();
    EDSR_METRIC_COUNT("daemon.err.cycle", 1);
  }
  {
    // Counted only now, so a caller woken by WaitForCycles finds the
    // cycle's snapshot serving.
    std::lock_guard<std::mutex> lock(mu_);
    consumed_ += current.samples;
    history_.push_back(current);
  }

  const double cycle_seconds = train_seconds_ + close_watch.ElapsedSeconds();
  {
    auto& metrics = obs::MetricsRegistry::Global();
    metrics.GetGauge("daemon.cycles")
        ->Set(static_cast<double>(current.cycle + 1));
    metrics.GetGauge("daemon.consumed")
        ->Set(static_cast<double>(current.total_samples));
    metrics.GetGauge("daemon.buffer_size")
        ->Set(static_cast<double>(current.buffer_size));
    metrics.GetGauge("daemon.buffer_entropy")->Set(current.buffer_entropy);
    metrics.GetGauge("daemon.drift")->Set(current.drift);
    metrics.GetLatencyHisto("daemon.lat.cycle")
        ->Record(static_cast<int64_t>(cycle_seconds * 1e6));
  }
  obs::FlightRecorder::Global().Record(obs::FlightRecorder::kMark,
                                       "daemon_cycle", current.cycle,
                                       current.samples);
  EDSR_LOG(Debug) << "daemon cycle " << current.cycle << " (" << cause
                  << "): samples=" << current.samples
                  << " loss=" << current.loss
                  << " snapshot=" << snapshot_id;
  EmitCycleRecord(current, train_seconds_, cycle_seconds, snapshot_id);

  window_.clear();
  cycle_open_ = false;
  cv_.notify_all();
}

util::Status LearnServeDaemon::SaveCheckpoint(
    const DaemonCycleResult* closing) {
  int64_t consumed = 0;
  std::vector<DaemonCycleResult> history;
  {
    std::lock_guard<std::mutex> lock(mu_);
    consumed = consumed_;
    history = history_;
  }
  if (closing != nullptr) {
    consumed += closing->samples;
    history.push_back(*closing);
  }
  io::ContainerWriter writer(checkpoint_path());

  io::BufferWriter meta;
  meta.WriteU32(kDaemonCheckpointVersion);
  meta.WriteString(options_.strategy);
  meta.WriteString(options_.preset);
  meta.WriteString(options_.trigger_spec);
  meta.WriteI64(options_.micro_batch);
  meta.WriteU64(options_.seed);
  meta.WriteI64(input_dim_);
  meta.WriteI64(consumed);
  writer.AddSection("daemon/meta", &meta);

  io::BufferWriter gate;
  gate_->Serialize(&gate);
  writer.AddSection("daemon/gate", &gate);

  io::BufferWriter cycles;
  cycles.WriteU64(history.size());
  for (const DaemonCycleResult& cycle : history) {
    WriteDaemonCycle(cycle, &cycles);
  }
  writer.AddSection("daemon/cycles", &cycles);

  EDSR_RETURN_NOT_OK(strategy_->SaveTo(&writer));
  return writer.Finish();
}

util::Status LearnServeDaemon::SwapFromMemory() {
  // Keeps the span name of ServeHandle::LoadAndSwap, which this replaces on
  // the daemon's path: it times the whole swap.
  EDSR_TRACE_SPAN("serve_load_and_swap");
  const serve::SnapshotLoadOptions& load = handle_->options().load;
  util::Result<serve::SnapshotPayload> payload =
      serve::SnapshotPayloadFromState(*strategy_->encoder(), memory_,
                                      strategy_->increments_seen(), load);
  if (!payload.ok()) return payload.status();
  handle_->registry()->Install(std::move(payload).ValueOrDie(), load,
                               checkpoint_path());
  return util::Status::OK();
}

util::Status LearnServeDaemon::LoadCheckpoint(bool* found) {
  *found = false;
  const std::string path = checkpoint_path();
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return util::Status::OK();

  util::Result<io::ContainerReader> opened = io::ContainerReader::Open(path);
  if (!opened.ok()) return opened.status();
  const io::ContainerReader& reader = *opened;

  std::vector<uint8_t> bytes;
  EDSR_RETURN_NOT_OK(reader.ReadSection("daemon/meta", &bytes));
  {
    io::BufferReader meta(bytes);
    uint32_t version = 0;
    EDSR_RETURN_NOT_OK(meta.ReadU32(&version));
    if (version != kDaemonCheckpointVersion) {
      return util::Status::InvalidArgument(
          path + ": unsupported daemon-checkpoint version " +
          std::to_string(version));
    }
    std::string strategy;
    std::string preset;
    std::string trigger_spec;
    int64_t micro_batch = 0;
    uint64_t seed = 0;
    int64_t dim = 0;
    int64_t consumed = 0;
    EDSR_RETURN_NOT_OK(meta.ReadString(&strategy));
    EDSR_RETURN_NOT_OK(meta.ReadString(&preset));
    EDSR_RETURN_NOT_OK(meta.ReadString(&trigger_spec));
    EDSR_RETURN_NOT_OK(meta.ReadI64(&micro_batch));
    EDSR_RETURN_NOT_OK(meta.ReadU64(&seed));
    EDSR_RETURN_NOT_OK(meta.ReadI64(&dim));
    EDSR_RETURN_NOT_OK(meta.ReadI64(&consumed));
    EDSR_RETURN_NOT_OK(meta.ExpectEnd());
    // A checkpoint written under one configuration must not silently
    // continue another daemon.
    if (strategy != options_.strategy) {
      return Mismatch(path, "strategy", strategy, options_.strategy);
    }
    if (preset != options_.preset) {
      return Mismatch(path, "preset", preset, options_.preset);
    }
    if (trigger_spec != options_.trigger_spec) {
      return Mismatch(path, "trigger", trigger_spec, options_.trigger_spec);
    }
    if (micro_batch != options_.micro_batch) {
      return Mismatch(path, "micro_batch", std::to_string(micro_batch),
                      std::to_string(options_.micro_batch));
    }
    if (seed != options_.seed) {
      return Mismatch(path, "seed", std::to_string(seed),
                      std::to_string(options_.seed));
    }
    if (dim != input_dim_) {
      return Mismatch(path, "input dim", std::to_string(dim),
                      std::to_string(input_dim_));
    }
    if (consumed < 0) {
      return util::Status::IoError(path + ": negative consumed counter");
    }
    consumed_ = consumed;
  }

  EDSR_RETURN_NOT_OK(reader.ReadSection("daemon/gate", &bytes));
  {
    io::BufferReader in(bytes);
    EDSR_RETURN_NOT_OK(gate_->Deserialize(&in));
    EDSR_RETURN_NOT_OK(in.ExpectEnd());
  }

  EDSR_RETURN_NOT_OK(reader.ReadSection("daemon/cycles", &bytes));
  {
    io::BufferReader cycles(bytes);
    uint64_t count = 0;
    EDSR_RETURN_NOT_OK(cycles.ReadU64(&count));
    if (count > bytes.size()) {
      return util::Status::IoError(path + ": cycle count exceeds payload");
    }
    history_.clear();
    for (uint64_t i = 0; i < count; ++i) {
      DaemonCycleResult cycle;
      EDSR_RETURN_NOT_OK(ReadDaemonCycle(&cycles, &cycle));
      history_.push_back(std::move(cycle));
    }
    EDSR_RETURN_NOT_OK(cycles.ExpectEnd());
  }

  EDSR_RETURN_NOT_OK(strategy_->LoadFrom(reader));
  *found = true;
  return util::Status::OK();
}

void LearnServeDaemon::EmitCycleRecord(const DaemonCycleResult& cycle,
                                       double train_seconds,
                                       double cycle_seconds,
                                       uint64_t snapshot_id) {
  if (logger_ == nullptr) return;
  obs::Json record = obs::Json::Object();
  record.Set("record", "daemon");
  record.Set("strategy", options_.strategy);
  record.Set("preset", options_.preset);
  record.Set("trigger", options_.trigger_spec);
  record.Set("cycle", cycle.cycle);
  record.Set("cause", cycle.cause);
  record.Set("samples", cycle.samples);
  record.Set("micro_batches", cycle.micro_batches);
  record.Set("total_samples", cycle.total_samples);
  record.Set("loss", cycle.loss);
  record.Set("drift", cycle.drift);
  obs::Json buffer = obs::Json::Object();
  buffer.Set("size", cycle.buffer_size);
  buffer.Set("entropy", cycle.buffer_entropy);
  record.Set("buffer", std::move(buffer));
  obs::Json journal = obs::Json::Object();
  journal.Set("consumed", cycle.total_samples);
  record.Set("journal", std::move(journal));
  // "perf" holds wall-clock and process-local values (snapshot ids restart
  // from 1 in a resumed process) and must be the LAST key: resumed-run
  // comparisons strip the line at `,"perf"` (see run_record.h).
  obs::Json perf = obs::Json::Object();
  perf.Set("train_seconds", train_seconds);
  perf.Set("cycle_seconds", cycle_seconds);
  perf.Set("snapshot_id", static_cast<int64_t>(snapshot_id));
  record.Set("perf", std::move(perf));
  logger_->Write(record);
}

void LearnServeDaemon::RewriteMetricsFile() {
  const std::string path = metrics_path();
  if (path.empty()) return;
  // The JSONL is a pure function of the checkpointed history plus the
  // cycles this process completes: rewriting on startup means a record
  // emitted (or skipped) right before a crash can never disagree with the
  // checkpoint the restart resumed from.
  std::remove(path.c_str());
  logger_ = std::make_unique<obs::RunLogger>(path);
  if (!logger_->ok()) {
    EDSR_LOG(Warning) << "daemon: cannot open " << path
                      << "; telemetry disabled";
    logger_.reset();
    return;
  }
  for (const DaemonCycleResult& cycle : history_) {
    EmitCycleRecord(cycle, 0.0, 0.0, 0);
  }
}

data::Task LearnServeDaemon::TaskFromRecords(
    const std::vector<JournalRecord>& records, int64_t cycle,
    const std::string& name) const {
  std::vector<float> features;
  features.reserve(records.size() * static_cast<size_t>(input_dim_));
  std::vector<int64_t> labels;
  labels.reserve(records.size());
  for (const JournalRecord& record : records) {
    features.insert(features.end(), record.features.begin(),
                    record.features.end());
    labels.push_back(record.label);
  }
  data::Task task;
  task.train = data::Dataset(name, std::move(features), std::move(labels),
                             input_dim_, num_classes_, geometry_);
  task.task_id = cycle;
  return task;
}

}  // namespace edsr::daemon
