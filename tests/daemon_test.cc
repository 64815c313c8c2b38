// Online-daemon suites: the CRC'd ingest journal (torn-tail truncation,
// gap detection), the reusable TriggerGate, the learn-serve cycle loop
// (ingest -> trigger -> train -> checkpoint -> hot-swap), crash-resume
// bit-identity, the kIngest protocol path (typed dim-mismatch errors,
// unconfigured servers), concurrent train+serve under load, and the
// from-memory hot swap (its payload equals the checkpoint's, and a restart
// serves what the last swap served).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cl/factory.h"
#include "src/daemon/daemon.h"
#include "src/daemon/journal.h"
#include "src/data/synthetic.h"
#include "src/io/container.h"
#include "src/io/serialize.h"
#include "src/serve/snapshot.h"
#include "src/serve/tcp_server.h"
#include "src/ssl/encoder.h"
#include "src/stream/gate.h"
#include "src/stream/source.h"
#include "src/stream/trigger.h"
#include "src/util/rng.h"

namespace edsr::daemon {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

JournalRecord MakeRecord(uint64_t seq, int64_t dim = 4) {
  JournalRecord record;
  record.seq = seq;
  record.label = static_cast<int64_t>(seq % 3);
  record.features.assign(dim, static_cast<float>(seq) * 0.25f);
  return record;
}

// ---- IngestJournal -------------------------------------------------------

TEST(IngestJournal, RoundTripReplaysInOrder) {
  const std::string path = TestDir("journal_roundtrip") + "/j.log";
  {
    IngestJournal journal;
    std::vector<JournalRecord> replayed;
    ASSERT_TRUE(journal.Open(path, /*fsync_each=*/false, &replayed).ok());
    EXPECT_TRUE(replayed.empty());
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      ASSERT_TRUE(journal.Append(MakeRecord(seq)).ok());
    }
    EXPECT_EQ(journal.last_seq(), 5u);
  }
  IngestJournal journal;
  std::vector<JournalRecord> replayed;
  ASSERT_TRUE(journal.Open(path, false, &replayed).ok());
  ASSERT_EQ(replayed.size(), 5u);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    EXPECT_EQ(replayed[seq - 1].seq, seq);
    EXPECT_EQ(replayed[seq - 1].label, static_cast<int64_t>(seq % 3));
    EXPECT_EQ(replayed[seq - 1].features, MakeRecord(seq).features);
  }
  EXPECT_EQ(journal.last_seq(), 5u);
}

TEST(IngestJournal, AppendEnforcesSeqContinuity) {
  const std::string path = TestDir("journal_seq") + "/j.log";
  IngestJournal journal;
  ASSERT_TRUE(journal.Open(path, false, nullptr).ok());
  ASSERT_TRUE(journal.Append(MakeRecord(1)).ok());
  EXPECT_FALSE(journal.Append(MakeRecord(3)).ok());  // gap
  EXPECT_FALSE(journal.Append(MakeRecord(1)).ok());  // replaying backwards
  EXPECT_TRUE(journal.Append(MakeRecord(2)).ok());
}

TEST(IngestJournal, TruncatesTornTailAndKeepsAppending) {
  const std::string path = TestDir("journal_torn") + "/j.log";
  {
    IngestJournal journal;
    ASSERT_TRUE(journal.Open(path, false, nullptr).ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(journal.Append(MakeRecord(seq)).ok());
    }
  }
  const std::string intact = ReadFile(path);
  // A kill mid-write leaves a partial frame: half a header plus garbage.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(intact.data(), 7);
  }
  {
    IngestJournal journal;
    std::vector<JournalRecord> replayed;
    ASSERT_TRUE(journal.Open(path, false, &replayed).ok());
    EXPECT_EQ(replayed.size(), 3u);
    ASSERT_TRUE(journal.Append(MakeRecord(4)).ok());
  }
  // The torn bytes are gone: a third open sees 4 intact records.
  IngestJournal journal;
  std::vector<JournalRecord> replayed;
  ASSERT_TRUE(journal.Open(path, false, &replayed).ok());
  EXPECT_EQ(replayed.size(), 4u);
  EXPECT_EQ(journal.last_seq(), 4u);
}

TEST(IngestJournal, CorruptPayloadTruncatesFromThere) {
  const std::string path = TestDir("journal_crc") + "/j.log";
  {
    IngestJournal journal;
    ASSERT_TRUE(journal.Open(path, false, nullptr).ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(journal.Append(MakeRecord(seq)).ok());
    }
  }
  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 2] ^= 0x5A;  // flip a bit inside record 2
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  IngestJournal journal;
  std::vector<JournalRecord> replayed;
  ASSERT_TRUE(journal.Open(path, false, &replayed).ok());
  EXPECT_LT(replayed.size(), 3u);  // everything from the flipped record on
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].seq, i + 1);
  }
}

TEST(IngestJournal, SeqGapInFileIsCorruptionNotTail) {
  const std::string path = TestDir("journal_gap") + "/j.log";
  const std::string scratch = TestDir("journal_gap_scratch") + "/j.log";
  {
    // Build two separate valid journals and splice record "2" from one
    // whose seq counter was ahead: frames are intact, ordering is not.
    IngestJournal journal;
    ASSERT_TRUE(journal.Open(path, false, nullptr).ok());
    ASSERT_TRUE(journal.Append(MakeRecord(1)).ok());
  }
  {
    IngestJournal journal;
    ASSERT_TRUE(journal.Open(scratch, false, nullptr).ok());
    ASSERT_TRUE(journal.Append(MakeRecord(1)).ok());
    ASSERT_TRUE(journal.Append(MakeRecord(2)).ok());
    ASSERT_TRUE(journal.Append(MakeRecord(3)).ok());
  }
  const std::string first = ReadFile(path);
  const std::string donor = ReadFile(scratch);
  const size_t frame = first.size();  // all MakeRecord frames are equal-size
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(donor.data() + 2 * frame, static_cast<std::streamsize>(frame));
  }
  IngestJournal journal;
  util::Status status = journal.Open(path, false, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kIoError);
}

// ---- TriggerGate ---------------------------------------------------------

TEST(TriggerGate, SerializeRestoreContinuesIdentically) {
  auto trigger =
      std::move(stream::TriggerRegistry::Global().Create("count:n=12"))
          .ValueOrDie();
  stream::TriggerGate gate(trigger.get());
  gate.Reset(0, 0);
  EXPECT_EQ(gate.OnMicroBatch(4, nullptr), "");
  EXPECT_EQ(gate.OnMicroBatch(4, nullptr), "");

  io::BufferWriter out;
  gate.Serialize(&out);

  auto trigger2 =
      std::move(stream::TriggerRegistry::Global().Create("count:n=12"))
          .ValueOrDie();
  stream::TriggerGate restored(trigger2.get());
  io::BufferReader in(out.bytes());
  ASSERT_TRUE(restored.Deserialize(&in).ok());
  EXPECT_EQ(restored.context().samples_in_cycle, 8);
  EXPECT_EQ(restored.context().total_samples, 8);

  // Both gates fire on the very next micro-batch, in lockstep.
  EXPECT_EQ(gate.OnMicroBatch(4, nullptr), "count");
  EXPECT_EQ(restored.OnMicroBatch(4, nullptr), "count");
  gate.CloseCycle();
  restored.CloseCycle();
  EXPECT_EQ(restored.context().cycle, gate.context().cycle);
  EXPECT_EQ(restored.context().samples_in_cycle, 0);
}

TEST(TriggerGate, DeserializeRejectsDifferentTrigger) {
  auto count =
      std::move(stream::TriggerRegistry::Global().Create("count:n=12"))
          .ValueOrDie();
  stream::TriggerGate gate(count.get());
  gate.Reset(0, 0);
  io::BufferWriter out;
  gate.Serialize(&out);

  auto drift = std::move(stream::TriggerRegistry::Global().Create(
                             "drift:threshold=0.5,min=4,max=64,check=1"))
                   .ValueOrDie();
  stream::TriggerGate other(drift.get());
  io::BufferReader in(out.bytes());
  util::Status status = other.Deserialize(&in);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

// ---- LearnServeDaemon ----------------------------------------------------

DaemonOptions TinyOptions(const std::string& dir) {
  DaemonOptions options;
  options.directory = dir;
  options.preset = "SynthCifar10";  // dim 192 (3x8x8), 10 classes
  options.trigger_spec = "count:n=8";
  options.micro_batch = 4;
  options.memory_per_task = 4;
  options.replay_batch_size = 4;
  options.fsync_journal = false;
  return options;
}

// Deterministic feed shared by every end-to-end test.
std::vector<stream::StreamSample> FeedSamples(int64_t n, uint64_t seed = 7) {
  auto bundle =
      std::move(stream::MakeStreamBundle("SynthCifar10|label_noise:p=0.1",
                                         seed))
          .ValueOrDie();
  return bundle.source->NextBatch(n);
}

TEST(LearnServeDaemon, IngestTrainSwapServe) {
  LearnServeDaemon daemon(TinyOptions(TestDir("daemon_e2e")));
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(daemon.input_dim(), 192);

  const uint64_t first_snapshot =
      daemon.handle()->registry()->Current()->id();
  std::vector<stream::StreamSample> samples = FeedSamples(16);
  for (size_t i = 0; i < samples.size(); ++i) {
    serve::IngestResult result =
        daemon.Ingest(samples[i].observed_label, samples[i].features);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.seq, i + 1);
  }
  ASSERT_TRUE(daemon.WaitForCycles(2, /*timeout_ms=*/30000));

  std::vector<DaemonCycleResult> cycles = daemon.cycles();
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0].cause, "count");
  EXPECT_EQ(cycles[0].samples, 8);
  EXPECT_EQ(cycles[0].micro_batches, 2);
  EXPECT_EQ(cycles[1].total_samples, 16);
  EXPECT_EQ(daemon.consumed(), 16);
  EXPECT_EQ(daemon.pending(), 0);

  // Each cycle hot-swapped a fresh checkpoint under the serve path.
  serve::SnapshotHandle current = daemon.handle()->registry()->Current();
  EXPECT_GT(current->id(), first_snapshot);
  EXPECT_EQ(current->input_dim(), 192);
  serve::EmbedResult embed = daemon.handle()->Embed(samples[0].features);
  ASSERT_TRUE(embed.status.ok()) << embed.status.ToString();
  EXPECT_EQ(embed.snapshot_id, current->id());
  serve::EmbedResult knn = daemon.handle()->KnnLabel(samples[0].features);
  ASSERT_TRUE(knn.status.ok()) << knn.status.ToString();
  EXPECT_GE(knn.label, 0);  // the swapped snapshot carries the replay bank
  daemon.Stop();
}

TEST(LearnServeDaemon, RejectsWrongDimensionInProcess) {
  LearnServeDaemon daemon(TinyOptions(TestDir("daemon_dim")));
  ASSERT_TRUE(daemon.Start().ok());
  serve::IngestResult result = daemon.Ingest(0, std::vector<float>(3, 0.f));
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(daemon.pending(), 0);
  daemon.Stop();
}

TEST(LearnServeDaemon, StartRejectsCheckpointSpecMismatch) {
  const std::string dir = TestDir("daemon_spec");
  {
    LearnServeDaemon daemon(TinyOptions(dir));
    ASSERT_TRUE(daemon.Start().ok());
    daemon.Stop();
  }
  DaemonOptions changed = TinyOptions(dir);
  changed.trigger_spec = "count:n=16";
  LearnServeDaemon daemon(changed);
  util::Status status = daemon.Start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("trigger"), std::string::npos);
}

TEST(LearnServeDaemon, ResumeAfterAbandonedCycleIsBitIdentical) {
  const std::string straight_dir = TestDir("daemon_straight");
  const std::string killed_dir = TestDir("daemon_killed");
  std::vector<stream::StreamSample> samples = FeedSamples(32);

  // Reference: one process consumes all 32 samples (4 cycles of 8).
  {
    LearnServeDaemon daemon(TinyOptions(straight_dir));
    ASSERT_TRUE(daemon.Start().ok());
    for (const stream::StreamSample& sample : samples) {
      ASSERT_TRUE(
          daemon.Ingest(sample.observed_label, sample.features).status.ok());
    }
    ASSERT_TRUE(daemon.WaitForCycles(4, 30000));
    daemon.Stop();
  }

  // Interrupted: the first process stops mid-stream with a cycle open
  // (Stop abandons it exactly as a kill would — the journal keeps the
  // samples); the second process re-runs it from the boundary.
  {
    LearnServeDaemon daemon(TinyOptions(killed_dir));
    ASSERT_TRUE(daemon.Start().ok());
    for (int64_t i = 0; i < 20; ++i) {  // 2.5 cycles
      ASSERT_TRUE(daemon.Ingest(samples[i].observed_label,
                                samples[i].features)
                      .status.ok());
    }
    ASSERT_TRUE(daemon.WaitForCycles(2, 30000));
    daemon.Stop();
  }
  {
    LearnServeDaemon daemon(TinyOptions(killed_dir));
    ASSERT_TRUE(daemon.Start().ok());
    EXPECT_EQ(daemon.cycles_completed(), 2);
    EXPECT_EQ(daemon.consumed(), 16);
    // The journaled tail (4 samples) was re-queued; the cycle thread may
    // already have pulled it into an open cycle, so pending is 4 or 0.
    EXPECT_LE(daemon.pending(), 4);
    for (int64_t i = 20; i < 32; ++i) {
      ASSERT_TRUE(daemon.Ingest(samples[i].observed_label,
                                samples[i].features)
                      .status.ok());
    }
    ASSERT_TRUE(daemon.WaitForCycles(4, 30000));
    daemon.Stop();
  }

  // Checkpoints, journals, and perf-stripped telemetry all match exactly.
  EXPECT_EQ(ReadFile(straight_dir + "/daemon.ckpt"),
            ReadFile(killed_dir + "/daemon.ckpt"));
  EXPECT_EQ(ReadFile(straight_dir + "/ingest.journal"),
            ReadFile(killed_dir + "/ingest.journal"));
  auto stripped = [](const std::string& path) {
    std::string out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      out += line.substr(0, line.find(",\"perf\"")) + "\n";
    }
    return out;
  };
  const std::string straight = stripped(straight_dir + "/daemon.jsonl");
  EXPECT_EQ(straight, stripped(killed_dir + "/daemon.jsonl"));
  EXPECT_EQ(std::count(straight.begin(), straight.end(), '\n'), 4);
}

// ---- From-memory hot swap ------------------------------------------------

// Every name cl::MakeStrategy accepts, so every strategy a daemon can run.
const char* const kStrategyNames[] = {
    "finetune",     "si",           "der",          "lump",
    "cassle",       "edsr",         "edsr-css",     "edsr-dis",
    "edsr-random",  "edsr-distant", "edsr-kmeans",  "edsr-minvar",
    "edsr-norm",    "edsr-logdet"};

// The StrategyContext LearnServeDaemon::Start builds for TinyOptions.
cl::StrategyContext TinyDaemonContext() {
  cl::StrategyContext context;
  context.encoder.mlp_dims = {192, 64, 64};
  context.encoder.projector_hidden = 64;
  context.encoder.representation_dim = 32;
  context.batch_size = 4;
  context.lr = 0.05f;
  context.weight_decay = 0.03f;
  context.memory_per_task = 4;
  context.replay_batch_size = 4;
  return context;
}

data::Task TaskOf(const std::vector<stream::StreamSample>& samples,
                  size_t begin, size_t end, int64_t cycle) {
  static const data::SyntheticImageConfig preset =
      *data::ImagePresetConfig("SynthCifar10", 0);
  std::vector<float> features;
  std::vector<int64_t> labels;
  for (size_t i = begin; i < end; ++i) {
    features.insert(features.end(), samples[i].features.begin(),
                    samples[i].features.end());
    labels.push_back(samples[i].observed_label);
  }
  data::Task task;
  task.train = data::Dataset("payload-test", std::move(features),
                             std::move(labels), 192, preset.num_classes,
                             preset.geometry);
  task.task_id = cycle;
  return task;
}

void ExpectSameState(const nn::Module& expected, const nn::Module& actual,
                     const std::string& where) {
  std::vector<nn::NamedTensor> a = expected.NamedState();
  std::vector<nn::NamedTensor> b = actual.NamedState();
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].name, b[i].name) << where;
    ASSERT_EQ(a[i].value.shape(), b[i].value.shape())
        << where << " " << a[i].name;
    ASSERT_EQ(0, std::memcmp(a[i].value.data().data(),
                             b[i].value.data().data(),
                             a[i].value.numel() * sizeof(float)))
        << where << " " << a[i].name;
  }
}

TEST(SnapshotPayload, FromStateEqualsCheckpointForEveryStrategy) {
  const std::vector<stream::StreamSample> samples = FeedSamples(24);
  const std::string path = TestDir("payload") + "/strategy.ckpt";
  for (const char* name : kStrategyNames) {
    const cl::StrategyContext context = TinyDaemonContext();
    std::unique_ptr<cl::ContinualStrategy> strategy =
        cl::MakeStrategy(name, context);
    serve::SnapshotLoadOptions load;
    load.encoder = context.encoder;
    // The untrained state (a fresh daemon's first swap), then three cycles
    // of two 4-sample micro-batches each.
    for (int64_t cycle = 0; cycle <= 3; ++cycle) {
      if (cycle > 0) {
        const size_t base = static_cast<size_t>(cycle - 1) * 8;
        strategy->StreamBeginCycle(TaskOf(samples, base, base + 4, cycle));
        strategy->StreamTrainBatch(TaskOf(samples, base, base + 4, cycle));
        strategy->StreamTrainBatch(TaskOf(samples, base + 4, base + 8, cycle));
        strategy->StreamEndCycle(TaskOf(samples, base, base + 8, cycle));
      }
      io::ContainerWriter writer(path);
      ASSERT_TRUE(strategy->SaveTo(&writer).ok());
      ASSERT_TRUE(writer.Finish().ok());
      const std::string where =
          std::string(name) + " cycle " + std::to_string(cycle);

      util::Result<serve::SnapshotPayload> file =
          serve::LoadSnapshotPayload(path, load);
      util::Result<serve::SnapshotPayload> memory =
          serve::SnapshotPayloadFromState(*strategy->encoder(),
                                          strategy->replay_memory(),
                                          strategy->increments_seen(), load);
      ASSERT_TRUE(file.ok()) << where << ": " << file.status().ToString();
      ASSERT_TRUE(memory.ok()) << where << ": " << memory.status().ToString();
      ExpectSameState(*(*file).encoder, *(*memory).encoder, where);
      EXPECT_EQ((*file).increments_seen, (*memory).increments_seen) << where;
      EXPECT_EQ((*memory).increments_seen, cycle) << where;
      EXPECT_EQ((*file).memory_labels, (*memory).memory_labels) << where;
      ASSERT_EQ((*file).memory_features.size(),
                (*memory).memory_features.size())
          << where;
      if (!(*file).memory_features.empty()) {
        EXPECT_EQ(0, std::memcmp(
                         (*file).memory_features.data(),
                         (*memory).memory_features.data(),
                         (*file).memory_features.size() * sizeof(float)))
            << where;
      }
    }
    // The memory strategies must have compared a non-empty bank.
    if (strategy->replay_memory() != nullptr) {
      EXPECT_EQ((*serve::SnapshotPayloadFromState(
                     *strategy->encoder(), strategy->replay_memory(),
                     strategy->increments_seen(), load))
                    .memory_labels.size(),
                static_cast<size_t>(strategy->replay_memory()->size()))
          << name;
      EXPECT_GT(strategy->replay_memory()->size(), 0) << name;
    }
  }
}

// Rows stored without a label (-1) cannot vote; both paths leave them out
// and keep the others in buffer order. The checkpoint here has the
// memory-only strategy/extra layout of DER and LUMP.
TEST(SnapshotPayload, UnlabeledRowsStayOutOfBothBanks) {
  const cl::StrategyContext context = TinyDaemonContext();
  util::Rng rng(5);
  std::unique_ptr<ssl::Encoder> encoder =
      ssl::Encoder::Make(context.encoder, &rng);
  cl::MemoryBuffer memory(6);
  std::vector<cl::MemoryEntry> entries(6);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].features.assign(192, 0.01f * static_cast<float>(i));
    entries[i].label = i % 3 == 2 ? -1 : static_cast<int64_t>(i);
  }
  memory.AddIncrement(std::move(entries));

  const std::string path = TestDir("payload_unlabeled") + "/strategy.ckpt";
  io::ContainerWriter writer(path);
  io::BufferWriter meta;
  meta.WriteString("der");
  meta.WriteI64(4);
  writer.AddSection("strategy/meta", &meta);
  io::BufferWriter state;
  encoder->SerializeState(&state);
  writer.AddSection("strategy/encoder", &state);
  io::BufferWriter extra;
  memory.Serialize(&extra);
  writer.AddSection("strategy/extra", &extra);
  ASSERT_TRUE(writer.Finish().ok());

  serve::SnapshotLoadOptions load;
  load.encoder = context.encoder;
  util::Result<serve::SnapshotPayload> file =
      serve::LoadSnapshotPayload(path, load);
  util::Result<serve::SnapshotPayload> from_state =
      serve::SnapshotPayloadFromState(*encoder, &memory, 4, load);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE(from_state.ok()) << from_state.status().ToString();
  const std::vector<int64_t> expected = {0, 1, 3, 4};
  EXPECT_EQ((*file).memory_labels, expected);
  EXPECT_EQ((*from_state).memory_labels, expected);
  EXPECT_EQ((*file).memory_features, (*from_state).memory_features);
  EXPECT_EQ((*from_state).memory_features.size(), 4u * 192u);
  EXPECT_EQ((*from_state).increments_seen, 4);
  ExpectSameState(*(*file).encoder, *(*from_state).encoder, "unlabeled");
}

// The copied encoder itself decides what can be served: a multi-head
// encoder is refused even when the options name a headless one, and a
// memory row of another width is an error, never a CHECK failure later in
// Install.
TEST(SnapshotPayload, FromStateChecksTheEncoderItCopies) {
  const cl::StrategyContext context = TinyDaemonContext();
  serve::SnapshotLoadOptions load;
  load.encoder = context.encoder;
  util::Rng rng(6);

  ssl::EncoderConfig multi_head = context.encoder;
  multi_head.input_head_dims = {5, 9};
  std::unique_ptr<ssl::Encoder> headed = ssl::Encoder::Make(multi_head, &rng);
  util::Result<serve::SnapshotPayload> refused =
      serve::SnapshotPayloadFromState(*headed, nullptr, 1, load);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kNotImplemented);

  std::unique_ptr<ssl::Encoder> encoder =
      ssl::Encoder::Make(context.encoder, &rng);
  cl::MemoryBuffer memory(2);
  std::vector<cl::MemoryEntry> entries(2);
  entries[0].features.assign(192, 0.5f);
  entries[0].label = 0;
  entries[1].features.assign(191, 0.5f);
  entries[1].label = 1;
  memory.AddIncrement(std::move(entries));
  util::Result<serve::SnapshotPayload> narrow =
      serve::SnapshotPayloadFromState(*encoder, &memory, 1, load);
  ASSERT_FALSE(narrow.ok());
  EXPECT_EQ(narrow.status().code(), util::StatusCode::kInvalidArgument);
}

// DER keeps a replay buffer too: its daemon reports it and serves a bank
// built from it, equal to the one a reader of the checkpoint builds.
TEST(LearnServeDaemon, DerReportsItsBufferAndServesItsBank) {
  DaemonOptions options = TinyOptions(TestDir("daemon_der"));
  options.strategy = "der";
  LearnServeDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  for (const stream::StreamSample& sample : FeedSamples(16)) {
    ASSERT_TRUE(
        daemon.Ingest(sample.observed_label, sample.features).status.ok());
  }
  ASSERT_TRUE(daemon.WaitForCycles(2, 30000));
  daemon.Stop();

  std::vector<DaemonCycleResult> cycles = daemon.cycles();
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_GT(cycles[0].buffer_size, 0);
  EXPECT_GT(cycles[1].buffer_size, cycles[0].buffer_size);
  EXPECT_GT(cycles[1].buffer_entropy, 0.0);

  util::Result<serve::SnapshotPayload> file = serve::LoadSnapshotPayload(
      daemon.checkpoint_path(), daemon.handle()->options().load);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  serve::SnapshotHandle served = daemon.handle()->registry()->Current();
  EXPECT_EQ(served->increments_seen(), 2);
  EXPECT_EQ(served->increments_seen(), (*file).increments_seen);
  EXPECT_GT(served->knn_bank_size(), 0);
  EXPECT_EQ(served->knn_bank_size(),
            static_cast<int64_t>((*file).memory_labels.size()));
  ExpectSameState(*(*file).encoder, *served->encoder(), "der daemon");
}

// A kill after N cycles (Stop abandons the open cycle as a kill does)
// followed by a restart: the restart's first snapshot, built from the
// loaded checkpoint, answers every Embed bit for bit and every KnnLabel
// like the last snapshot the first process swapped in from memory.
TEST(LearnServeDaemon, RestartServesWhatTheLastSwapServed) {
  const std::string dir = TestDir("daemon_restart_serve");
  std::vector<stream::StreamSample> samples = FeedSamples(28);
  std::vector<std::vector<float>> queries;
  for (const stream::StreamSample& sample : FeedSamples(12, /*seed=*/99)) {
    queries.push_back(sample.features);
  }
  std::vector<std::vector<float>> embeds;
  std::vector<int64_t> labels;
  {
    LearnServeDaemon daemon(TinyOptions(dir));
    ASSERT_TRUE(daemon.Start().ok());
    for (const stream::StreamSample& sample : samples) {  // 3.5 cycles
      ASSERT_TRUE(
          daemon.Ingest(sample.observed_label, sample.features).status.ok());
    }
    ASSERT_TRUE(daemon.WaitForCycles(3, 30000));
    EXPECT_EQ(daemon.handle()->Health().increments_seen, 3);
    for (const std::vector<float>& query : queries) {
      serve::EmbedResult embed = daemon.handle()->Embed(query);
      serve::EmbedResult knn = daemon.handle()->KnnLabel(query);
      ASSERT_TRUE(embed.status.ok()) << embed.status.ToString();
      ASSERT_TRUE(knn.status.ok()) << knn.status.ToString();
      embeds.push_back(embed.representation);
      labels.push_back(knn.label);
    }
    daemon.Stop();
  }
  LearnServeDaemon daemon(TinyOptions(dir));
  ASSERT_TRUE(daemon.Start().ok());
  serve::SnapshotHandle first = daemon.handle()->registry()->Current();
  EXPECT_EQ(first->id(), 1u);
  EXPECT_EQ(first->increments_seen(), 3);
  for (size_t i = 0; i < queries.size(); ++i) {
    serve::EmbedResult embed = daemon.handle()->Embed(queries[i]);
    serve::EmbedResult knn = daemon.handle()->KnnLabel(queries[i]);
    ASSERT_TRUE(embed.status.ok()) << embed.status.ToString();
    ASSERT_TRUE(knn.status.ok()) << knn.status.ToString();
    EXPECT_EQ(embed.snapshot_id, first->id());
    ASSERT_EQ(embed.representation.size(), embeds[i].size());
    EXPECT_EQ(0, std::memcmp(embed.representation.data(), embeds[i].data(),
                             embeds[i].size() * sizeof(float)))
        << "query " << i;
    EXPECT_EQ(knn.label, labels[i]) << "query " << i;
  }
  daemon.Stop();
}

// ---- kIngest over TCP ----------------------------------------------------

TEST(DaemonTcp, IngestDimMismatchIsTypedError) {
  LearnServeDaemon daemon(TinyOptions(TestDir("daemon_tcp_dim")));
  ASSERT_TRUE(daemon.Start().ok());
  serve::TcpServer server(daemon.handle());
  server.SetIngestHandler(daemon.MakeIngestHandler());
  ASSERT_TRUE(server.Start(0).ok());
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());

  serve::ServeClient::IngestReply bad =
      client.Ingest(1, std::vector<float>(5, 0.f));
  ASSERT_FALSE(bad.status.ok());
  EXPECT_EQ(bad.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status.ToString().find("dim"), std::string::npos);

  // The connection survives a typed error, and a correct frame lands.
  serve::ServeClient::IngestReply good =
      client.Ingest(1, std::vector<float>(192, 0.25f));
  ASSERT_TRUE(good.status.ok()) << good.status.ToString();
  EXPECT_EQ(good.seq, 1u);
  EXPECT_EQ(good.pending, 1);

  server.Stop();
  daemon.Stop();
}

TEST(DaemonTcp, IngestWithoutHandlerIsNotImplemented) {
  serve::ServeOptions options;
  ssl::EncoderConfig encoder_config;
  encoder_config.mlp_dims = {12, 8, 8};
  encoder_config.projector_hidden = 8;
  encoder_config.representation_dim = 4;
  options.load.encoder = encoder_config;
  serve::ServeHandle handle(options);
  {
    util::Rng rng(1);
    handle.InstallSnapshot(ssl::Encoder::Make(encoder_config, &rng), {}, {},
                           "no-ingest");
  }
  serve::TcpServer server(&handle);
  ASSERT_TRUE(server.Start(0).ok());
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  serve::ServeClient::IngestReply reply =
      client.Ingest(0, std::vector<float>(12, 0.f));
  ASSERT_FALSE(reply.status.ok());
  EXPECT_EQ(reply.status.code(), util::StatusCode::kNotImplemented);
  server.Stop();
}

// ---- concurrent train + serve -------------------------------------------

TEST(DaemonTcp, ConcurrentTrainServeNoDroppedRequests) {
  LearnServeDaemon daemon(TinyOptions(TestDir("daemon_stress")));
  ASSERT_TRUE(daemon.Start().ok());
  serve::TcpServer server(daemon.handle());
  server.SetIngestHandler(daemon.MakeIngestHandler());
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();

  // 4 client threads embed while the feed drives training cycles and
  // hot-swaps underneath them. Every single request must succeed — a
  // snapshot swap may change WHICH snapshot answers, never WHETHER.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 60;
  std::atomic<int> ok{0};
  std::atomic<int> metrics_ok{0};
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([t, port, &ok, &metrics_ok, &errors] {
      serve::ServeClient client;
      util::Status connected = client.Connect(port);
      if (!connected.ok()) {
        errors[t] = connected.ToString();
        return;
      }
      util::Rng rng(100 + t);
      for (int r = 0; r < kPerThread; ++r) {
        std::vector<float> input(192);
        for (float& v : input) v = rng.Uniform(-1.0f, 1.0f);
        serve::EmbedResult result = client.Embed(input);
        if (!result.status.ok()) {
          errors[t] = result.status.ToString();
          return;
        }
        ok.fetch_add(1);
        if (r % 16 == 0) {
          // kMetrics mid-swap: the JSON must come back whole, never torn.
          util::Result<std::string> body = client.Metrics();
          if (!body.ok()) {
            errors[t] = body.status().ToString();
            return;
          }
          const std::string& json = *body;
          if (json.empty() || json.front() != '{' || json.back() != '}') {
            errors[t] = "torn metrics body: " + json;
            return;
          }
          metrics_ok.fetch_add(1);
        }
      }
    });
  }

  std::vector<stream::StreamSample> samples = FeedSamples(32);
  for (const stream::StreamSample& sample : samples) {
    ASSERT_TRUE(
        daemon.Ingest(sample.observed_label, sample.features).status.ok());
  }
  ASSERT_TRUE(daemon.WaitForCycles(4, 60000));
  for (std::thread& thread : clients) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], "") << "client " << t;
  }
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_GT(metrics_ok.load(), 0);
  EXPECT_EQ(daemon.cycles_completed(), 4);
  EXPECT_GE(daemon.handle()->registry()->swaps(), 4);

  server.Stop();
  daemon.Stop();
}

}  // namespace
}  // namespace edsr::daemon
