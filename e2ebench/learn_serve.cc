// Workload learn_serve: daemon::LearnServeDaemon + serve::TcpServer wired as
// in examples/learn_serve_daemon (EDSR, SynthCifar10, trigger count:n=64,
// micro-batch 16), with journal fsync off so the numbers do not measure the
// disk. Load comes over loopback ServeClients, one request in flight per
// connection, open loop: each connection's requests arrive as a Poisson
// process (exponential gaps drawn from the connection's seeded rng), and
// each request has the due time its arrival gives it:
//   * one ingest connection at kIngestPerSecond samples/s on average, below
//     the daemon's cycle capacity; the sample count is fixed at
//     kIngestPerSecond x --seconds, so the cycles learned are fixed work;
//   * kQueryConnections query connections sharing kQueriesPerSecond, a
//     fixed count per connection as for ingest, each
//     request Embed or KnnLabel with equal odds, on an input drawn from a
//     fixed pool of kPoolSize held-out inputs. The even mix and the pool
//     size are arbitrary choices, not taken from a measured traffic trace;
//     the pool is a quarter of the representation cache, and the cache is
//     keyed by snapshot, so most lookups in a ~128 ms cycle miss.
// It is the only workload that uses serve, daemon, the journal and the hot
// swap: training and serving share one process, so a training change that
// steals CPU from serving shows here, and so does a serve change that slows
// cycles.
//
// Set-up (repeated kSetups times with host-speed probes between them; the
// median rescaled to the reference host speed (common.h) is setup_s; the
// last instance carries the load): generate the inputs, start daemon and
// server, connect, ingest the first cycle and wait until its snapshot
// serves, so KnnLabel always has a bank. Latencies are timed from each
// request's due time; the schedule spans about --seconds. Afterwards every
// full cycle must close and swap.
//
// run_s is the CPU time the daemon's own threads (the cycle thread, which
// trains, checkpoints and hot-swaps, and the serving batch worker, which
// runs the forward passes and kNN votes) spend on the fixed work of the
// timed phase, read from their /proc schedstat and rescaled to the
// reference host speed (common.h) by the median of the probes the main
// thread runs every kProbeEveryMs during the load. CPU time, not wall time:
// the daemon shares a few vCPUs with the load generator, the server's
// connection threads and other tenants, and the summed wall time of its
// cycles followed hypervisor steal (in one batch of eight seeds with
// 0.4-3.6% steal it spread 0.20 of the median, the CPU time 0.08).
// Rescaled, because the CPU time still follows the host's speed: between
// two batches fifteen minutes apart its median fell 22% while the median
// probe fell 26%. The phase's wall length is set by the schedule, so it is
// not reported.
//
// final_acc is the kNN accuracy of the final snapshot on the clean held-out
// split; it is deterministic for a seed, because the journal order fixes
// the cycles.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench/common.h"
#include "src/cl/trainer.h"
#include "src/daemon/daemon.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/tcp_server.h"
#include "src/stream/source.h"

namespace e2e {
namespace {

using namespace edsr;

constexpr char kPreset[] = "SynthCifar10";
constexpr char kTriggerSpec[] = "count:n=64";
constexpr int64_t kMicroBatch = 16;
constexpr int64_t kCycleSamples = 64;  // matches kTriggerSpec
constexpr double kIngestPerSecond = 500.0;
constexpr double kQueriesPerSecond = 500.0;
constexpr int kQueryConnections = 2;
constexpr int64_t kPoolSize = 256;
constexpr int kSetups = 11;
constexpr int64_t kSpinUs = 200;
// Host-speed probes (common.h) run this often during the load.
constexpr int64_t kProbeEveryMs = 500;
constexpr int64_t kWaitMs = 60000;

// One query of the schedule: when it is due (seconds after the start of the
// load), its kind and its pool input.
struct Query {
  double due_s = 0.0;
  bool knn = false;
  int64_t input = 0;
};

// The seeded open-loop schedule of one load phase.
struct Schedule {
  std::vector<double> ingest_due_s;
  std::vector<std::vector<Query>> queries;  // per query connection
};

// Gap to the next arrival of a Poisson process of `rate` per second.
double ExponentialGap(util::Rng* rng, double rate) {
  // 1 - U lies in (0, 1], so the log is finite.
  return -std::log(1.0 - static_cast<double>(rng->Uniform())) / rate;
}

Schedule MakeSchedule(uint64_t seed, double seconds) {
  Schedule schedule;
  util::Rng ingest_rng(seed * 977);
  const int64_t samples = std::llround(kIngestPerSecond * seconds);
  double t = 0.0;
  for (int64_t i = 0; i < samples; ++i) {
    t += ExponentialGap(&ingest_rng, kIngestPerSecond);
    schedule.ingest_due_s.push_back(t);
  }
  const double rate = kQueriesPerSecond / kQueryConnections;
  const int64_t per_connection = std::llround(rate * seconds);
  for (int q = 0; q < kQueryConnections; ++q) {
    util::Rng rng(seed * 977 + static_cast<uint64_t>(q) + 1);
    std::vector<Query> queries;
    double t = 0.0;
    for (int64_t i = 0; i < per_connection; ++i) {
      t += ExponentialGap(&rng, rate);
      Query query;
      query.due_s = t;
      query.knn = rng.Bernoulli(0.5f);
      query.input = rng.UniformInt(0, kPoolSize - 1);
      queries.push_back(query);
    }
    schedule.queries.push_back(std::move(queries));
  }
  return schedule;
}

// The inputs of one instance: the ingest stream (cycle 0 first), the query
// pool and the clean split final_acc is measured on.
struct Inputs {
  std::vector<stream::StreamSample> stream;
  std::vector<std::vector<float>> pool;
  data::Task id_task;
};

util::Status MakeInputs(uint64_t seed, int64_t stream_samples, Inputs* out) {
  EDSR_TRACE_SPAN("data.generate");
  util::Result<stream::StreamBundle> made =
      stream::MakeStreamBundle(kPreset, seed);
  if (!made.ok()) return made.status();
  stream::StreamBundle bundle = std::move(made).ValueOrDie();
  out->stream = bundle.source->NextBatch(stream_samples);
  out->pool.clear();
  for (int64_t i = 0; i < kPoolSize; ++i) {
    const float* row = bundle.id_test.Row(i % bundle.id_test.size());
    out->pool.emplace_back(row, row + bundle.id_test.dim());
  }
  out->id_task.train = std::move(bundle.id_train);
  out->id_task.test = std::move(bundle.id_test);
  return util::Status::OK();
}

// One learn-and-serve instance. Shutdown order: clients, server (its ingest
// handler points into the daemon), daemon.
struct Service {
  std::string dir;
  std::unique_ptr<daemon::LearnServeDaemon> daemon;
  std::unique_ptr<serve::TcpServer> server;
  serve::ServeClient ingest;
  std::vector<std::unique_ptr<serve::ServeClient>> queries;
  uint64_t first_snapshot = 0;  // the snapshot id of cycle 0
  // The threads daemon->Start() created: the cycle thread and the serving
  // batch worker.
  std::vector<int> daemon_tids;

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() { Shutdown(); }

  void Shutdown() {
    ingest.Close();
    for (auto& client : queries) client->Close();
    if (server != nullptr) server->Stop();
    if (daemon != nullptr) daemon->Stop();
  }
};

// The thread ids of this process.
std::set<int> ThreadIds() {
  std::set<int> tids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.insert(std::atoi(entry.path().filename().c_str()));
  }
  return tids;
}

// CPU time (s) the given threads of this process have run so far, from
// their schedstat; -1 when one cannot be read.
double ThreadCpuSeconds(const std::vector<int>& tids) {
  double total_ns = 0.0;
  for (int tid : tids) {
    std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
    double run_ns = 0.0;
    if (!(in >> run_ns)) return -1.0;
    total_ns += run_ns;
  }
  return total_ns / 1e9;
}

bool WaitForServing(daemon::LearnServeDaemon* daemon, int64_t cycles,
                    uint64_t* snapshot_id) {
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) * 1e3 < kWaitMs) {
    serve::ServeHandle::HealthInfo health = daemon->handle()->Health();
    if (health.increments_seen >= cycles) {
      *snapshot_id = health.snapshot_id;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

util::Status StartService(const Options& opt, int index, const Inputs& inputs,
                          Service* service) {
  service->dir = opt.work_dir + "/daemon-" + std::to_string(index);
  std::error_code ec;
  std::filesystem::remove_all(service->dir, ec);
  daemon::DaemonOptions options;
  options.directory = service->dir;
  options.strategy = "edsr";
  options.preset = kPreset;
  options.trigger_spec = kTriggerSpec;
  options.micro_batch = kMicroBatch;
  options.seed = opt.seed;
  options.fsync_journal = false;
  service->daemon = std::make_unique<daemon::LearnServeDaemon>(options);
  const std::set<int> before = ThreadIds();
  EDSR_RETURN_NOT_OK(service->daemon->Start());
  for (int tid : ThreadIds()) {
    if (before.count(tid) == 0) service->daemon_tids.push_back(tid);
  }
  service->server =
      std::make_unique<serve::TcpServer>(service->daemon->handle());
  service->server->SetIngestHandler(service->daemon->MakeIngestHandler());
  EDSR_RETURN_NOT_OK(service->server->Start(0));
  const uint16_t port = service->server->port();
  EDSR_RETURN_NOT_OK(service->ingest.Connect(port));
  for (int q = 0; q < kQueryConnections; ++q) {
    service->queries.push_back(std::make_unique<serve::ServeClient>());
    EDSR_RETURN_NOT_OK(service->queries.back()->Connect(port));
  }
  // Cold start: the first cycle is part of set-up, so the timed phase never
  // meets a snapshot without a labeled memory bank.
  for (int64_t i = 0; i < kCycleSamples; ++i) {
    const stream::StreamSample& sample = inputs.stream[i];
    serve::ServeClient::IngestReply reply =
        service->ingest.Ingest(sample.observed_label, sample.features);
    EDSR_RETURN_NOT_OK(reply.status);
  }
  if (!WaitForServing(service->daemon.get(), 1, &service->first_snapshot)) {
    return util::Status::Internal("first cycle never swapped in");
  }
  return util::Status::OK();
}

struct Load {
  std::vector<double> serve_ms, ingest_ms, late_ms;
  std::map<uint64_t, double> ack_s;          // journal seq -> ack time
  std::map<uint64_t, double> first_reply_s;  // snapshot id -> first reply
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t ingested = 0;
  int64_t snapshot_regressions = 0;
  int64_t pending_max = 0;
};

// Per-connection record, merged into Load after the threads join.
struct ConnectionLog {
  std::vector<double> latency_ms, late_ms;
  std::map<uint64_t, double> times;  // ack_s or first_reply_s
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t regressions = 0;
};

// Waits until `due`: sleeps until kSpinUs before it, then spins, so the
// generator's own oversleep (timer slack and wake-up, tens to hundreds of
// microseconds on a loaded host) is not counted as request latency.
void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(kSpinUs));
  while (Clock::now() < due) {
  }
}

// Runs the open-loop schedule, ingesting from inputs.stream[first_sample...].
// Times are seconds since `epoch`.
Load RunLoad(Service* service, const Inputs& inputs, int64_t first_sample,
             const Schedule& schedule, Clock::time_point epoch,
             HostSpeed* speed) {
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto at = [&](double offset_s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s));
  };
  auto since = [](Clock::time_point tp, Clock::time_point base) {
    return std::chrono::duration<double>(tp - base).count();
  };
  std::atomic<int> running{1 + kQueryConnections};
  std::vector<ConnectionLog> logs(1 + kQueryConnections);

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    ConnectionLog& log = logs[0];
    const int64_t n = static_cast<int64_t>(schedule.ingest_due_s.size());
    for (int64_t i = 0; i < n; ++i) {
      const Clock::time_point due = at(schedule.ingest_due_s[i]);
      WaitUntil(due);
      const Clock::time_point sent = Clock::now();
      const stream::StreamSample& sample = inputs.stream[first_sample + i];
      serve::ServeClient::IngestReply reply =
          service->ingest.Ingest(sample.observed_label, sample.features);
      const Clock::time_point done = Clock::now();
      ++log.attempted;
      log.late_ms.push_back(since(sent, due) * 1e3);
      log.latency_ms.push_back(since(done, due) * 1e3);
      if (reply.status.ok()) {
        log.times[reply.seq] = since(done, epoch);
      } else {
        ++log.failed;
      }
    }
    --running;
  });
  for (int q = 0; q < kQueryConnections; ++q) {
    threads.emplace_back([&, q] {
      ConnectionLog& log = logs[1 + q];
      serve::ServeClient* client = service->queries[q].get();
      uint64_t last_snapshot = 0;
      for (const Query& query : schedule.queries[q]) {
        const Clock::time_point due = at(query.due_s);
        const std::vector<float>& input = inputs.pool[query.input];
        WaitUntil(due);
        const Clock::time_point sent = Clock::now();
        serve::EmbedResult result =
            query.knn ? client->KnnLabel(input) : client->Embed(input);
        const Clock::time_point done = Clock::now();
        ++log.attempted;
        log.late_ms.push_back(since(sent, due) * 1e3);
        log.latency_ms.push_back(since(done, due) * 1e3);
        if (!result.status.ok()) {
          ++log.failed;
          continue;
        }
        if (result.snapshot_id < last_snapshot) ++log.regressions;
        last_snapshot = result.snapshot_id;
        auto [it, inserted] =
            log.times.emplace(result.snapshot_id, since(done, epoch));
        if (!inserted) it->second = std::min(it->second, since(done, epoch));
      }
      --running;
    });
  }

  Load load;
  Clock::time_point next_probe = Clock::now();
  while (running.load() > 0) {
    load.pending_max = std::max(load.pending_max, service->daemon->pending());
    if (Clock::now() >= next_probe) {
      speed->Probe();
      next_probe = Clock::now() + std::chrono::milliseconds(kProbeEveryMs);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t c = 0; c < logs.size(); ++c) {
    ConnectionLog& log = logs[c];
    load.attempted += log.attempted;
    load.failed += log.failed;
    load.late_ms.insert(load.late_ms.end(), log.late_ms.begin(),
                        log.late_ms.end());
    if (c == 0) {
      load.ingest_ms = std::move(log.latency_ms);
      load.ack_s = std::move(log.times);
      load.ingested = log.attempted - log.failed;
      continue;
    }
    load.snapshot_regressions += log.regressions;
    load.serve_ms.insert(load.serve_ms.end(), log.latency_ms.begin(),
                         log.latency_ms.end());
    for (const auto& [id, t] : log.times) {
      auto [it, inserted] = load.first_reply_s.emplace(id, t);
      if (!inserted) it->second = std::min(it->second, t);
    }
  }
  return load;
}

// Freshness per timed cycle c >= 1: from the ack of the sample that fills
// it (journal seq kCycleSamples * (c + 1)) to the first query reply served
// from its snapshot (id first_snapshot + c; one swap per cycle). Cycles
// whose snapshot no reply saw are skipped.
std::vector<double> FreshnessMs(const Load& load, uint64_t first_snapshot,
                                int64_t cycles) {
  std::vector<double> fresh;
  for (int64_t c = 1; c < cycles; ++c) {
    auto ack = load.ack_s.find(static_cast<uint64_t>(kCycleSamples * (c + 1)));
    auto reply = load.first_reply_s.find(first_snapshot + c);
    if (ack == load.ack_s.end() || reply == load.first_reply_s.end()) continue;
    fresh.push_back((reply->second - ack->second) * 1e3);
  }
  return fresh;
}

int64_t CycleErrors() {
  auto& metrics = obs::MetricsRegistry::Global();
  return metrics.Has("daemon.err.cycle")
             ? static_cast<int64_t>(metrics.Value("daemon.err.cycle"))
             : 0;
}

}  // namespace

Report RunLearnServe(const Options& opt) {
  Report report;
  // The load schedules: one phase of --seconds, or (traced) an untraced and
  // a traced half.
  std::vector<Schedule> phases;
  if (!opt.trace) {
    phases.push_back(MakeSchedule(opt.seed, opt.seconds));
  } else {
    phases.push_back(MakeSchedule(opt.seed, opt.seconds / 2.0));
    phases.push_back(MakeSchedule(opt.seed + 1, opt.seconds / 2.0));
  }
  int64_t stream_samples = kCycleSamples;
  for (const Schedule& phase : phases) {
    stream_samples += static_cast<int64_t>(phase.ingest_due_s.size());
  }

  // Set-up, kSetups times; every instance but the last is torn down.
  // Raw and rescaled (common.h) set-up times.
  std::vector<double> setup_s, scaled_setup_s, generate_s;
  HostSpeed speed;
  speed.Probe();
  Inputs inputs;
  auto service = std::make_unique<Service>();
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) {
      std::string old_dir = service->dir;
      service.reset();
      std::error_code ec;
      std::filesystem::remove_all(old_dir, ec);
      service = std::make_unique<Service>();
    }
    Clock::time_point start = Clock::now();
    util::Status status = MakeInputs(opt.seed, stream_samples, &inputs);
    generate_s.push_back(SecondsSince(start));
    if (status.ok()) status = StartService(opt, k, inputs, service.get());
    setup_s.push_back(SecondsSince(start));
    speed.Probe();
    scaled_setup_s.push_back(setup_s.back() * speed.Factor());
    if (!status.ok()) {
      report.Check(false, "setup", status.ToString());
      report.attempted = 1;
      report.failed = 1;
      return report;
    }
  }

  const Clock::time_point epoch = Clock::now();
  int64_t errors = -CycleErrors();
  const double cpu_before = ThreadCpuSeconds(service->daemon_tids);
  const size_t first_load_probe = speed.probe_s().size();
  Load load;
  Load untraced;
  if (!opt.trace) {
    load = RunLoad(service.get(), inputs, kCycleSamples, phases[0], epoch,
                   &speed);
  } else {
    // Half untraced (the overhead baseline), then half traced.
    untraced = RunLoad(service.get(), inputs, kCycleSamples, phases[0], epoch,
                       &speed);
    errors += CycleErrors();
    obs::MetricsRegistry::Global().ResetCountersAndHistograms();
    errors -= CycleErrors();
    obs::Tracer::Reset();
    obs::Tracer::SetEnabled(true);
    Clock::time_point start = Clock::now();
    const int64_t sent = static_cast<int64_t>(untraced.ingest_ms.size());
    load = RunLoad(service.get(), inputs, kCycleSamples + sent, phases[1],
                   epoch, &speed);
    obs::Tracer::SetEnabled(false);
    report.Layer("trace.wall_s", SecondsSince(start), "s");
    report.registry = obs::MetricsRegistry::Global().ToJson();
    report.traced_units = 1;
  }

  // Drain: every full cycle of the acked samples must close and swap in.
  daemon::LearnServeDaemon* daemon = service->daemon.get();
  const int64_t acked = kCycleSamples + untraced.ingested + load.ingested;
  const int64_t cycles = acked / kCycleSamples;
  uint64_t last_snapshot = 0;
  report.Check(WaitForServing(daemon, cycles, &last_snapshot), "drain",
               "the daemon did not close and swap in all " +
                   std::to_string(cycles) + " cycles");
  errors += CycleErrors();
  const double cpu_after = ThreadCpuSeconds(service->daemon_tids);
  const int64_t consumed = daemon->consumed();
  report.Check(consumed == cycles * kCycleSamples &&
                   acked - consumed < kCycleSamples,
               "consumed",
               "acked " + std::to_string(acked) + " samples, consumed " +
                   std::to_string(consumed) +
                   "; only the trailing partial cycle may stay unconsumed");
  report.Check(load.snapshot_regressions + untraced.snapshot_regressions == 0,
               "snapshot_order",
               "a connection saw a snapshot id lower than an earlier one");
  for (const daemon::DaemonCycleResult& cycle : daemon->cycles()) {
    report.Check(std::isfinite(cycle.loss), "finite_losses",
                 "cycle " + std::to_string(cycle.cycle) + " loss not finite");
  }
  report.Check(errors == 0, "cycle_errors",
               std::to_string(errors) + " cycles failed to checkpoint or swap");
  report.attempted = load.attempted + untraced.attempted;
  report.failed = load.failed + untraced.failed + errors;

  // Final snapshot quality: the server is stopped first, so nothing else
  // forwards through the snapshot's encoder.
  service->server->Stop();
  serve::SnapshotHandle snapshot = daemon->handle()->registry()->Current();
  const double final_acc =
      snapshot != nullptr
          ? cl::EvaluateTask(snapshot->encoder(), inputs.id_task, {})
          : -1.0;
  report.Check(InUnitRange(final_acc), "final_acc",
               "final snapshot accuracy outside [0,1]");

  // Not gated, so printed as run information and reported per layer by the
  // traced run: the ingest p50, the p99 tails and freshness (on a shared
  // 4-vCPU host their run-to-run spread reached 0.26-0.57 of the median:
  // an ~80 us ingest round trip is mostly thread wake-ups, which follow
  // the host's load more than the program), and the serve p50, which is
  // steady here but has no counterpart on the workloads that do not serve,
  // and every gated metric must be measured on every workload.
  report.Info("final_acc", final_acc);
  report.Info("raw_setup_s", setup_s);
  report.Info("probe_s", speed.probe_s());
  report.Info("cycles", static_cast<double>(cycles));
  report.Info("daemon_threads",
              static_cast<double>(service->daemon_tids.size()));
  if (opt.trace) {
    // Set-up is untraced, so its data generation is timed directly; the
    // client-side latencies come from the untraced half.
    const std::vector<double> fresh =
        FreshnessMs(untraced, service->first_snapshot, cycles);
    report.Layer("fresh_p50_ms", Quantile(fresh, 0.5), "ms");
    report.Layer("fresh_p90_ms", Quantile(fresh, 0.9), "ms");
    report.Layer("data.generate_s", Median(generate_s), "s");
    report.Layer("gen.late_p99_ms", Quantile(load.late_ms, 0.99), "ms");
    report.Layer("daemon.pending_max", static_cast<double>(load.pending_max),
                 "count");
    std::error_code size_ec;
    const double checkpoint_bytes = static_cast<double>(
        std::filesystem::file_size(daemon->checkpoint_path(), size_ec));
    report.Layer("io.checkpoint_bytes", size_ec ? 0.0 : checkpoint_bytes,
                 "bytes");
    report.Layer("serve_p50_ms", Quantile(untraced.serve_ms, 0.5), "ms");
    report.Layer("serve_p99_ms", Quantile(untraced.serve_ms, 0.99), "ms");
    report.Layer("ingest_p50_ms", Quantile(untraced.ingest_ms, 0.5), "ms");
    report.Layer("ingest_p99_ms", Quantile(untraced.ingest_ms, 0.99), "ms");
    report.Layer("trace.overhead",
                 Median(load.serve_ms) / Median(untraced.serve_ms), "ratio");
  } else {
    const std::vector<double> fresh =
        FreshnessMs(load, service->first_snapshot, cycles);
    report.Check(!service->daemon_tids.empty() && cpu_before >= 0.0 &&
                     cpu_after > cpu_before,
                 "daemon_cpu",
                 "cannot read the CPU time of the daemon's threads");
    report.E2e("setup_s", Median(scaled_setup_s), "s");
    const std::vector<double> load_probes(
        speed.probe_s().begin() + static_cast<std::ptrdiff_t>(first_load_probe),
        speed.probe_s().end());
    report.E2e("run_s",
               (cpu_after - cpu_before) * kProbeReferenceS / Median(load_probes),
               "s");
    report.Info("raw_run_s", cpu_after - cpu_before);
    report.E2e("final_acc", final_acc, "ratio");
    report.Info("serve_requests", static_cast<double>(load.serve_ms.size()));
    report.Info("ingest_requests", static_cast<double>(load.ingest_ms.size()));
    report.Info("fresh_cycles", static_cast<double>(fresh.size()));
    report.Info("fresh_p50_ms", Quantile(fresh, 0.5));
    report.Info("fresh_p90_ms", Quantile(fresh, 0.9));
    report.Info("serve_p50_ms", Quantile(load.serve_ms, 0.5));
    report.Info("serve_p99_ms", Quantile(load.serve_ms, 0.99));
    report.Info("ingest_p50_ms", Quantile(load.ingest_ms, 0.5));
    report.Info("ingest_p99_ms", Quantile(load.ingest_ms, 0.99));
    report.Info("gen.late_p99_ms", Quantile(load.late_ms, 0.99));
    report.Info("daemon.pending_max", static_cast<double>(load.pending_max));
  }

  const std::string dir = service->dir;
  service.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return report;
}

}  // namespace e2e
