// ServeHandle: the in-process serving facade.
//
// Wires the three serving pieces together behind four endpoints:
//
//   Embed(x)     -> representation under the current snapshot
//                   (cache lookup -> micro-batched forward on miss)
//   KnnLabel(x)  -> nearest-neighbour label from the snapshot's replay-
//                   memory bank (always batched; rides the same forward)
//   Health()     -> liveness + current snapshot identity
//   StatsJson()  -> serve.* metrics, cache/queue state, snapshot info
//
// Snapshots come from EDSRBOX1 run checkpoints (LoadAndSwap: processes that
// only read checkpoints, e.g. serve_embeddings), from a model already in
// memory (registry()->Install of a SnapshotPayloadFromState payload: the
// learn-and-serve daemon, which never reads back the checkpoint it writes),
// or from parts built in-process (InstallSnapshot — tests and benches).
// Every path builds the new snapshot fully, knn bank embedded, *before* the
// registry pointer flips, so the swap window is one mutex acquisition and
// in-flight batches finish on the old weights.
//
// The loopback TCP front end for these endpoints lives in tcp_server.h.
#ifndef EDSR_SRC_SERVE_SERVER_H_
#define EDSR_SRC_SERVE_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/serve/batcher.h"
#include "src/serve/cache.h"
#include "src/serve/snapshot.h"

namespace edsr::serve {

struct ServeOptions {
  BatcherOptions batcher;
  int64_t cache_capacity = 1024;  // entries; 0 disables the cache
  // How snapshots are built: the encoder architecture LoadAndSwap reads
  // into, and the kNN bank / int8 settings every install applies.
  SnapshotLoadOptions load;
};

class ServeHandle {
 public:
  explicit ServeHandle(const ServeOptions& options);
  ~ServeHandle();
  ServeHandle(const ServeHandle&) = delete;
  ServeHandle& operator=(const ServeHandle&) = delete;

  // Loads a run checkpoint and atomically swaps it in as the serving
  // snapshot. Safe to call while requests are in flight; returns a clean
  // error (and keeps the previous snapshot) on a missing/corrupt file.
  util::Status LoadAndSwap(const std::string& checkpoint_path);

  // Installs an in-process snapshot (tests, benches). `memory_features` is
  // a flattened (labels.size(), input_dim) row block for the KnnLabel bank;
  // pass empty vectors for an embed-only snapshot.
  SnapshotHandle InstallSnapshot(std::unique_ptr<ssl::Encoder> encoder,
                                 std::vector<float> memory_features,
                                 std::vector<int64_t> memory_labels,
                                 std::string source);

  // Blocking request paths; safe from any number of threads.
  //
  // With `trace == nullptr` (in-process callers) a request-scoped
  // TraceContext is created internally and recorded on return, so the
  // serve.lat.<class> / serve.stage.* latency histograms cover every
  // request. The TCP front end passes its own context (carrying the
  // server-assigned rid and the frame-accept stamp) and records it after
  // the reply is written.
  EmbedResult Embed(const std::vector<float>& input,
                    TraceContext* trace = nullptr);
  EmbedResult KnnLabel(const std::vector<float>& input,
                       TraceContext* trace = nullptr);

  struct HealthInfo {
    bool ok = false;  // a snapshot is installed and the worker is accepting
    uint64_t snapshot_id = 0;
    int64_t increments_seen = 0;
    std::string source;
    int64_t queue_depth = 0;
  };
  HealthInfo Health() const;

  // {"snapshot":{...},"queue_depth":..,"cache":{...},"metrics":{...}} —
  // the metrics sub-object is the global registry snapshot, so serve.*
  // counters appear exactly as they do in run records.
  obs::Json StatsJson() const;

  SnapshotRegistry* registry() { return &registry_; }
  RepresentationCache* cache() { return &cache_; }
  MicroBatcher* batcher() { return batcher_.get(); }
  const ServeOptions& options() const { return options_; }

 private:
  EmbedResult Roundtrip(const std::vector<float>& input, bool want_label,
                        TraceContext* trace);

  ServeOptions options_;
  SnapshotRegistry registry_;
  RepresentationCache cache_;
  std::unique_ptr<MicroBatcher> batcher_;
};

}  // namespace edsr::serve

#endif  // EDSR_SRC_SERVE_SERVER_H_
