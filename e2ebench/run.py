#!/usr/bin/env python3
"""End-to-end benchmark of the EDSR library.

    python3 e2ebench/run.py --workload <edsr_seq|stream_dirty|learn_serve> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a repository checkout. The first call configures and
builds e2ebench/ (which compiles the library from src/) into
.bench_build/e2ebench; later calls reuse that build. The runner pins the
program's environment (EDSR_NUM_THREADS=1, EDSR_SIMD=auto,
EDSR_LOG_LEVEL=warning) so the caller's shell cannot change what is measured,
runs the workload, prints one line with the host context (CPU, pinned
environment, the steal share and clock speed seen while it ran, and the
median host-speed probe the program's timings were rescaled by), and prints
as its last line one JSON object:

    {"correct": bool, "attempted": n, "failed": n,
     "metrics": {name: {"value": x, "unit": u}, ...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json, on every
workload. --trace 1 reports every per-layer metric, taken from the traced
half of a separate run: span events (durations, percentiles and self time
per span) and the metrics registry, plus the tracing overhead and how much
of the wall time the spans cover. A layer a workload does not run reports 0,
and the run lists those metrics as not_applicable. The exit code is 0 only when the program finished and every output
check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "edsr_e2e")
WORKLOADS = ("edsr_seq", "stream_dirty", "learn_serve")
CHILD_TIMEOUT_S = 170

PINNED_ENV = {
    "EDSR_NUM_THREADS": "1",
    "EDSR_SIMD": "auto",
    "EDSR_LOG_LEVEL": "warning",
}

# Source module (layer) of every span the library or this benchmark opens.
# Benchmark spans are named <layer>.<call>; library spans by their site.
LAYER_OF_SPAN = {
    "data.generate": "data",
    "cl.increment": "cl",
    "learn_increment": "cl",
    "epoch": "cl",
    "batch": "cl",
    "stream_begin_cycle": "cl",
    "stream_end_cycle": "cl",
    "teacher_snapshot": "cl",
    "augmentation_variance": "cl",
    "gradient_features": "cl",
    "retrieval_representations": "cl",
    "replay": "core",
    "selection": "core",
    "eval.task": "eval",
    "eval_task": "eval",
    "extract_representations": "eval",
    "knn_eval": "eval",
    "stream.run": "stream",
    "stream_cycle": "stream",
    "stream_eval": "stream",
    "stream_checkpoint_save": "stream",
    "container_write": "io",
    "container_read": "io",
    "serve_request": "serve",
    "serve_batch": "serve",
    "serve_load_and_swap": "serve",
    "serve_load_snapshot": "serve",
    "serve_install_snapshot": "serve",
}
LAYERS = ("data", "cl", "core", "eval", "stream", "io", "serve")

# Work that no public call or library span separates yet; its time is inside
# the self time of the span named here. Printed with every traced run.
UNMEASURED = {
    "train step views/forward/loss/backward/step": "no span inside "
    "ContinualStrategy::TrainOnBatch; all of it is self time of 'batch'",
    "stream source transforms": "drawn inside RunStream with no span; self "
    "time of 'stream_cycle'",
    "drift probe": "BufferDrift runs inside the cycle loop with no span; self "
    "time of 'stream_cycle' (stream_dirty) or of the daemon cycle thread "
    "(learn_serve)",
}


def fail(message, code=2):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds edsr_e2e; build output goes to a log."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "edsr_e2e",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)


def cpu_info():
    """CPU model and mean clock (MHz) over the CPUs /proc/cpuinfo lists."""
    model, mhz = "", []
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and not model:
                    model = value.strip()
                elif key == "cpu MHz":
                    mhz.append(float(value))
    except (OSError, ValueError):
        pass
    return model, (sum(mhz) / len(mhz) if mhz else 0.0)


def cpu_jiffies():
    """(steal, total) jiffies of the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def host_context(program_host, before, report_info):
    """The host the run saw: CPU, clock at start and end, the share of CPU
    time stolen by the hypervisor while it ran, and the median host-speed
    probe (a fixed memory pass; see e2ebench/common.h)."""
    model, mhz_end = cpu_info()
    steal, total = cpu_jiffies()
    context = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
               "cpu_mhz_start": before["mhz"], "cpu_mhz_end": mhz_end,
               "steal_share": ((steal - before["steal"]) /
                               max(1, total - before["total"]))}
    probes = report_info.get("probe_s", [])
    if probes:
        context["probe_ms"] = quantile(probes, 0.5) * 1e3
    context.update(program_host)
    context["env"] = dict(PINNED_ENV)
    return context


def quantile(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def span_profile(events):
    """Per span name: durations (ms) and total self time (ms), and per thread
    the total self time. Self time = duration minus the time covered by
    direct children on the same thread."""
    durations = defaultdict(list)
    self_ms = defaultdict(float)
    thread_self = defaultdict(lambda: defaultdict(float))
    by_tid = defaultdict(list)
    for event in events:
        by_tid[event["tid"]].append(event)
    for tid, spans in by_tid.items():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []

        def close(frame):
            own = max(0.0, frame["dur"] - frame["children"]) / 1e3
            self_ms[frame["name"]] += own
            thread_self[tid][frame["name"]] += own

        for span in spans:
            while stack and stack[-1]["end"] <= span["ts"]:
                close(stack.pop())
            if stack:
                stack[-1]["children"] += span["dur"]
            stack.append({"name": span["name"], "dur": span["dur"],
                          "end": span["ts"] + span["dur"], "children": 0.0})
            durations[span["name"]].append(span["dur"] / 1e3)
        while stack:
            close(stack.pop())
    return durations, self_ms, thread_self


# The metrics of BENCHMARK.json, by name and unit. Every run reports every
# metric of its kind, on every workload.
END_TO_END = {"setup_s": "s", "run_s": "s", "final_acc": "ratio"}
PER_LAYER = {
    "trace.overhead": "ratio", "trace.coverage": "ratio",
    "trace.dropped_events": "count",
    **{"self_share." + layer: "ratio" for layer in LAYERS + ("other",)},
    "data.generate_s": "s", "cl.increment_ms": "ms", "cl.step_ms_p50": "ms",
    "cl.step_ms_p99": "ms", "cl.steps": "count",
    "cl.teacher_snapshot_ms": "ms", "cl.final_fgt": "ratio",
    "core.replay_ms": "ms", "core.selection_ms": "ms",
    "tensor.gemm_share": "ratio", "tensor.gemm_gflops": "GFLOP/s",
    "tensor.gemm_calls_per_step": "count", "tensor.pairwise_gflop": "GFLOP",
    "eval.task_ms": "ms", "eval.extract_ms": "ms", "eval.knn_ms": "ms",
    "stream.cycle_ms": "ms", "stream.probe_ms": "ms",
    "stream.end_cycle_ms": "ms", "stream.cycles": "count",
    "stream.drift_fires": "count", "io.checkpoint_ms": "ms",
    "io.checkpoint_bytes": "bytes",
    "daemon.ingest_us_p50": "us", "daemon.ingest_us_p99": "us",
    "daemon.cycle_ms_p50": "ms", "daemon.cycle_ms_p99": "ms",
    "daemon.pending_max": "count",
    **{"serve.%s_us_%s" % (stage, q): "us"
       for stage in ("accept", "queue", "forward", "reply")
       for q in ("p50", "p99")},
    "serve.batch_rows": "count", "serve.cache_hit_rate": "ratio",
    "serve.swap_ms": "ms", "serve.overloaded": "count",
    "serve_p50_ms": "ms", "serve_p99_ms": "ms", "ingest_p50_ms": "ms", "ingest_p99_ms": "ms",
    "fresh_p50_ms": "ms", "fresh_p90_ms": "ms", "gen.late_p99_ms": "ms",
}

# Per-layer metrics of the serving path and its load, which only
# learn_serve runs.
SERVE_METRICS = tuple(
    name for name in PER_LAYER
    if name.startswith(("serve", "ingest_", "fresh_", "gen.")))

# Per-layer metrics of work a workload does not do. They are reported as 0
# (the layer did none of it) and listed with the traced run's output.
NOT_APPLICABLE = {
    "edsr_seq": (
        "stream.cycle_ms", "stream.probe_ms", "stream.end_cycle_ms",
        "stream.cycles", "stream.drift_fires", "io.checkpoint_ms",
        "io.checkpoint_bytes", "daemon.ingest_us_p50", "daemon.ingest_us_p99",
        "daemon.cycle_ms_p50", "daemon.cycle_ms_p99", "daemon.pending_max",
        *SERVE_METRICS),
    "stream_dirty": (
        "cl.increment_ms", "cl.final_fgt", "eval.task_ms",
        "daemon.ingest_us_p50", "daemon.ingest_us_p99",
        "daemon.cycle_ms_p50", "daemon.cycle_ms_p99", "daemon.pending_max",
        *SERVE_METRICS),
    "learn_serve": (
        "cl.increment_ms", "cl.final_fgt", "eval.task_ms", "eval.extract_ms",
        "eval.knn_ms", "stream.cycle_ms", "stream.probe_ms", "stream.cycles",
        "stream.drift_fires"),
}


def layer_metrics(workload, report):
    """Every per-layer metric of one traced run. Span-derived figures come
    out as 0 when no span of that name ran."""
    with open(report["trace_file"]) as trace:
        events = json.load(trace)["traceEvents"]
    durations, self_ms, thread_self = span_profile(events)
    registry = report["registry"]
    counters = registry.get("counters", {})
    gauges = registry.get("gauges", {})
    latency = registry.get("latency", {})
    units = max(1, report["traced_units"])
    out = {name: {"value": 0.0, "unit": unit}
           for name, unit in PER_LAYER.items()}

    def put(name, value):
        out[name] = {"value": value, "unit": PER_LAYER[name]}

    def ratio(num, den):
        return num / den if den else 0.0

    def p50(span):
        return quantile(durations.get(span, []), 0.5)

    def per_call(span, calls=None):
        spans = durations.get(span, [])
        return ratio(sum(spans), calls if calls is not None else len(spans))

    def lat(name, field):
        return latency.get(name, {}).get(field, 0.0)

    # Values the program measured itself (results, sizes, client latencies).
    for name, metric in report["layer"].items():
        if name in PER_LAYER:
            put(name, metric["value"])
    if "data.generate" in durations:
        put("data.generate_s", per_call("data.generate") / 1e3)
    put("trace.dropped_events", report["dropped_events"])

    if workload == "learn_serve":
        # The daemon's cycle thread is the one that opens training cycles;
        # its spans are measured against the total cycle time it reports.
        cycle_tid = next((tid for tid, spans in thread_self.items()
                          if "stream_begin_cycle" in spans), None)
        measured_self = thread_self.get(cycle_tid, {})
        wall_ms = lat("daemon.lat.cycle", "sum_us") / 1e3
    else:
        measured_self = self_ms
        wall_ms = report["layer"]["trace.wall_s"]["value"] * 1e3
    layer_self = defaultdict(float)
    for span, ms in measured_self.items():
        layer_self[LAYER_OF_SPAN.get(span, "other")] += ms
    put("trace.coverage", ratio(sum(layer_self.values()), wall_ms))
    for layer in LAYERS + ("other",):
        put("self_share." + layer, ratio(layer_self[layer], wall_ms))

    steps = len(durations.get("batch", []))
    batch_ms = sum(durations.get("batch", []))
    put("cl.increment_ms", p50("cl.increment"))
    put("cl.step_ms_p50", p50("batch"))
    put("cl.step_ms_p99", quantile(durations.get("batch", []), 0.99))
    put("cl.steps", steps / units)
    put("cl.teacher_snapshot_ms", per_call("teacher_snapshot"))
    put("core.replay_ms", per_call("replay", steps))
    put("core.selection_ms", per_call("selection"))
    # GEMM time counts every GEMM of the run, evaluation and serving
    # included, against the time of the train steps; on stream_dirty and
    # learn_serve, whose probes and queries run GEMMs outside the train
    # steps, the share can exceed 1.
    gemm_ns = counters.get("kernels.gemm.ns", 0)
    put("tensor.gemm_share", ratio(gemm_ns, batch_ms * 1e6))
    put("tensor.gemm_gflops",
        ratio(counters.get("kernels.gemm.flops", 0), gemm_ns))
    put("tensor.gemm_calls_per_step",
        ratio(counters.get("kernels.gemm.calls", 0), steps))
    put("tensor.pairwise_gflop",
        counters.get("kernels.pairwise.flops", 0) / units / 1e9)
    put("eval.task_ms", p50("eval.task"))
    put("eval.extract_ms", per_call("extract_representations"))
    put("eval.knn_ms", per_call("knn_eval"))
    put("stream.cycle_ms", p50("stream_cycle"))
    put("stream.probe_ms", p50("stream_eval"))
    put("stream.end_cycle_ms", p50("stream_end_cycle"))
    put("io.checkpoint_ms", p50("stream_checkpoint_save")
        if "stream_checkpoint_save" in durations else p50("container_write"))
    put("daemon.ingest_us_p50", lat("daemon.lat.ingest", "p50_us"))
    put("daemon.ingest_us_p99", lat("daemon.lat.ingest", "p99_us"))
    put("daemon.cycle_ms_p50", lat("daemon.lat.cycle", "p50_us") / 1e3)
    put("daemon.cycle_ms_p99", lat("daemon.lat.cycle", "p99_us") / 1e3)
    for stage in ("accept", "queue", "forward", "reply"):
        name = "serve.stage." + stage
        put("serve.%s_us_p50" % stage, lat(name, "p50_us"))
        put("serve.%s_us_p99" % stage, lat(name, "p99_us"))
    put("serve.batch_rows", registry.get("histograms", {})
        .get("serve.batch_size", {}).get("mean", 0.0))
    put("serve.cache_hit_rate", gauges.get("serve.cache.hit_rate", 0.0))
    put("serve.swap_ms", p50("serve_load_and_swap"))
    put("serve.overloaded", counters.get("serve.overloaded", 0))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    work_dir = os.path.join(ROOT, ".bench_build", "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    out_path = os.path.join(work_dir, "report.json")
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ)
    env.update(PINNED_ENV)
    steal, total = cpu_jiffies()
    before = {"mhz": cpu_info()[1], "steal": steal, "total": total}
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work_dir", work_dir, "--out", out_path]
    try:
        child = subprocess.Popen(command, env=env, cwd=ROOT,
                                 stdout=subprocess.DEVNULL)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            fail("%s did not finish within %d s" % (args.workload,
                                                     CHILD_TIMEOUT_S), 3)
        if code != 0:
            fail("edsr_e2e exited with code %d" % code, 3)
        with open(out_path) as handle:
            report = json.load(handle)
        if args.trace:
            metrics = layer_metrics(args.workload, report)
            if report["dropped_events"] != 0:
                report["correct"] = False
                report["checks"].append({
                    "check": "dropped_events",
                    "detail": "the tracer dropped %d events, so the span "
                              "figures are incomplete"
                              % report["dropped_events"]})
        else:
            metrics = report["e2e"]
        kinds = PER_LAYER if args.trace else END_TO_END
        named = {name: unit for name, unit in kinds.items()
                 if metrics.get(name, {}).get("unit") == unit}
        if len(named) != len(kinds) or len(metrics) != len(kinds):
            report["correct"] = False
            report["checks"].append({
                "check": "metric_names",
                "detail": "reported %s, expected %s" % (
                    sorted(metrics), sorted(kinds))})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"host": host_context(report["host"], before,
                                           report["info"])}))
    print(json.dumps({"info": report["info"]}))
    if args.trace:
        print(json.dumps({"unmeasured": UNMEASURED,
                          "not_applicable": NOT_APPLICABLE[args.workload]}))
    for check in report["checks"]:
        print("e2ebench: check failed: %s: %s" % (check["check"],
                                                 check["detail"]),
              file=sys.stderr)
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()
