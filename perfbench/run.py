#!/usr/bin/env python3
"""The repo benchmark: cold planning, cell-grid planning and a loopback serve mix.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan-cold|plan-grid|serve-mix \\
        --seed N --seconds S --trace 0|1

The first run builds the mst library, the `mst` CLI and the benchmark
harness into $CARGO_TARGET_DIR (default .bench_build) with CMake. Each
workload runs in its own harness process; serve-mix also starts a fresh
`mst serve --listen 127.0.0.1:0` per run, with its own shared-memory
segment, and drains it with SIGTERM afterwards.

With --trace 0 the last line of standard output carries every end-to-end
metric; with --trace 1 it carries every per-layer metric. The lines above
it are diagnostics: the output digest, fail_ratio, the server's drain, and
(traced) each layer's share of self time. The exit status is 0 only when
every output matched its reference answer.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan-cold", "plan-grid", "serve-mix")
DEFAULT_SEED = 1

# (name, unit): the metrics the last output line carries, in order.
END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
]
PER_LAYER = [
    ("soc.parse_ms", "ms"),
    ("soc.resolve_us", "us"),
    ("soc.fingerprint_us", "us"),
    ("tables.build_ms", "ms"),
    ("tables.entries", "count"),
    ("tables.bytes", "bytes"),
    ("step1.ms", "ms"),
    ("step2.ms", "ms"),
    ("optimize.ms", "ms"),
    ("pack.calls", "count"),
    ("pack.greedy_passes", "count"),
    ("pack.cache_hit_ratio", "ratio"),
    ("pack.pruned_ratio", "ratio"),
    ("step2.site_points", "count"),
    ("pack.speedup_1_to_n", "ratio"),
    ("json.ms", "ms"),
    ("json.bytes", "bytes"),
    ("frame.us", "us"),
    ("proto.parse_us", "us"),
    ("service.run_ms", "ms"),
    ("memo.hit_ratio", "ratio"),
    ("memo.evictions", "count"),
    ("tables_cache.hit_ratio", "ratio"),
    ("tables_cache.evictions", "count"),
    ("shm.hit_ratio", "ratio"),
    ("shm.publishes", "count"),
    ("shm.fallbacks", "count"),
    ("shm.load_tables_ms", "ms"),
    ("shm.load_outcome_us", "us"),
    ("shm.publish_us", "us"),
    ("net.health_rtt_us", "us"),
    ("server.rejected", "count"),
    ("server.queue_high_water", "count"),
    ("trace.overhead_ms", "ms"),
]

# Threads inside a request, and client connections: the machine's
# width, at most 4.
LANES = max(1, min(4, len(os.sched_getaffinity(0))))
SERVE_SHM_BYTES = 256 << 20
HARNESS_TIMEOUT_S = 170
DRAIN_TIMEOUT_S = 20
SETUP_ROUNDS = 5


class BenchError(Exception):
    """A failure of the benchmark itself (build, server start)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    """Configure and build the harness and the mst CLI; return their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no mst sources next to {HERE.name}/: nothing to benchmark")
    bdir.mkdir(parents=True, exist_ok=True)
    # Configuring every time is cheap once cached, and keeps a build
    # directory made from older benchmark sources usable.
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(bdir), "-j", str(LANES),
         "--target", "perfbench_harness", "mst_cli"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(step))
    return bdir / "perfbench_harness", bdir / "mst" / "src" / "mst"


def run_harness(harness, args):
    """Run the harness; return its result line as a dict."""
    done = subprocess.run([str(harness), *args], stdout=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchError(f"harness exited with status {done.returncode}")
    return json.loads(lines[-1])


class Server:
    """One `mst serve --listen` process with its own shm segment."""

    def __init__(self, mst, bdir, tag):
        self.port_file = bdir / f"serve-{os.getpid()}-{tag}.port"
        self.shm_name = f"/mst-perfbench-{os.getpid()}-{tag}"
        self.port_file.unlink(missing_ok=True)
        started = time.perf_counter()
        with open(bdir / "serve.log", "a") as server_log:
            self.proc = subprocess.Popen(
                [str(mst), "serve", "--listen", "127.0.0.1:0", "--threads", str(LANES),
                 "--shm", str(SERVE_SHM_BYTES), "--shm-name", self.shm_name,
                 "--port-file", str(self.port_file)],
                stdout=subprocess.DEVNULL, stderr=server_log)
        deadline = started + 30
        while not self.port_file.is_file():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("mst serve did not come up")
            time.sleep(0.0005)
        self.ready_s = time.perf_counter() - started
        self.endpoint = self.port_file.read_text().strip()

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM, wait for the drain; return diagnostics."""
        started = time.perf_counter()
        drained = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                drained = False
                self.proc.kill()
                self.proc.wait()
        self.port_file.unlink(missing_ok=True)
        return {
            "exit": self.proc.returncode,
            "drain_s": round(time.perf_counter() - started, 4),
            "drained": drained,
            "shm_unlinked": not Path("/dev/shm" + self.shm_name).exists(),
        }


def run_serve_mix(harness, mst, bdir, base_args, traced):
    """Set up the server three times (median ready time is setup_s), keep
    the last one for the run, then drain it."""
    setups, diagnostics = [], []
    server = None
    try:
        for tag in range(SETUP_ROUNDS):
            if server is not None:
                diagnostics.append(server.stop())
            server = Server(mst, bdir, tag)
            setups.append(server.ready_s)
        result = run_harness(harness, base_args + ["--server", server.endpoint])
        rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            diagnostics.append(server.stop())
    if not traced:
        metrics = result["metrics"]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["rss_peak_mb"] = {"value": rss_mb, "unit": "MB"}
    for diagnostic in diagnostics:
        log("serve drain:", json.dumps(diagnostic))
        if not diagnostic["shm_unlinked"]:
            result["notes"].append("shm segment left behind after the drain")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bdir = build_dir()
        harness, mst = build(bdir)
        traces = bdir / "traces"
        traces.mkdir(exist_ok=True)
        base_args = ["run", "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--threads", str(LANES),
                     "--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
        if args.workload == "serve-mix":
            result = run_serve_mix(harness, mst, bdir, base_args, args.trace == 1)
        else:
            result = run_harness(harness, base_args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as error:
        log("perfbench:", error)
        return 2

    for note in result["notes"]:
        print(note)
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    for name in ("setup_s", "rss_peak_mb"):
        if name in result["metrics"]:
            metric = result["metrics"][name]
            print(f"{name} {metric['value']:.6g} {metric['unit']}")

    measured = result["metrics"]
    wanted = PER_LAYER if args.trace else END_TO_END
    unknown = sorted(set(measured) - {name for name, _ in wanted})
    if unknown:
        log("perfbench: harness reported undeclared metrics:", ", ".join(unknown))
        return 2
    metrics = {}
    for name, unit in wanted:
        # A layer the workload never calls did no work: 0.
        value = measured.get(name, {"value": 0.0})["value"]
        metrics[name] = {"value": value, "unit": unit}
    correct = bool(result["correct"]) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
