"""Service benchmark: closed-loop workloads against ``DictionaryService``.

Usage, from the repository root::

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs, each in a fresh process.
With ``--trace 0`` a run repeats passes (fresh set-up, then every request
once) until ``--seconds`` are used, and reports the end-to-end metrics.
With ``--trace 1`` it runs one untraced pass and one traced pass and
reports the per-layer split (see ``tracer.py``).  Every result is checked
against the generator's expectation; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when any check fails.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Predicted zeros per workload: layers that should do no work there, so
#: a later "should not move" claim can be checked against the trace.
#: Every per-layer metric of such a layer reads 0.
PREDICTED_ZEROS = {
    "mixed-bulk": ("cache", "journal"),
    "cached-hot-read": ("journal",),
    "durable-small-epoch": ("cache",),
}
#: Share of traced request wall time the layer spans must cover.
COVERAGE_GATE = 0.95
#: Percentile, across a run's passes, that each request's time keeps.
PASS_PERCENTILE = 75


def say(line: str) -> None:
    print(line, flush=True)


def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else ref[5:]


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def reset_peak_rss() -> str:
    """Reset the VmHWM high-water mark; returns how peak RSS is measured."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return "VmHWM after reset"
    except OSError:
        return "ru_maxrss (no reset: includes input generation)"


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stamp(workload, args, passes: int, rss_method: str, gen_s: float, executor: str):
    import harness

    rev = git_rev()
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **({"git_rev": rev} if rev else {"src_sha256": source_digest()}),
        "executor": executor,
        "flush_policy": workload.flush_policy,
        "peak_rss": rss_method,
        "generate_s": round(gen_s, 4),
        "config": {
            "shards": harness.SHARDS,
            "b": harness.B,
            "m": harness.M,
            **dataclasses.asdict(workload),
        },
    }


def run_untraced(workload, inputs, seconds: int, workdir: Path):
    """Passes until another one would overrun ``seconds`` (at least one)."""
    import harness

    passes = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(harness.run_pass(workload, inputs, workdir / f"pass-{len(passes)}"))
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            return passes


def end_to_end(workload, inputs, passes) -> dict:
    ops = inputs.ops
    # The host's speed switches between a contended state and one about
    # 1.5x faster.  The fast state comes in bursts whose share of a run
    # changes from minute to minute, so a statistic that keeps it (the
    # fastest pass, per-request minima) moves with that share; the
    # contended state shows in every run.  So each request keeps the
    # upper quartile of its times across passes, which also drops rare
    # spikes, and throughput and the latency percentiles are taken over
    # those.  Set-up is the median of the passes' set-up times.
    per_request = np.percentile([p.latencies for p in passes], PASS_PERCENTILE, axis=0)
    first = passes[0]
    return {
        "throughput_kops": (ops / per_request.sum() / 1e3, "kops"),
        "latency_p50_ms": (float(np.percentile(per_request, 50)) * 1e3, "ms"),
        "latency_p99_ms": (float(np.percentile(per_request, 99)) * 1e3, "ms"),
        "io_per_op": (first.io_total / ops, "io/op"),
        "space_amp": (first.space_amp, "words/key"),
        "setup_s": (float(np.median([p.setup_s for p in passes])), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def per_layer(workload, inputs, plain, traced, tracer) -> tuple[dict, float]:
    """The per-layer metrics and the share of request time layers cover."""
    ops = inputs.ops
    rows = np.asarray(tracer.request_self[: inputs.requests])
    wall = rows.sum(axis=1)
    total = float(wall.sum())
    out = {}
    for i, layer in enumerate(LAYERS):
        self_s = float(rows[:, i].sum())
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.share"] = (self_s / total, "fraction")
    unattributed = float(rows[:, len(LAYERS)].sum()) / total
    out["epochs.count"] = (traced.epochs, "count")
    out["epochs.fill"] = (ops / traced.epochs / workload.request_ops, "fraction")
    for kind in ("insert", "lookup", "delete"):
        out[f"tables.{kind}_s"] = (tracer.table_s[kind], "s")
    for kind in ("insert", "lookup", "delete"):
        keys = tracer.table_keys[kind]
        out[f"tables.io_per_{kind}"] = (
            tracer.table_io[kind] / keys if keys else 0.0,
            "io/op",
        )
    layer_calls = dict(zip(LAYERS, tracer.calls))
    reads, writes, _ = traced.io
    out["disk.calls"] = (layer_calls["disk"], "count")
    out["disk.reads_per_op"] = (reads / ops, "io/op")
    out["disk.writes_per_op"] = (writes / ops, "io/op")
    hits, misses, evictions = traced.cache
    out["cache.hit_rate"] = (hits / (hits + misses) if hits + misses else 0.0, "fraction")
    out["cache.evictions_per_op"] = (evictions / ops, "1/op")
    out["backend.calls"] = (layer_calls["backend"], "count")
    out["journal.fsync_s"] = (tracer.inclusive_seconds("os.fsync"), "s")
    out["journal.fsyncs"] = (tracer.count("os.fsync"), "count")
    out["journal.bytes_per_op"] = (traced.journal_bytes / ops, "B/op")
    out["trace.overhead"] = (plain.timed_s / traced.timed_s, "ratio")
    out["trace.unattributed_share"] = (unattributed, "fraction")
    slow = np.argsort(wall)[-max(1, math.ceil(0.01 * len(wall))) :]
    tail_wall = float(wall[slow].sum())
    for i, layer in enumerate(LAYERS):
        out[f"tail.{layer}.share"] = (float(rows[slow, i].sum()) / tail_wall, "fraction")
    return out, 1.0 - unattributed


def trace_gate(workload, tracer, coverage: float) -> list[str]:
    """Why the traced layer split cannot be trusted; empty when it can.

    Coverage alone cannot fail while every layer runs on the client's
    thread (the service span takes whatever no deeper span covers), so
    each layer must also record calls exactly when it is not a predicted
    zero, and no layer may have run on another thread.
    """
    errors = []
    if coverage < COVERAGE_GATE:
        errors.append(f"layer spans cover {coverage:.4f} of request wall time")
    zeros = PREDICTED_ZEROS[workload.name]
    for layer, calls, foreign in zip(LAYERS, tracer.calls, tracer.foreign_calls):
        if foreign:
            errors.append(f"{layer}: {foreign} calls ran off the client's thread, untimed")
        if layer in zeros and calls:
            errors.append(f"{layer}: predicted to do no work, but made {calls} calls")
        if layer not in zeros and not calls:
            errors.append(f"{layer}: made no traced calls")
    return errors


def run_workload(args) -> int:
    import harness

    workload = WORKLOADS[args.workload]
    say(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    t = time.perf_counter()
    inputs = generate(workload, args.seed)
    gen_s = time.perf_counter() - t
    rss_method = reset_peak_rss()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=OUT))
    # Durable arenas make their own temporary directories: keep them
    # inside the work directory, which is removed when the run ends.
    tempfile.tempdir = str(workdir)
    try:
        if args.trace:
            plain = harness.run_pass(workload, inputs, workdir / "plain")
            tracer = Tracer(inputs.requests)
            traced = harness.run_pass(workload, inputs, workdir / "traced", tracer)
            passes = [plain, traced]
        else:
            passes = run_untraced(workload, inputs, args.seconds, workdir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for p in passes for e in p.errors]
    attempted = inputs.ops * len(passes)
    failed = sum(p.failed for p in passes)
    first = passes[0]
    for i, p in enumerate(passes[1:], 1):
        if (p.io, p.space_amp, p.size) != (first.io, first.space_amp, first.size):
            errors.append(
                f"pass {i} charged {p.io} I/O (space {p.space_amp}, size {p.size}); "
                f"pass 0 charged {first.io} (space {first.space_amp}, size {first.size})"
            )
    if args.trace:
        metrics, coverage = per_layer(workload, inputs, passes[0], passes[1], tracer)
        tracer.save(OUT / f"trace-{workload.name}.npz")
        gate = trace_gate(workload, tracer, coverage)
        errors += gate
        say(f"# layer calls: {json.dumps(dict(zip(LAYERS, tracer.calls)))}")
        say(f"# predicted zeros {list(PREDICTED_ZEROS[workload.name])}, "
            f"coverage {coverage:.4f} (gate {COVERAGE_GATE}): "
            f"{'pass' if not gate else 'FAIL'}")
    else:
        metrics = end_to_end(workload, inputs, passes)
    say("# stamp " + json.dumps(stamp(workload, args, len(passes), rss_method, gen_s,
                                      first.executor)))
    for i, p in enumerate(passes):
        say(f"# pass {i}: setup_s={p.setup_s:.4f} timed_s={p.timed_s:.4f} "
            f"kops={inputs.ops / p.timed_s / 1e3:.2f} epochs={p.epochs} "
            f"io={p.io_total} failed={p.failed}")
    say(f"# latency samples: {inputs.requests} requests x {len(passes)} passes, "
        f"p{PASS_PERCENTILE} across passes per request")
    for error in errors:
        sys.stderr.write(f"perfbench: {error}\n")
    error_rate = failed / attempted
    for name, (value, unit) in metrics.items():
        say(f"{workload.name} {name} = {value:.6g} {unit}")
    say(f"{workload.name} error_rate = {error_rate:.6g} fraction "
        f"({failed} of {attempted} ops failed)")
    correct = failed == 0 and not errors
    say(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main() -> int:
    # Turn a termination request into an exit, so the work directory is
    # still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        code = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
            code = max(code, subprocess.run(cmd, check=False).returncode)
        return code
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.stderr.write(f"perfbench: the program is not under {src}\n")
        return 2
    sys.path.insert(0, str(src))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
