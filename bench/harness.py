"""Measurement loop, fresh-interpreter probes and run metadata.

Imported by run.py once ``src/`` is on ``sys.path``; importing this
module imports oupac.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import metrics
import ops
import oracles
import reference
import stats
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters behind each set-up and import-time figure.
STARTUP_REPEATS = 7
SUBPROCESS_TIMEOUT_S = 60

#: Op times are scaled by their reference kernels (see reference.py),
#: timed between ops at least every REFERENCE_EVERY_S.  Raw figures
#: stay in the metadata.
REFERENCE_EVERY_S = 0.2


@dataclass
class Measurement:
    """Everything the timed passes and the oracles found."""

    passes: int
    latencies: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    problems: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    totals: metrics.LayerTotals = field(default_factory=metrics.LayerTotals)
    spans: list[list] = field(default_factory=list)
    kernels: dict[str, list[float]] = field(default_factory=dict)
    scaled: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    last: dict[str, ops.Outcome] = field(default_factory=dict)
    unstable: set[str] = field(default_factory=set)


def timed_passes(op_list, passes: int, trace: bool) -> Measurement:
    """Run ``op_list`` ``passes`` times, every second pass traced when
    ``trace`` is set, with samples of the ops' reference kernels
    between ops."""
    m = Measurement(passes)
    tracer = tracing.Tracer()
    digests: dict[str, str] = {}
    m.kernels = {op.reference: [] for op in op_list}
    for kind in m.kernels:
        reference.kernel(kind)()
    last_reference = -math.inf
    bursts: dict[str, list[float]] = {kind: [] for kind in m.kernels}
    after_burst: list[int] = []
    kinds: list[str] = []

    def take_bursts():
        for kind, samples in m.kernels.items():
            bursts[kind].append(float(np.median(reference.sample(samples, kind))))

    start = time.perf_counter()
    for index in range(passes):
        traced = trace and index % 2 == 1
        if traced:
            tracer.install()
        try:
            pass_s = 0.0
            for op in op_list:
                if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                    take_bursts()
                    last_reference = time.perf_counter()
                tracer.op_id = op.op_id
                outcome = ops.execute(op)
                pass_s += outcome.latency
                m.latencies[traced].append(outcome.latency)
                if not traced:
                    after_burst.append(len(bursts[op.reference]))
                    kinds.append(op.reference)
                    m.by_kind.setdefault(op.kind, []).append(outcome.latency)
                if digests.setdefault(op.op_id, outcome.digest) != outcome.digest:
                    m.unstable.add(op.op_id)
                m.last[op.op_id] = outcome
        finally:
            tracer.uninstall()
        if traced:
            spans = tracer.take()
            m.totals.add_pass(spans, pass_s)
            m.spans = m.spans or spans
    take_bursts()
    m.wall_s = time.perf_counter() - start
    # each untraced op is scaled by the bursts of its kernel taken just
    # before and after it
    m.scaled = [latency * reference.scale(bursts[kind][i - 1:i + 1], kind)
                for latency, i, kind in zip(m.latencies[False], after_burst, kinds)]
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def measure(load: workloads.Workload, passes: int, trace: bool) -> Measurement:
    """Run the timed passes, then check the outputs of the last pass."""
    m = timed_passes(load.ops, passes, trace)
    ctx = oracles.Context(load.ops, ops.read_payload)
    for op in load.ops:
        found = oracles.check(op, m.last[op.op_id], ctx)
        if op.op_id in m.unstable:
            found.append(("determinism", "output bytes differ between passes"))
        if found:
            m.problems[op.op_id] = found
    return m


# ---------------------------------------------------------------------------
# fresh-interpreter measurements


def setup_samples(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, and each one's reference
    kernel median, timed after it reported ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    samples, kernels = [], []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            try:
                out, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if line.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err[-500:]}")
        samples.append(ready)
        kernels.append(float(out.split()[-1]))
    return samples, kernels


def import_samples() -> dict[str, list[float]]:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import oupac"
    samples: dict[str, list[float]] = {"oupac": [], "scipy": [], "numpy": []}
    for _ in range(STARTUP_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=SUBPROCESS_TIMEOUT_S, check=True)
        rows = stats.parse_importtime(done.stderr)
        for package in samples:
            samples[package].append(stats.package_import_s(rows, package))
    return samples


# ---------------------------------------------------------------------------
# metadata


def blas_info() -> dict:
    """BLAS library from numpy's build configuration, and the thread
    count OpenBLAS uses in this process."""
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas") or {}
    threads = reference.openblas_threads()
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads[0]() if threads else None}


def git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a
    git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((line.split()[0] for line in lines if line.endswith(" " + ref)), None)


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((SRC / "oupac").rglob("*.py")):
        sha.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# the run


def run(args) -> int:
    startup = import_samples() if args.trace else setup_samples(args.workload, args.seed)
    with ops.work_dir(args.workload) as work:
        load = workloads.build(args.workload, args.seed, work)
        ops.execute(load.warmup)
        m = measure(load, load.passes(args.seconds), bool(args.trace))

    attempted = m.passes * len(load.ops)
    failed = m.passes * len(m.problems)
    unexpected = sorted(op.op_id for op in load.ops
                        if any(category != op.defect
                               for category, _ in m.problems.get(op.op_id, ())))
    timed = m.latencies[False]
    tail_pct = stats.tail_percentile(len(timed))
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "loop": "closed, one client",
        "passes": m.passes,
        "ops_per_pass": len(load.ops),
        "op_count": attempted,
        "tail_percentile": tail_pct,
        "inputs_sha256": load.digest,
        "wall_s": m.wall_s,
        "latency_by_kind": {kind: {"ops": len(v), "p50_s": float(np.median(v)),
                                   "total_s": sum(v)} for kind, v in m.by_kind.items()},
        "error_rate": failed / attempted,
        "failed_ops": {op_id: [f"{c}: {msg}" for c, msg in found]
                       for op_id, found in m.problems.items()},
        "unexpected_failures": unexpected,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    if args.trace:
        ops_per_s = {traced: len(v) / sum(v) for traced, v in m.latencies.items()}
        imports = {f"import.{pkg}_s": float(np.median(v)) for pkg, v in startup.items()}
        values = m.totals.metrics(imports, 1.0 - ops_per_s[True] / ops_per_s[False])
        meta.update(import_samples_s=startup,
                    moves={name: metrics.MOVES[name] for name in metrics.PER_LAYER})
    else:
        setups, setup_kernels = startup
        raw = {
            "setup_s": float(np.median(setups)),
            "ops_per_s": len(timed) / sum(timed),
            "op_p50_s": float(np.median(timed)),
            "op_tail_s": float(np.percentile(timed, tail_pct)),
        }
        meta.update(setup_samples_s=setups, setup_kernel_s=setup_kernels,
                    reference_samples={k: len(v) for k, v in m.kernels.items()},
                    reference_median_s={k: float(np.median(v)) for k, v in m.kernels.items()},
                    speed_scale={k: reference.scale(v, k) for k, v in m.kernels.items()},
                    raw_metrics=raw)
        values = {
            # each set-up interpreter is scaled by its own kernel time
            "setup_s": float(np.median([t * reference.scale([k])
                                        for t, k in zip(setups, setup_kernels)])),
            "ops_per_s": len(m.scaled) / sum(m.scaled),
            "op_p50_s": float(np.median(m.scaled)),
            "op_tail_s": float(np.percentile(m.scaled, tail_pct)),
            "success_rate": 1.0 - failed / attempted,
            "peak_rss_mb": m.peak_rss_mb,
        }
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": metrics.UNITS[name]}
                    for name, v in values.items()},
    }
    save(args, meta, result, m.spans)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def save(args, meta: dict, result: dict, spans: list[list]) -> None:
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1))
    if spans:
        with open(out / f"{stem}-spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
