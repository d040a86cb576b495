"""Executing one op in process, and the set-up probe.

The set-up probe (``run.py --probe-setup``) imports this module and
``workloads`` and nothing else of the benchmark, so ``setup_s`` counts
oupac's own imports and none of the benchmark's (scipy for the oracles,
tracing, metadata).  Importing this module imports oupac.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oupac.cli
import oupac.linalg

import workloads

HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    """What one execution of an op produced."""

    latency: float
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    error: str = ""
    digest: str = ""
    result: np.ndarray | None = None


@contextlib.contextmanager
def work_dir(workload: str):
    base = HERE / "_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def execute(op: workloads.Op) -> Outcome:
    """Run one op in process; only the call into oupac is timed.

    Functions are looked up on their module at call time, so installed
    tracing wrappers are used.
    """
    outcome = Outcome(latency=0.0)
    if op.argv:
        Path(op.output).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                outcome.rc = oupac.cli.main(list(op.argv))
            except SystemExit as exc:  # argparse rejected the argv
                outcome.rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:
                outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.latency = time.perf_counter() - start
        outcome.stdout, outcome.stderr = out.getvalue(), err.getvalue()
        written = outcome.rc == 0 and os.path.exists(op.output)
        payload = Path(op.output).read_bytes() if written else b""
    else:
        linalg, data = oupac.linalg, op.data
        start = time.perf_counter()
        try:
            if op.kind == "stein":
                solution = linalg.solve_discrete_stein(data["M"], linalg.SymmetricMatrix(data["Q"]))
            else:
                solution = linalg.solve_continuous_lyapunov(
                    linalg.make_spd(data["A"]), linalg.SymmetricMatrix(data["Q"]))
            outcome.result = np.array(solution.entries)
        except Exception as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.latency = time.perf_counter() - start
        payload = b"" if outcome.result is None else outcome.result.tobytes()
    sha = hashlib.sha256(f"{outcome.rc}|{outcome.error}|{outcome.stdout}|".encode())
    sha.update(outcome.stderr.encode() + b"|" + payload)
    outcome.digest = sha.hexdigest()
    return outcome


def read_payload(op: workloads.Op) -> bytes:
    return Path(op.output).read_bytes()


def probe_setup(workload: str, seed: int) -> int:
    """Body of one set-up sample, with oupac already imported: generate
    the inputs, run the warm-up op, then tell the parent that the first
    timed op could start.  Then time the reference kernel, which scales
    this interpreter's set-up time."""
    with work_dir(workload) as work:
        execute(workloads.build(workload, seed, work).warmup)
        print("READY", flush=True)
    import reference

    kernels: list[float] = []
    for _ in range(3):
        reference.sample(kernels)
    print(float(np.median(kernels)))
    return 0
