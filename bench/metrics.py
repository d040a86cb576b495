"""Per-layer metrics: what each should move, and their reduction from
traced spans.

Names, units and directions of all metrics are read from
``BENCHMARK.json``; ``MOVES``, which BENCHMARK.json has no room for,
says which end-to-end metric on which workload each layer metric should
move.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import stats
from tracing import END, INFO, NAME, PARENT, START

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

STEIN_DIMS = (8, 32, 33, 64, 128)

#: Per-layer metric -> the end-to-end metric on the workload it should move.
MOVES = {
    "import.oupac_s": "setup_s on all workloads",
    "import.scipy_s": "setup_s on all workloads",
    "import.numpy_s": "setup_s on all workloads",
    "cli.calls": "none: ops per pass, a constant of the workload",
    "cli.self_s": "op_p50_s on chain (stride-1 CSV) and regression",
    "cli.payload_bytes": "op_p50_s on chain and regression",
    "matrixio.self_s": "op_p50_s on chain and regression",
    "diffusion.calls": "ops_per_s on chain",
    "diffusion.steps": "none: chain steps per pass, fixed by the workload",
    "diffusion.self_s":
        "ops_per_s, op_p50_s, op_tail_s on chain; nothing on survey, regression, solve",
    "diffusion.steps_per_s": "ops_per_s, op_p50_s, op_tail_s on chain",
    "diffusion.records": "peak_rss_mb and op_p50_s on chain",
    "diffusion.record_bytes": "peak_rss_mb on chain",
    "gaussian.self_s": "ops_per_s on survey and regression",
    "gaussian.empirical_moments.self_s": "op_tail_s on chain",
    "gaussian.sample.self_s": "op_tail_s on chain",
    "gaussian.stationary.calls": "ops_per_s on regression",
    "gaussian.stationary.self_s": "ops_per_s on regression",
    "gaussian.kl.calls": "ops_per_s on regression",
    "gaussian.kl.self_s": "ops_per_s on regression",
    "gaussian.mc_kl.self_s": "ops_per_s on survey",
    "linalg.self_s": "ops_per_s on survey, regression and solve",
    "linalg.make_spd.calls": "ops_per_s on survey and regression",
    "linalg.make_spd.self_s": "ops_per_s on survey and regression",
    "linalg.cholesky.calls": "ops_per_s on survey",
    "linalg.cholesky.self_s": "ops_per_s on survey",
    "linalg.random_spd.self_s": "ops_per_s on survey",
    "linalg.lyapunov.calls": "ops_per_s on regression",
    "linalg.lyapunov.self_s": "ops_per_s on regression",
    "linalg.lyapunov.residual_max": "success_rate on regression and solve",
    "linalg.stein.calls": "ops_per_s on solve; about nothing on chain",
    "linalg.stein.self_s": "ops_per_s and op_tail_s on solve",
    "linalg.stein.residual_max": "success_rate on solve",
    **{f"linalg.stein.p50_s.d{d}": "ops_per_s and op_tail_s on solve" for d in STEIN_DIMS},
    "bounds.pairs": "none: surveyed pairs per pass, fixed by the workload",
    "bounds.self_s": "ops_per_s on survey",
    "bounds.pairs_per_s": "ops_per_s on survey",
    "bounds.cholesky_per_pair": "ops_per_s on survey (exactly 8 today)",
    "regression.trials": "none: gap trials per pass, fixed by the workload",
    "regression.self_s": "ops_per_s on regression",
    "regression.trials_per_s": "ops_per_s on regression",
    "rng.child_seed.calls": "ops_per_s on survey and regression",
    "rng.self_s": "ops_per_s on survey and regression",
    "trace.op_s": "base of every layer share: traced op time per pass",
    "trace.overhead_frac": "none: cost of tracing itself",
}

#: Per-function metric prefix -> traced span name.
FUNCTIONS = {
    "gaussian.empirical_moments": "gaussian.empirical_moments",
    "gaussian.sample": "gaussian.sample",
    "gaussian.stationary": "gaussian.stationary_from_dynamics",
    "gaussian.kl": "gaussian.kl_divergence",
    "gaussian.mc_kl": "gaussian.mc_kl_estimate",
    "linalg.make_spd": "linalg.make_spd",
    "linalg.cholesky": "linalg.cholesky_factor",
    "linalg.random_spd": "linalg.random_spd",
    "linalg.lyapunov": "linalg.solve_continuous_lyapunov",
    "linalg.stein": "linalg.solve_discrete_stein",
    "rng.child_seed": "rng.child_seed",
}

PAIR_SPAN = "bounds.lemma2_check"
TRIAL_SPAN = "regression.gap_trial"


class LayerTotals:
    """Sums span facts over the traced passes of a run."""

    def __init__(self):
        self.passes = 0
        self.op_s = 0.0
        self.sums: Counter = Counter()
        self.stein_durations: dict[int, list[float]] = defaultdict(list)
        self.residual_max: Counter = Counter()

    def add_pass(self, spans: list[list], op_s: float) -> None:
        self.passes += 1
        self.op_s += op_s
        selfs = stats.self_times([(s[START], s[END], s[PARENT]) for s in spans])
        sums = self.sums
        for span, self_s in zip(spans, selfs):
            name = span[NAME]
            layer = name.split(".", 1)[0]
            sums[f"calls:{name}"] += 1
            sums[f"self:{name}"] += self_s
            sums[f"incl:{name}"] += span[END] - span[START]
            sums[f"calls:{layer}"] += 1
            sums[f"self:{layer}"] += self_s
            info = span[INFO] or {}
            if "residual" in info:
                self.residual_max[name] = max(self.residual_max[name], info["residual"])
            if name == FUNCTIONS["linalg.stein"]:
                self.stein_durations[info.get("dim", -1)].append(span[END] - span[START])
            if "steps" in info:
                sums["steps"] += info["steps"]
                sums["records"] += info["records"]
                sums["record_bytes"] += info["records"] * info["dim"] * 8
            sums["payload_bytes"] += info.get("payload_bytes", 0)
            if name == FUNCTIONS["linalg.cholesky"] and _has_ancestor(spans, span, PAIR_SPAN):
                sums["pair_cholesky"] += 1

    def metrics(self, imports: dict[str, float], overhead_frac: float) -> dict[str, float]:
        per = max(self.passes, 1)
        s = self.sums

        def rate(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        values = {
            **imports,
            "cli.calls": s["calls:cli.main"] / per,
            "cli.self_s": s["self:cli"] / per,
            "cli.payload_bytes": s["payload_bytes"] / per,
            "matrixio.self_s": s["self:matrixio"] / per,
            "diffusion.calls": s["calls:diffusion"] / per,
            "diffusion.steps": s["steps"] / per,
            "diffusion.self_s": s["self:diffusion"] / per,
            "diffusion.steps_per_s": rate(s["steps"], s["self:diffusion"]),
            "diffusion.records": s["records"] / per,
            "diffusion.record_bytes": s["record_bytes"] / per,
            "gaussian.self_s": s["self:gaussian"] / per,
            "linalg.self_s": s["self:linalg"] / per,
            "bounds.pairs": s[f"calls:{PAIR_SPAN}"] / per,
            "bounds.self_s": s["self:bounds"] / per,
            "bounds.pairs_per_s": rate(s[f"calls:{PAIR_SPAN}"], s[f"incl:{PAIR_SPAN}"]),
            "bounds.cholesky_per_pair": rate(s["pair_cholesky"], s[f"calls:{PAIR_SPAN}"]),
            "regression.trials": s[f"calls:{TRIAL_SPAN}"] / per,
            "regression.self_s": s["self:regression"] / per,
            "regression.trials_per_s": rate(s[f"calls:{TRIAL_SPAN}"], s[f"incl:{TRIAL_SPAN}"]),
            "rng.self_s": s["self:rng"] / per,
            "trace.op_s": self.op_s / per,
            "trace.overhead_frac": overhead_frac,
        }
        for prefix, span_name in FUNCTIONS.items():
            values[f"{prefix}.calls"] = s[f"calls:{span_name}"] / per
            values[f"{prefix}.self_s"] = s[f"self:{span_name}"] / per
            values[f"{prefix}.residual_max"] = self.residual_max[span_name]
        for dim in STEIN_DIMS:
            durations = self.stein_durations.get(dim)
            values[f"linalg.stein.p50_s.d{dim}"] = (float(np.median(durations))
                                                     if durations else 0.0)
        return {name: values[name] for name in PER_LAYER}


def _has_ancestor(spans: list[list], span: list, name: str) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
