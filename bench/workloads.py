"""Seeded workload generator.

``build(name, seed, work_dir)`` draws every input of a workload from
``seed`` alone, writes the matrix and Gaussian fixtures under
``work_dir`` and returns the op list.  The program under test only ever
sees those files and the argv lists (or, for the ``solve`` workload,
the arrays handed to the public solver functions).  Vectors are passed
as ``--flag=value`` because argparse reads ``--flag -0.5,1`` as a
missing argument.

Each workload is a fixed op list; one run executes it ``passes`` times
in a closed loop (one client, the next op issued when the previous one
returns).  The reason each workload exists is written next to its
builder below.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FLOAT = "%.17g"

#: Learning rate and batch size of every chain op: with Hessian
#: eigenvalues in [0.5, 2] the step map I - lr*A has eigenvalues in
#: [0.8, 0.95], so 5000 burn-in steps leave no trace of the start.
CHAIN_ETA = 0.1
CHAIN_BATCH = 4

#: Step size of the ``solve`` workload; M = I - SOLVE_LR * A.
SOLVE_LR = 0.5


@dataclass(frozen=True, eq=False)
class Op:
    """One operation of a workload.

    ``argv`` is a CLI argument list (empty for public-function ops),
    ``output`` the payload file it writes, ``data`` the generated inputs
    the oracles need, ``defect`` the oracle problem category this op
    is expected to show because of a known defect ("" when it must pass),
    and ``reference`` the kernel that scales its time (see reference.py).
    """

    op_id: str
    kind: str
    argv: tuple[str, ...] = ()
    output: str = ""
    data: dict = field(default_factory=dict)
    defect: str = ""
    reference: str = "python"


@dataclass(frozen=True, eq=False)
class Workload:
    name: str
    ops: tuple[Op, ...]
    #: A run repeats the list ceil(seconds / nominal_pass_s) times, so
    #: the amount of work, and with it the tail percentile, depends only
    #: on ``--seconds`` and never on how fast the program is.  Set so
    #: that a 15 s run holds enough ops for a p90 tail (chain: 4 passes
    #: of 24 ops) and about 15-25 s of op time on a 2-vCPU machine.
    nominal_pass_s: float
    digest: str

    @property
    def warmup(self) -> Op:
        return self.ops[0]

    def passes(self, seconds: float) -> int:
        """At least two, so that every op is rerun and compared."""
        return max(2, int(np.ceil(seconds / self.nominal_pass_s - 1e-9)))


class _Fixtures:
    """Writes fixture files and feeds every generated byte to a digest."""

    def __init__(self, root: Path):
        self.root = root
        self.sha = hashlib.sha256()

    def matrix(self, name: str, entries: np.ndarray) -> str:
        return self._write(name, _format_matrix(entries))

    def gaussian(self, name: str, mean: np.ndarray, cov: np.ndarray) -> str:
        return self._write(name, _format_matrix(cov) + _vector(mean, " ") + "\n")

    def _write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text)
        self.sha.update(name.encode() + b"\0" + text.encode())
        return str(path)

    def record(self, op: Op) -> None:
        self.sha.update(op.op_id.encode())
        for arg in op.argv:
            self.sha.update(arg.replace(str(self.root), "<work>").encode() + b"\0")
        for key in sorted(op.data):
            value = op.data[key]
            raw = value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode()
            self.sha.update(key.encode() + b"=" + raw)


def _format_matrix(entries: np.ndarray) -> str:
    rows = [" ".join(FLOAT % v for v in row) for row in np.asarray(entries, float)]
    return f"{len(rows)}\n" + "\n".join(rows) + "\n"


def _vector(values, sep: str = ",") -> str:
    return sep.join(FLOAT % v for v in np.asarray(values, float))


def _orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def _spd(rng: np.random.Generator, dim: int, low: float, high: float) -> np.ndarray:
    q = _orthogonal(rng, dim)
    m = (q * rng.uniform(low, high, dim)) @ q.T
    return (m + m.T) / 2.0


def _general_factor(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Non-normal noise factor: diagonal plus a strictly upper triangle
    of magnitude 1-2, so B B^T and B^T B differ at order one."""
    upper = rng.choice([-1.0, 1.0], (dim, dim)) * rng.uniform(1.0, 2.0, (dim, dim))
    return np.diag(rng.uniform(0.4, 0.6, dim)) + np.triu(upper, 1)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def build(name: str, seed: int, work_dir: Path) -> Workload:
    """Generate workload ``name`` from ``seed`` into ``work_dir``."""
    builder, nominal = BUILDERS[name]
    work_dir = Path(work_dir)
    (work_dir / "out").mkdir(parents=True, exist_ok=True)
    fixtures = _Fixtures(work_dir)
    rng = np.random.default_rng([seed, sorted(BUILDERS).index(name)])
    ops = tuple(builder(rng, fixtures))
    for op in ops:
        fixtures.record(op)
    return Workload(name, ops, nominal, fixtures.sha.hexdigest())


# ---------------------------------------------------------------------------
# chain: the SGD chain through the CLI.
#
# diffusion._run_chain steps the chain in a Python loop and does most of
# the work (about 0.15 s per op).  d = 2 against d = 10 matters because a
# vectorised chain kernel gains differently with d.  Stride 1 against 10
# changes how many records are materialised, pooled and, for simulate,
# formatted as CSV, so cli/matrixio work shows on stride-1 simulate ops.
# Half the ops use a general (non-symmetric) noise factor B, which the
# CLI accepts: the chain injects B z while the documented noise
# covariance is B^T B, and the covariance oracle exposes the difference.


def _chain(rng: np.random.Generator, fx: _Fixtures) -> list[Op]:
    ops = []
    for dim in (2, 10):
        for stride in (10, 1):
            for noise in ("symmetric", "general"):
                for mode in ("analytic_sample", "chain_continue"):
                    ops.append(_two_stage_op(rng, fx, dim, stride, noise, mode, len(ops)))
                ops.append(_simulate_op(rng, fx, dim, stride, noise, len(ops)))
    return ops


def _stage(rng, fx, tag: str, dim: int, noise: str, centre=None) -> dict:
    hessian = _spd(rng, dim, 0.5, 2.0)
    if centre is None:
        minimizer = rng.standard_normal(dim)
    else:
        minimizer = centre + 0.5 * rng.standard_normal(dim)
    if noise == "symmetric":
        factor = _spd(rng, dim, 0.3, 1.2)
    else:
        factor = _general_factor(rng, dim)
    return {
        "hessian": hessian,
        "minimizer": minimizer,
        "noise_factor": factor,
        "hessian_file": fx.matrix(f"{tag}-hessian.txt", hessian),
        "factor_file": fx.matrix(f"{tag}-factor.txt", factor),
    }


def _stage_args(prefix: str, stage: dict, steps: int) -> list[str]:
    return [
        f"--{prefix}hessian={stage['hessian_file']}",
        f"--{prefix}minimizer={_vector(stage['minimizer'])}",
        f"--{prefix}noise-factor={stage['factor_file']}",
        f"--{prefix}eta={CHAIN_ETA!r}",
        f"--{prefix}batch={CHAIN_BATCH}",
        f"--{prefix}steps={steps}",
    ]


def _stage_data(stage: dict, steps: int) -> dict:
    return {
        "hessian": stage["hessian"],
        "minimizer": stage["minimizer"],
        "noise_factor": stage["noise_factor"],
        "eta": CHAIN_ETA,
        "batch": CHAIN_BATCH,
        "steps": steps,
    }


#: Ops replayed step by step with public sgd_step (about 17 us a step):
#: both dimensions and both init modes, at stride 10.
_REPLAYED_TWO_STAGE = {("symmetric", 10, 2, "analytic_sample"),
                       ("symmetric", 10, 10, "chain_continue")}


def _two_stage_op(rng, fx, dim, stride, noise, mode, index) -> Op:
    op_id = f"chain-{index:02d}-two-stage-d{dim}-s{stride}-{noise}-{mode}"
    pt = _stage(rng, fx, f"{op_id}-pt", dim, noise)
    ft = _stage(rng, fx, f"{op_id}-ft", dim, noise, centre=pt["minimizer"])
    master = _seed(rng)
    output = str(fx.root / "out" / f"{op_id}.json")
    argv = ["two-stage", *_stage_args("pt-", pt, 10_000), *_stage_args("ft-", ft, 10_000),
            "--replicas=2", f"--stride={stride}", f"--init-mode={mode}",
            f"--seed={master}", f"--output={output}"]
    data = {"dim": dim, "stride": stride, "replicas": 2, "seed": master,
            "init_mode": mode, "pt": _stage_data(pt, 10_000), "ft": _stage_data(ft, 10_000),
            "replay": (noise, stride, dim, mode) in _REPLAYED_TWO_STAGE}
    defect = "stationary-covariance" if noise == "general" else ""
    return Op(op_id, "two-stage", tuple(argv), output, data, defect)


def _simulate_op(rng, fx, dim, stride, noise, index) -> Op:
    op_id = f"chain-{index:02d}-simulate-d{dim}-s{stride}-{noise}"
    stage = _stage(rng, fx, op_id, dim, noise)
    seed = _seed(rng)
    output = str(fx.root / "out" / f"{op_id}.csv")
    argv = ["simulate", *_stage_args("", stage, 20_000), f"--stride={stride}",
            f"--seed={seed}", f"--output={output}"]
    data = {"dim": dim, "stride": stride, "seed": seed, **_stage_data(stage, 20_000),
            "replay": (noise, stride, dim) == ("symmetric", 10, 10)}
    defect = "stationary-covariance" if noise == "general" else ""
    return Op(op_id, "simulate", tuple(argv), output, data, defect)


# ---------------------------------------------------------------------------
# survey: Gaussian-pair terms through the CLI.
#
# lemma-survey slices, dominance and kl ops spend their time in the
# Gaussian-pair terms: bounds._pair_core with 8 Cholesky factorisations
# per surveyed pair, random_spd QR and make_spd eigenvalue validation,
# closed-form and Monte-Carlo KL.  No chain runs here, so a faster chain
# kernel should change nothing; a single two-factor pair kernel shows.


def _survey(rng: np.random.Generator, fx: _Fixtures) -> list[Op]:
    # Per pass, by latency: 8 fast ops (kl, dominance at d=2), 8 at d=32,
    # 4 at d=64 and 4 surveys of dims 1-10, so that the median and p90
    # fall inside a group of like ops rather than between two groups.
    ops = []
    for _ in range(2):
        for dims, pairs in (("1-10", 8), ("32", 4), ("1-10", 8), ("64", 4), ("32", 4)):
            ops.append(_lemma_op(rng, fx, dims, pairs, len(ops)))
        for dim in (2, 32, 64, 32):
            ops.append(_dominance_op(rng, fx, dim, len(ops)))
        for dim in (2, 5, 10):
            ops.append(_kl_op(rng, fx, dim, len(ops)))
    return ops


def _lemma_op(rng, fx, dims: str, pairs: int, index: int) -> Op:
    op_id = f"survey-{index:02d}-lemma-survey-{dims}"
    seed = _seed(rng)
    low = float(rng.uniform(0.1, 0.5))
    high = float(rng.uniform(2.0, 8.0))
    scale = float(rng.uniform(0.5, 2.0))
    output = str(fx.root / "out" / f"{op_id}.json")
    argv = ["lemma-survey", f"--dims={dims}", f"--pairs-per-dim={pairs}",
            f"--eig-low={low!r}", f"--eig-high={high!r}", f"--shift-scale={scale!r}",
            f"--seed={seed}", f"--output={output}"]
    lo, _, hi = dims.partition("-")
    dim_list = list(range(int(lo), int(hi or lo) + 1))
    data = {"dims": dim_list, "pairs": pairs, "seed": seed, "eig_low": low,
            "eig_high": high, "shift_scale": scale}
    return Op(op_id, "lemma-survey", tuple(argv), output, data)


def _dominance_op(rng, fx, dim: int, index: int) -> Op:
    op_id = f"survey-{index:02d}-dominance-d{dim}"
    sigma_pt = _spd(rng, dim, 0.2, 5.0)
    sigma_ft = _spd(rng, dim, 0.2, 5.0)
    shift = rng.standard_normal(dim)
    n_pt = int(rng.integers(1_000, 1_000_000))
    n_ft = int(rng.integers(100, 10_000))
    delta = float(rng.uniform(0.01, 0.1))
    output = str(fx.root / "out" / f"{op_id}.json")
    argv = ["dominance", f"--sigma-pt={fx.matrix(op_id + '-pt.txt', sigma_pt)}",
            f"--sigma-ft={fx.matrix(op_id + '-ft.txt', sigma_ft)}",
            f"--shift={_vector(shift)}", f"--n-pt={n_pt}", f"--n-ft={n_ft}",
            f"--delta={delta!r}", f"--output={output}"]
    data = {"sigma_pt": sigma_pt, "sigma_ft": sigma_ft, "shift": shift,
            "n_pt": n_pt, "n_ft": n_ft, "delta": delta}
    return Op(op_id, "dominance", tuple(argv), output, data)


def _kl_op(rng, fx, dim: int, index: int) -> Op:
    op_id = f"survey-{index:02d}-kl-d{dim}"
    mean_q, mean_p = rng.standard_normal(dim), rng.standard_normal(dim)
    cov_q, cov_p = _spd(rng, dim, 0.5, 2.0), _spd(rng, dim, 0.5, 2.0)
    seed = _seed(rng)
    output = str(fx.root / "out" / f"{op_id}.json")
    argv = ["kl", f"--q={fx.gaussian(op_id + '-q.txt', mean_q, cov_q)}",
            f"--p={fx.gaussian(op_id + '-p.txt', mean_p, cov_p)}",
            "--mc-draws=2000", f"--seed={seed}", f"--output={output}"]
    data = {"mean_q": mean_q, "cov_q": cov_q, "mean_p": mean_p, "cov_p": cov_p,
            "mc_draws": 2000, "seed": seed}
    return Op(op_id, "kl", tuple(argv), output, data)


# ---------------------------------------------------------------------------
# regression: many tiny pipelines through the CLI.
#
# validity and scaling ops run thousands of d <= 8 gap trials, where
# fixed per-call cost dominates: make_spd validation, dataclass
# construction, child_seed hashing, one Lyapunov solve and one KL per
# trial.  A change that adds per-call set-up cost shows here even when
# large-d ops get faster.  No chain runs here.  Each validity op runs
# once as JSON and once as CSV with the same arguments so the oracle can
# cross-check the two.  Sizes (trials, n, ns) are fixed so that the seed
# changes the values drawn and never the amount of work.


def _regression(rng: np.random.Generator, fx: _Fixtures) -> list[Op]:
    ops = []
    for rep in range(6):
        for dim in (2, 8):
            weights = rng.uniform(-1.0, 1.0, dim)
            feature_cov = None
            if rep % 2:
                feature_cov = _spd(rng, dim, 0.5, 2.0)
            common = [f"--weights={_vector(weights)}"]
            if feature_cov is not None:
                path = fx.matrix(f"regression-{len(ops):02d}-feature-cov.txt", feature_cov)
                common.append(f"--feature-cov={path}")
            data = {"weights": weights, "feature_cov": feature_cov}
            seed, trials, n = _seed(rng), 30, 60
            for fmt in ("json", "csv"):
                op_id = f"regression-{len(ops):02d}-validity-d{dim}-{fmt}"
                output = str(fx.root / "out" / f"{op_id}.{fmt}")
                argv = ["validity", *common, f"--n={n}", f"--trials={trials}",
                        f"--seed={seed}", f"--format={fmt}", f"--output={output}"]
                ops.append(Op(op_id, "validity", tuple(argv), output,
                              {**data, "n": n, "trials": trials, "seed": seed,
                               "format": fmt, "pair": f"{rep}-{dim}"}))
            ns = [3 * dim, 6 * dim, 12 * dim]
            op_id = f"regression-{len(ops):02d}-scaling-d{dim}"
            output = str(fx.root / "out" / f"{op_id}.json")
            argv = ["scaling", *common, f"--ns={_vector(ns)}", "--trials=5",
                    f"--seed={_seed(rng)}", f"--output={output}"]
            ops.append(Op(op_id, "scaling", tuple(argv), output,
                          {**data, "ns": ns, "trials": 5}))
    return ops


# ---------------------------------------------------------------------------
# solve: the public Stein and Lyapunov solvers.
#
# The only workload that runs both sides of STEIN_DIRECT_MAX_DIM: the
# Kronecker solve at d <= 32 and the fixed-point loop above it, at
# spectral radius 0.9, 0.99 and 0.999 (d = 128 at 0.999 is left out:
# 2.6 s per op).  Every other workload solves at d <= 10, so without
# this one the solver layer goes unmeasured.  One d = 40 op per pass
# sits at radius 1 - 1e-4, where today's fixed-point loop stops short
# and raises ResidualTooLargeError; it stays in and counts as failed.
# All modes but the slowest have |mu| <= 0.9 * rho, so the iteration
# count, and with it the op time, hardly varies with the seed.
#
# A pass holds SOLVE_COPIES copies of the grid, each with operands of
# its own, and the one d = 40 op, so the failing op is a small share of
# the ops and of the time, and every grid point is timed on several
# seeded instances in each pass.  A Lyapunov solve costs the same at
# every radius, so each copy holds one per dimension, at radius 0.9 or
# 0.99 in turn, rather than one per grid point.  The op counts then put
# both percentiles inside a group of like ops with a gap to the next:
# per copy, 9 ops take under 5 ms and 9 over 15 ms, so the median is
# one of the d = 64 Stein solves at radius 0.9 (about 6 ms), and p90
# sits among the d = 128 Stein solves at radius 0.99.  With one
# Lyapunov op per grid point and two copies the median fell on the
# boundary between d = 64 Lyapunov solves (1.3 ms) and d = 33 Stein
# solves (2.4 ms), and jumped between them from run to run.

SOLVE_GRID = tuple(
    (dim, rho)
    for dim in (8, 32, 33, 64, 128)
    for rho in (0.9, 0.99, 0.999)
    if not (dim == 128 and rho == 0.999)
)
SOLVE_COPIES = 6
#: Radius of the Lyapunov solves, taken in turn by the copies.
LYAPUNOV_RHOS = (0.9, 0.99)
NEAR_UNIT = (40, 1.0 - 1e-4)


def _solve(rng: np.random.Generator, fx: _Fixtures) -> list[Op]:
    ops = []
    for copy in range(SOLVE_COPIES):
        lyapunov_rho = LYAPUNOV_RHOS[copy % len(LYAPUNOV_RHOS)]
        for dim, rho in SOLVE_GRID:
            ops.extend(_solver_ops(rng, dim, rho, len(ops), lyapunov=rho == lyapunov_rho))
    ops.extend(_solver_ops(rng, *NEAR_UNIT, len(ops), lyapunov=False))
    return ops


def _solver_ops(rng, dim: int, rho: float, index: int, lyapunov: bool) -> list[Op]:
    mu = np.concatenate([[rho], rng.uniform(0.0, 0.9 * rho, dim - 1)])
    q_basis = _orthogonal(rng, dim)
    a = (q_basis * ((1.0 - mu) / SOLVE_LR)) @ q_basis.T
    a = (a + a.T) / 2.0
    q = _spd(rng, dim, 0.5, 2.0)
    m = np.eye(dim) - SOLVE_LR * a
    tag = f"d{dim}-rho{rho:.6g}"
    data = {"A": a, "M": m, "Q": q, "rho": rho, "dim": dim}
    defect = "ResidualTooLargeError" if (dim, rho) == NEAR_UNIT else ""
    # the solvers' time is in BLAS products of about d x d
    kernel = "blas64" if dim <= 64 else "blas128"
    ops = [Op(f"solve-{index:03d}-stein-{tag}", "stein", data=data, defect=defect,
              reference=kernel)]
    if lyapunov:
        ops.append(Op(f"solve-{index + 1:03d}-lyapunov-{tag}", "lyapunov", data=data,
                      reference=kernel))
    return ops


#: name -> (builder, nominal_pass_s)
BUILDERS = {
    "chain": (_chain, 3.75),
    "survey": (_survey, 0.47),
    "regression": (_regression, 0.55),
    "solve": (_solve, 7.5),
}
