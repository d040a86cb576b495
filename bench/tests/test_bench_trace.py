"""Traced smoke run: the wrapped names still resolve and spans reduce to
the per-layer metrics."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import time

import numpy as np
import pytest

import harness
import metrics
import ops
import oracles
import reference
import tracing
import workloads

import oupac
import oupac.bounds
import oupac.gaussian
import oupac.linalg


NO_IMPORTS = {name: 0.0 for name in metrics.PER_LAYER if name.startswith("import.")}


@pytest.fixture
def tracer():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_wrappers_are_installed_everywhere_and_removed():
    original = oupac.linalg.cholesky_factor
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for namespace in (oupac.linalg, oupac.bounds, oupac):
            assert namespace.cholesky_factor is not original
            assert namespace.cholesky_factor.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert oupac.linalg.cholesky_factor is original
    assert oupac.bounds.cholesky_factor is original
    assert oupac.cholesky_factor is original


def test_survey_pairs_trace_eight_choleskys_each(tracer):
    rows = oupac.bounds.lemma2_survey(dims=(3, 4), pairs_per_dim=2, seed=1)
    assert [row["pairs"] for row in rows] == [2, 2]
    spans = tracer.take()
    names = {span[tracing.NAME] for span in spans}
    # intra-module calls are caught: random_spd -> make_spd, log_det -> cholesky
    assert {"bounds.lemma2_survey", "bounds.lemma2_check", "linalg.random_spd",
            "linalg.make_spd", "linalg.log_det", "linalg.cholesky_factor",
            "rng.child_seed", "rng.make_rng"} <= names
    totals = metrics.LayerTotals()
    totals.add_pass(spans, op_s=1.0)
    values = totals.metrics(NO_IMPORTS, overhead_frac=0.0)
    assert values["bounds.pairs"] == 4
    assert values["bounds.cholesky_per_pair"] == 8
    assert values["linalg.random_spd.self_s"] > 0
    root = next(s for s in spans if s[tracing.PARENT] == -1)
    assert root[tracing.NAME] == "bounds.lemma2_survey"
    layer_self = sum(values[f"{layer}.self_s"] for layer in ("bounds", "linalg", "rng"))
    assert layer_self == pytest.approx(root[tracing.END] - root[tracing.START])


def test_reference_kernel_never_enters_oupac(tracer):
    samples = []
    reference.sample(samples)
    assert len(samples) == reference.BURST and min(samples) > 0
    assert tracer.take() == []


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_traced_warmup_op_passes_its_oracle(name, tmp_path, tracer):
    load = workloads.build(name, 2, tmp_path)
    op = load.warmup
    tracer.op_id = op.op_id
    outcome = ops.execute(op)
    spans = tracer.take()
    tracer.uninstall()
    assert spans and all(span[tracing.OP] == op.op_id for span in spans)
    top = {span[tracing.NAME] for span in spans if span[tracing.PARENT] == -1}
    assert top == ({"cli.main"} if op.argv else {"linalg.solve_discrete_stein"})
    ctx = oracles.Context(load.ops, ops.read_payload)
    assert oracles.check(op, outcome, ctx) == []
    totals = metrics.LayerTotals()
    totals.add_pass(spans, outcome.latency)
    values = totals.metrics(NO_IMPORTS, 0.0)
    assert list(values) == metrics.PER_LAYER
    assert set(metrics.MOVES) == set(metrics.PER_LAYER)
    assert values["cli.calls" if op.argv else "linalg.stein.calls"] == 1


def test_hooks_run_after_the_pass_outside_every_span(monkeypatch):
    # A slow hook on the Lyapunov solve must not land in the self time of
    # stationary_from_dynamics, which calls it.
    def slow_hook(args, result):
        time.sleep(0.05)
        return {"dim": 0, "residual": 0.0}

    monkeypatch.setitem(tracing.HOOKS, "linalg.solve_continuous_lyapunov", (slow_hook, True))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        oupac.gaussian.stationary_from_dynamics(
            oupac.linalg.make_spd(np.diag([1.0, 2.0])), np.zeros(2),
            oupac.linalg.make_spd(np.eye(2)), 0.1, 4)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    parent = next(s for s in spans if s[tracing.NAME] == "gaussian.stationary_from_dynamics")
    solve = next(s for s in spans if s[tracing.NAME] == "linalg.solve_continuous_lyapunov")
    assert solve[tracing.INFO] == {"dim": 0, "residual": 0.0}
    assert parent[tracing.END] - parent[tracing.START] < 0.05


@pytest.mark.parametrize("kind", sorted(reference.NOMINAL_S))
def test_reference_kernel_does_not_follow_the_op_before_it(kind):
    # Ops that leave OpenBLAS threads spinning, and the same made slower
    # by a sleep, interleaved so that the machine's drift cancels: each
    # kernel as the harness samples it must read the same after both.
    block = np.full((300, 300), 1.0 / 300)

    def products():
        for _ in range(10):
            block @ block

    def slower():
        products()
        time.sleep(0.05)

    samples = {products: [], slower: []}
    for _ in range(15):
        for op in (products, slower):
            op()
            reference.sample(samples[op], kind)
    assert np.median(samples[slower]) == pytest.approx(np.median(samples[products]), rel=0.3)


def test_blas_kernel_runs_at_openblas_own_thread_count(monkeypatch):
    # A program that sets another thread count gets it back after the
    # kernel, which itself ran at the count OpenBLAS started with.
    state = {"threads": 1}
    calls = []

    def set_threads(n):
        calls.append(n)
        state["threads"] = n

    monkeypatch.setattr(reference, "_THREADS", (lambda: state["threads"], set_threads))
    monkeypatch.setattr(reference, "_OWN_THREADS", 2)
    assert reference.product_chain_time(64) > 0
    assert calls == [2, 1] and state["threads"] == 1
    state["threads"] = 2
    reference.product_chain_time(128)
    assert calls == [2, 1]


def test_each_op_is_scaled_by_the_kernel_times_around_it(monkeypatch):
    # The kernel reads 1, 2, 3, ... nominal times, one burst per op (the
    # ops outlast REFERENCE_EVERY_S): an op between bursts k and k+1
    # that took 1 s reads (median of the two bursts) / nominal seconds.
    readings = iter(range(1, 1000))
    monkeypatch.setattr(reference, "kernel_time",
                        lambda: next(readings) * reference.NOMINAL_S["python"])

    def execute(op):
        time.sleep(harness.REFERENCE_EVERY_S)
        return ops.Outcome(latency=1.0, digest="same")

    monkeypatch.setattr(ops, "execute", execute)
    op_list = [workloads.Op(f"fake-{i}", "fake") for i in range(2)]
    m = harness.timed_passes(op_list, 2, trace=False)
    burst = reference.BURST
    # reading 1 is the untimed warm-up; burst k holds readings 2 + burst*k ...
    medians = [1 + burst * k + (burst + 1) / 2 for k in range(5)]
    assert m.scaled == pytest.approx([1.0 / ((medians[i] + medians[i + 1]) / 2)
                                      for i in range(4)])
