"""Self-tests of the chain oracles: non-finite output never passes."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np
import pytest

import oracles
import workloads


@pytest.fixture(scope="module")
def stage(tmp_path_factory):
    load = workloads.build("chain", 4, tmp_path_factory.mktemp("chain"))
    return next(op.data for op in load.ops if op.kind == "simulate" and op.data["dim"] == 10)


def test_covariance_oracle_rejects_nan(stage):
    _, reference = oracles.stationary_reference(stage)
    assert oracles._covariance_problems("t", reference, 5000, stage, 10) == []
    broken = reference.copy()
    broken[3, 4] = broken[4, 3] = np.nan
    assert oracles._covariance_problems("t", broken, 5000, stage, 10)


def test_mean_oracle_rejects_nan_and_offsets(stage):
    _, cov = oracles.stationary_reference(stage)
    mean = stage["minimizer"].copy()
    assert oracles._mean_problems("t", mean, cov, 5000, stage, 10) == []
    mean[2] += 100 * np.sqrt(cov[2, 2])
    assert [c for c, _ in oracles._mean_problems("t", mean, cov, 5000, stage, 10)] == [
        "stationary-mean"]
    mean[2] = np.nan
    assert oracles._mean_problems("t", mean, cov, 5000, stage, 10)


def test_replay_agreement_rejects_nan():
    want = np.arange(6.0).reshape(3, 2)
    assert oracles._agree("t", want.copy(), want) == []
    got = want.copy()
    got[1, 1] = np.nan
    assert oracles._agree("t", got, want)
    assert oracles._agree("t", want[:2], want)
