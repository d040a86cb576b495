"""Self-tests of the workload generator and of BENCHMARK.json."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import pytest

import workloads


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    first = workloads.build(name, 7, tmp_path / "a")
    second = workloads.build(name, 7, tmp_path / "b")
    other = workloads.build(name, 8, tmp_path / "c")
    assert first.digest == second.digest != other.digest
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [op.op_id for op in first.ops] == [op.op_id for op in second.ops]
    for a, b in zip(first.ops, second.ops):
        assert [x.replace(str(tmp_path / "a"), "") for x in a.argv] == [
            x.replace(str(tmp_path / "b"), "") for x in b.argv]


def test_vectors_are_passed_as_flag_equals_value(tmp_path):
    for name in sorted(workloads.BUILDERS):
        for op in workloads.build(name, 3, tmp_path / name).ops:
            assert all(arg.startswith("--") and "=" in arg for arg in op.argv[1:])


def test_pass_count_depends_only_on_seconds():
    chain = workloads.Workload("chain", (), 5.0, "")
    assert chain.passes(20) == 4
    assert chain.passes(1) == 2
    assert chain.passes(20) == 4
    assert chain.passes(20.5) == 5


def test_known_defects_are_tagged_not_dropped(tmp_path):
    solve = workloads.build("solve", 5, tmp_path / "solve")
    near_unit = [op for op in solve.ops if op.defect]
    assert len(near_unit) == 1 and near_unit[0].data["dim"] == 40
    chain = workloads.build("chain", 5, tmp_path / "chain")
    general = [op for op in chain.ops if "general" in op.op_id]
    assert len(general) == len(chain.ops) // 2
    assert all(op.defect == "stationary-covariance" for op in general)


#: Typical solve op times in ms on a 2-vCPU machine, by (kind, dim, rho);
#: a Lyapunov solve costs the same at every radius and a Stein solve at
#: d <= 32 (the Kronecker solve) nearly so.
SOLVE_MS = {
    ("lyapunov", 8): 0.15, ("lyapunov", 32): 0.52, ("lyapunov", 33): 0.6,
    ("lyapunov", 64): 1.3, ("lyapunov", 128): 4.0,
    ("stein", 8, 0.9): 0.5, ("stein", 8, 0.99): 0.26, ("stein", 8, 0.999): 0.23,
    ("stein", 32, 0.9): 41, ("stein", 32, 0.99): 41, ("stein", 32, 0.999): 41,
    ("stein", 33, 0.9): 2.4, ("stein", 33, 0.99): 20.5, ("stein", 33, 0.999): 180,
    ("stein", 64, 0.9): 6.1, ("stein", 64, 0.99): 48, ("stein", 64, 0.999): 430,
    ("stein", 128, 0.9): 40, ("stein", 128, 0.99): 290, ("stein", 40, 0.9999): 1960,
}


def test_solve_percentiles_sit_inside_groups_of_like_ops(tmp_path):
    # A percentile at the edge of a group jumps to the next group when
    # op times wobble; the median and p90 of a 15 s run must sit at
    # least two ops inside one group.
    load = workloads.build("solve", 5, tmp_path)
    groups = []
    for op in load.ops * load.passes(15):
        key = (op.kind, op.data["dim"]) + ((op.data["rho"],) if op.kind == "stein" else ())
        groups.append(key)
    groups.sort(key=SOLVE_MS.__getitem__)
    last = len(groups) - 1
    for pct, expected in ((50, ("stein", 64, 0.9)), (90, ("stein", 128, 0.99))):
        low, high = int(pct / 100 * last), -(-pct * last // 100)
        assert {groups[i] for i in range(low - 2, high + 3)} == {expected}
