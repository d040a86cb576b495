"""Span tracing at the public function boundaries of oupac's layers,
done from outside the package by wrapping functions.

Each public function of a layer module is wrapped in the module that
defines it, so intra-module calls such as ``random_spd -> make_spd``
are caught, and in every ``oupac.*`` namespace that imported it, such
as ``oupac.bounds.cholesky_factor``.  Private helpers (``_run_chain``,
``_pair_core``) are not wrapped; their time is their caller's self
time.  Spans stay in memory until the caller takes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "gaussian", "diffusion", "bounds", "regression", "cli", "matrixio", "rng")

# Span fields, kept as a list per span to make recording cheap.
NAME, START, END, PARENT, OP, INFO = range(6)


def _relative_residual(achieved: np.ndarray, target: np.ndarray) -> float:
    return float(np.linalg.norm(achieved - target) / (1.0 + np.linalg.norm(target)))


def _entries(value) -> np.ndarray:
    return np.asarray(getattr(value, "entries", value), dtype=float)


def _stein_info(args: dict, result) -> dict:
    m, q, x = _entries(args["m"]), _entries(args["q"]), result.entries
    return {"dim": m.shape[0], "residual": _relative_residual(x - m @ x @ m.T, q)}


def _lyapunov_info(args: dict, result) -> dict:
    a, q, x = _entries(args["a"]), _entries(args["q"]), result.entries
    return {"dim": a.shape[0], "residual": _relative_residual(a @ x + x @ a, q)}


def _simulate_info(args: dict, result) -> dict:
    steps, stride = args["total_steps"], args.get("stride", 10)
    return {"steps": steps, "records": steps // stride + 1, "dim": args["loss"].dim}


def _two_stage_info(args: dict, result) -> dict:
    stride, replicas = args.get("stride", 10), args["replicas"]
    steps = args["pt_steps"] + args["ft_steps"]
    records = args["pt_steps"] // stride + args["ft_steps"] // stride + 2
    return {"steps": replicas * steps, "records": replicas * records,
            "dim": args["pt_loss"].dim}


def _cli_info(args: dict, result) -> dict:
    argv = args.get("argv") or []
    path = next((a.split("=", 1)[1] for a in argv if a.startswith("--output=")), None)
    return {"payload_bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}


#: Extra facts about a successful call, as ``name: (hook, keeps_result)``.
#: A span keeps only the call's arguments (and, where the hook needs it,
#: its result); the hook runs in take(), after the pass, so that its
#: cost (argument binding, residual products) lands in no span's time.
HOOKS = {
    "linalg.solve_discrete_stein": (_stein_info, True),
    "linalg.solve_continuous_lyapunov": (_lyapunov_info, True),
    "diffusion.simulate_chain": (_simulate_info, False),
    "diffusion.two_stage_run": (_two_stage_info, False),
    "cli.main": (_cli_info, False),
}


class Tracer:
    """Records ``[name, start, end, parent_index, op_id, info]`` spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"oupac.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for name, module in list(sys.modules.items()):
            if name != "oupac" and not name.startswith("oupac."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def take(self) -> list[list]:
        """Return the recorded spans, with their hooks' facts filled in,
        and start a new list."""
        spans = self.spans
        self.spans = []
        for span in spans:
            if span[INFO] is not None:
                hook, signature, args, kwargs, result = span[INFO]
                span[INFO] = hook(signature.bind(*args, **kwargs).arguments, result)
        return spans

    def _wrap(self, name: str, fn):
        hook, keeps_result = HOOKS.get(name, (None, False))
        signature = inspect.signature(fn) if hook else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                span[INFO] = (hook, signature, args, kwargs, result if keeps_result else None)
            return result

        return traced
