import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import logacm as L


@pytest.fixture
def rng():
    return random.Random(20240811)


def catalog_surfaces():
    return [
        L.projective_space(2),
        L.quadric_surface(),
        L.hirzebruch(0),
        L.hirzebruch(1),
        L.hirzebruch(2),
        L.hirzebruch(3),
        L.blowup_p2(1),
        L.blowup_p2(2),
        L.blowup_p2(3),
        L.blowup_p2(4),
        L.surface_in_p3(2),
        L.surface_in_p3(3),
        L.surface_in_p3(4),
        L.abelian_surface(2),
        L.abelian_surface(4),
    ]


def f0_split_grid() -> dict:
    """(k1, k2) -> whether O(k1 - 2, 0) + O(0, k2 - 2) has h^1 = 0 at every
    twist by H = (2, 1) on F_0, for k1, k2 <= 8, by Kunneth from
    ``cohom_line_quadric``.  That sum is Omega^1(log D) for k1 lines of one
    ruling and k2 of the other.

    The scan covers |t| <= 12: h^1 of either summand at t needs a factor
    with h^0 > 0 against one with h^1 > 0, which forces |t| <= k - 2 <= 6."""
    return {
        (k1, k2): not any(
            L.cohom_line_quadric(k1 - 2 + 2 * t, t)[1] or L.cohom_line_quadric(2 * t, k2 - 2 + t)[1] for t in range(-12, 13)
        )
        for k1 in range(9)
        for k2 in range(9)
    }


# the yes-set the split grid gives with k1, k2 <= 8, and the one stated as
# 1 <= k1 <= 3, 1 <= k2 <= 2; they disagree, and both are recorded
F0_SPLIT_YES = [(k1, k2) for k1 in range(1, 6) for k2 in range(1, 3)]
F0_STATED_YES = [(k1, k2) for k1 in range(1, 4) for k2 in range(1, 3)]


def twist_zero_h1(x, arr, side, ev=None):
    """h^1 of the side's log sheaf at twist zero."""
    ev = ev or L.default_evaluator()
    return ev.cohom(L.log_pair(x, arr, ev).for_side(side), (0,) * x.lattice_rank)[1]


def random_class(rng, x, bound=5):
    return tuple(rng.randint(-bound, bound) for _ in range(x.lattice_rank))


def run_optimized(code: str) -> str:
    """stdout of ``code`` run by ``python -O``, which strips assert statements."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def bench_module(name: str):
    """The benchmark's module ``bench/<name>.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # registered first: its dataclasses look their module up
    return module


def bench_workloads():
    """The benchmark's input spaces (``bench/workloads.py``)."""
    return bench_module("workloads")
