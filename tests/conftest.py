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


def random_class(rng, x, bound=5):
    return tuple(rng.randint(-bound, bound) for _ in range(x.lattice_rank))


def run_optimized(code: str) -> str:
    """stdout of ``code`` run by ``python -O``, which strips assert statements."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def bench_workloads():
    """The benchmark's input spaces (``bench/workloads.py``), loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # registered first: its dataclasses look their module up
    return module
