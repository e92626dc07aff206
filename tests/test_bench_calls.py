"""The benchmark's traced call counts hold at a small size and another seed.

Each workload of ``bench/workloads.py`` runs once through ``bench/child.py
trace`` in a fresh process, as the benchmark runs it but at a few hundred
particles, and its traced calls must be the counts its fixed-point
iterations imply (`Workload.check_calls`).  A change that adds or drops a
``simulate`` or ``w2_flow`` call fails here before the self-check in
``bench/test_selfcheck.py`` runs.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_workloads",
                                               ROOT / "bench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SEED = 17


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_calls_match_the_workload(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    assert SEED != wl.default_seed
    args = wl.cli_args(SEED) + ["--override", "sim.n_particles=200"]
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "trace",
         str(tmp_path / "out"), str(result), "--", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = json.loads(result.read_text(encoding="utf-8"))
    assert got["exit"] == 0
    iterations = got["layers"]["equilibrium.iterations"][0]
    assert wl.check_calls(SEED, got["calls"], iterations) == []
