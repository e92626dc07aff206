"""Quick self-check of the benchmark harness (about 80 s on 2 cores).

    python3 -m pytest -q bench/test_selfcheck.py

Runs every workload once traced and once untraced, with the output check,
the byte-identity check and the call-count assertions, so that a broken
benchmark fails here before a long measurement.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=BENCH.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_passes_checks(workload):
    result = _result(_bench("--workload", workload, "--seconds", "0",
                            "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_untraced_run_reports_end_to_end_metrics():
    result = _result(_bench("--workload", "lq-chatter", "--seconds", "0"))
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "lq-sweep", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_rerun_in_a_later_invocation_must_match(tmp_path):
    for part in ("bench", "src", "scripts"):
        shutil.copytree(BENCH.parent / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    wl = workloads.WORKLOADS["lq-chatter"]
    key = run._hash_key(wl, wl.default_seed)
    (tmp_path / ".bench_hashes.json").write_text(
        json.dumps({key: {"report.txt": "0" * 64}}))
    proc = _bench("--workload", wl.name, "--seconds", "0", cwd=tmp_path)
    assert "FAILED: artifacts differ" in proc.stdout
    assert proc.returncode != 0


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_fn():
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", outer_fn)()
    _, incl, self_s = spans._aggregate(tracer.spans)
    assert incl["outer"] >= incl["inner"] + 0.01
    assert abs(self_s["outer"] - (incl["outer"] - incl["inner"])) < 1e-9
    assert self_s["inner"] == incl["inner"]


def test_call_count_check_flags_a_missed_site():
    wl = workloads.WORKLOADS["lq-sweep"]
    assert wl.check_calls(303, dict(wl.default_calls), 18) == []
    assert wl.check_calls(7, wl.calls(17), 17) == []
    short = dict(wl.default_calls, simulate=25)
    assert wl.check_calls(303, short, 18)
