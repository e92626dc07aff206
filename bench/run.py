"""penmfg benchmark: the real CLI on three workloads, one child at a time.

    python3 bench/run.py --workload bm-simulate|lq-sweep|lq-chatter
                         [--seed N] [--seconds S] [--trace 0|1]

BENCHMARK.json lists bm-simulate and lq-chatter, the two that fit its time
budget at 58 s a run; lq-sweep runs only when asked for by name.

Each CLI run is a fresh ``python3 bench/child.py`` process with
PYTHONPATH=src and one BLAS/OpenMP thread; runs go one after another, each
into a temporary output directory that is deleted afterwards.  A
set-up-only process warms the file cache first; then runs repeat while
another fits in ``--seconds`` (at least one; two when traced).

``--trace 0`` reports the end-to-end metrics: median ``wall_s`` (the call
into ``penmfg.cli.main`` to its return), median ``setup_s`` (importing
penmfg.cli plus config parse, overrides and ``build_model``; extra
set-up-only processes add samples) and median ``peak_rss_mb``.  The
failed fraction is printed and carried by ``attempted``/``failed``.
``--trace 1`` makes the first run a traced one (see spans.py), reports the
per-layer metrics from it and ``tracing.overhead_s`` against the untraced
runs, and asserts the traced call counts.

Every run must exit 0, pass its workload's output check (workloads.py) and
produce artifacts byte-identical to the first passing run with the same
CLI arguments (seed included) and source, in this invocation or an
earlier one in the same checkout (recorded in .bench_hashes.json); any
other run counts as failed.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
HASHES = ROOT / ".bench_hashes.json"
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on 2 cores a second one made no workload faster but
# spun on the other core for about 1 s of CPU per lq-chatter run.
BLAS_THREADS = 1


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def _hash_key(wl, seed: int) -> str:
    """Names one workload run: its CLI arguments and the source they run."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [ROOT / wl.config]:
        digest.update(path.read_bytes())
    return f"{' '.join(wl.cli_args(seed))} source {digest.hexdigest()}"


def _scan(path: Path) -> dict:
    """sha256 and line count of one artifact."""
    digest, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return {"sha256": digest.hexdigest(), "lines": lines}


def _run_child(mode: str, cli_args: list, env: dict) -> tuple[dict, dict]:
    """One child process; returns its result and its artifacts by name."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
        out, result_file = Path(tmp) / "out", Path(tmp) / "result.json"
        cmd = [sys.executable, str(BENCH / "child.py"), mode, str(out),
               str(result_file), "--"] + cli_args
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except subprocess.TimeoutExpired:
            return {"exit": None, "error": "timed out"}, {}
        if proc.returncode != 0 or not result_file.exists():
            return {"exit": None, "error": proc.stdout.strip()[-500:]}, {}
        result = json.loads(result_file.read_text(encoding="utf-8"))
        artifacts = {}
        if out.is_dir():
            artifacts = {f.name: _scan(f) for f in sorted(out.iterdir())}
            for name in workloads.TEXT_ARTIFACTS:
                if name in artifacts:
                    artifacts[name]["text"] = (out / name).read_text(
                        encoding="utf-8")
    return result, artifacts


def _judge(wl, seed, result, artifacts, first_hashes) -> tuple[list, tuple]:
    """Problems with one workload run (empty when it passes), and its drift."""
    if result["exit"] != 0:
        return [f"exit {result['exit']}: {result.get('error', '')}"], None
    problems, drift = wl.check(artifacts)
    hashes = {name: a["sha256"] for name, a in artifacts.items()}
    if first_hashes is not None and hashes != first_hashes:
        differ = sorted(n for n in set(hashes) | set(first_hashes)
                        if hashes.get(n) != first_hashes.get(n))
        problems.append(f"artifacts differ from the first run: {differ}")
    if "calls" in result:
        problems += wl.check_calls(seed, result["calls"],
                                   result["layers"]["equilibrium.iterations"][0])
    return problems, drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed passed to the CLI as --seed "
                             "(default: the config's shipped seed)")
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    missing = [p for p in (ROOT / "src" / "penmfg", ROOT / wl.config)
               if not p.exists()]
    if missing:
        print(f"error: not a penmfg checkout, missing {missing}",
              file=sys.stderr)
        return 1
    nproc = len(os.sched_getaffinity(0))
    env = _child_env()
    cli_args = wl.cli_args(seed)

    # artifact hashes of earlier runs at this seed and source, so that reruns
    # in later invocations are held to byte identity too
    known = json.loads(HASHES.read_text()) if HASHES.exists() else {}
    key = _hash_key(wl, seed)
    first_hashes = known.get(key)
    min_runs = 2 if args.trace else 1   # a traced run needs an untraced twin
    runs, drifts = [], []
    _run_child("setup", cli_args, env)   # warm-up, not timed
    started = perf_counter()
    while True:
        mode = "trace" if args.trace and not runs else "run"
        t0 = perf_counter()
        result, artifacts = _run_child(mode, cli_args, env)
        result["mode"], result["elapsed"] = mode, perf_counter() - t0
        problems, drift = _judge(wl, seed, result, artifacts, first_hashes)
        if first_hashes is None and not problems:
            first_hashes = {n: a["sha256"] for n, a in artifacts.items()}
        result["passed"] = not problems
        runs.append(result)
        if drift is not None:
            drifts.append(drift)
        print(f"run {len(runs)} [{mode}] exit {result['exit']}  "
              f"wall_s {result.get('wall_s', float('nan')):.4f}  "
              + ("ok" if not problems else "FAILED: " + "; ".join(problems)))
        if result["exit"] is None:
            break
        typical = statistics.median([r["elapsed"] for r in runs])
        if (len(runs) >= min_runs
                and perf_counter() - started + typical > args.seconds):
            break

    if first_hashes is not None and key not in known:
        HASHES.write_text(json.dumps({**known, key: first_hashes}, indent=1))
    failed = sum(not r["passed"] for r in runs)
    print(f"failed_frac {failed}/{len(runs)} = {failed / len(runs):.4g} ratio")
    if drifts:
        share, name = max(drifts)
        print(f"largest output drift: {name} at {share:.3g} of its tolerance"
              " (diagnostic, does not gate)")
    # only runs that passed every check are timed
    untraced = [r for r in runs if r["passed"] and r["mode"] == "run"]
    if not untraced or (args.trace and not runs[0]["passed"]):
        print("error: no passing run to time", file=sys.stderr)
        return 1
    info = untraced[0]["versions"]
    print(f"workload {wl.name}  seed {seed}  python {info['python']}  "
          f"numpy {info['numpy']}  scipy {info['scipy']}  nproc {nproc}  "
          + "  ".join(f"{v}={BLAS_THREADS}" for v in THREAD_VARS))

    wall = statistics.median([r["wall_s"] for r in untraced])
    if args.trace:
        traced = runs[0]
        metrics = dict(traced["layers"])
        metrics["process.cpu_s"] = (traced["cpu_s"], "s")
        metrics["tracing.overhead_s"] = (traced["wall_s"] - wall, "s")
        print(f"tracing overhead {traced['wall_s'] - wall:.4f} s "
              f"(traced wall {traced['wall_s']:.4f} s, untraced median "
              f"{wall:.4f} s over {len(untraced)})")
    else:
        setups = [r["setup_s"] for r in untraced]
        for _ in range(SETUP_RUNS):
            result, _ = _run_child("setup", cli_args, env)
            if result["exit"] != 0:
                print(f"error: set-up run failed: {result.get('error')}",
                      file=sys.stderr)
                return 1
            setups.append(result["setup_s"])
        rss = statistics.median(r["peak_rss_mb"] for r in untraced)
        metrics = {"wall_s": (wall, "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (rss, "MB")}
        print(f"samples: wall_s {len(untraced)}, setup_s {len(setups)}, "
              f"peak_rss_mb {len(untraced)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
