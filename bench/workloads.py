"""The benchmark's workloads, their output checks and expected call counts.

Each workload is one shipped config run through the real CLI at a workload
seed (default: the config's own seed).  A run passes its output check when
every structural condition holds and every pinned report number lies within
its stated tolerance of the value recorded at the commit that introduced
the benchmark, at the default seed.  Tolerances are 8 standard deviations
of the number across seeds at that commit (16 seeds for bm-simulate, 20 for
the others), so that any seed and a slight numerical change pass while a
broken pipeline does not.  The largest share of a tolerance used is
reported as a drift diagnostic.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable

# artifacts whose text the checks read
TEXT_ARTIFACTS = ("report.txt", "sweep.csv")


def _report_numbers(text: str) -> dict:
    """``key value`` lines of report.txt whose value parses as a float."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return out


def _csv_rows(artifacts: dict) -> list:
    return list(csv.DictReader(io.StringIO(artifacts["sweep.csv"]["text"])))


# ----------------------------------------------------------- bm-simulate

BM_PARTICLES = 500
BM_ROWS = 1 + BM_PARTICLES * 1001   # header + particles * (steps + 1)


def _read_bm(artifacts):
    problems = [f"{name} has {artifacts[name]['lines']} lines, "
                f"expected {BM_ROWS}"
                for name in ("paths.csv", "flow.csv")
                if artifacts[name]["lines"] != BM_ROWS]
    return _report_numbers(artifacts["report.txt"]["text"]), problems


# -------------------------------------------------------------- lq-sweep

SWEEP_TAGS = ["8", "32", "128", "ref"]


def _read_sweep(artifacts):
    rows = _csv_rows(artifacts)
    tags = [r["penalty"] for r in rows]
    if tags != SWEEP_TAGS:
        return {}, [f"sweep.csv rows {tags}, expected {SWEEP_TAGS}"]
    problems = [f"row {r['penalty']} not converged or failed: "
                f"{r['converged']} {r['error']!r}"
                for r in rows if r["converged"] != "true" or r["error"]]
    gaps = [float(r["flow_gap"]) for r in rows[:3]]
    if not gaps[0] > gaps[1] > gaps[2] > 0.0:
        problems.append(f"flow_gap does not shrink as n grows: {gaps}")
    numbers = {}
    for r in rows[:3]:
        numbers[f"cost_n{r['penalty']}"] = float(r["cost"])
        numbers[f"flow_gap_n{r['penalty']}"] = float(r["flow_gap"])
    numbers["cost_ref"] = float(rows[3]["cost"])
    return numbers, problems


# ------------------------------------------------------------ lq-chatter

CHATTER_ROWS = [("0.2", "10"), ("0.1", "20"), ("0.05", "40")]


def _read_chatter(artifacts):
    rows = _csv_rows(artifacts)
    keys = [(r["delta"], r["penalty"]) for r in rows]
    if keys != CHATTER_ROWS:
        return {}, [f"sweep.csv rows {keys}, expected {CHATTER_ROWS}"]
    numbers = {}
    for line in artifacts["report.txt"]["text"].splitlines():
        if line.startswith("relaxed reference J = "):
            numbers["reference_J"] = float(line.split()[4])
    for r in rows:
        for col in ("control_distance", "cost", "cost_gap"):
            numbers[f"{col}_d{r['delta']}"] = float(r[col])
    return numbers, []


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    default_seed: int
    overrides: tuple
    read: Callable          # artifacts -> (numbers, problems)
    pins: dict              # number -> (recorded value, tolerance)
    calls: Callable         # fixed-point iterations -> expected call counts
    default_calls: dict     # the counts recorded at the default seed

    def cli_args(self, seed: int) -> list:
        args = [self.command, "--config", self.config, "--seed", str(seed)]
        for item in self.overrides:
            args += ["--override", item]
        return args

    def check(self, artifacts: dict):
        """(problems, (largest share of tolerance, its number) or None)."""
        try:
            numbers, problems = self.read(artifacts)
        except (KeyError, ValueError, IndexError) as exc:
            return [f"missing or unreadable artifact: {exc!r}"], None
        shares = []
        for key, (ref, tol) in self.pins.items():
            if key not in numbers:
                problems.append(f"{key} missing from the artifacts")
                continue
            shares.append((abs(numbers[key] - ref) / tol, key))
            if shares[-1][0] > 1.0:
                problems.append(f"{key} = {numbers[key]!r}, recorded {ref!r} "
                                f"+/- {tol!r}")
        return problems, max(shares, default=None)

    def check_calls(self, seed: int, calls: dict, iterations: int) -> list:
        """Traced call counts against the counts the iterations imply."""
        expected = self.calls(iterations)
        if seed == self.default_seed:
            expected = self.default_calls
        got = {name: calls.get(name, 0) for name in expected}
        if got != expected:
            return [f"traced calls {got}, expected {expected}"]
        return []


# Why each workload: bm-simulate spends nearly all its time in the CSV
# writers with no solver layer running (a solver change should not move it);
# lq-sweep runs every solver layer with strict DP feedback and 1-D W2 and
# writes almost nothing; lq-chatter drives the controls layer through
# relaxed weights, chattered switching and realized-measure lifting.  The
# particle count is lowered for bm-simulate (one shipped-size run lasts
# about 25 s) and raised for lq-chatter (one shipped-size run lasts under
# a second), so that one run lasts 5-10 s: long enough to average over the
# host's second-scale speed changes, short enough that one benchmark run
# takes the median of several.
WORKLOADS = {wl.name: wl for wl in [
    Workload(
        name="bm-simulate", command="simulate",
        config="scripts/configs/half_line_bm.cfg", default_seed=0,
        overrides=(f"sim.n_particles={BM_PARTICLES}",), read=_read_bm,
        pins={
            "kvar_total": (0.7580117867905668, 0.214),
            "sup_x_sq": (1.6833717368606402, 0.475),
            "sup_k_sq": (0.9105516232622326, 0.502),
        },
        calls=lambda iters: {"simulate": 1, "sample_control": 1000},
        default_calls={"simulate": 1, "sample_control": 1000},
    ),
    Workload(
        name="lq-sweep", command="sweep-n",
        config="scripts/configs/lq_box.cfg", default_seed=303,
        overrides=(), read=_read_sweep,
        pins={
            "cost_n8": (0.10667709035506627, 0.0104),
            "cost_n32": (0.1062685594195984, 0.0104),
            "cost_n128": (0.10624660726785487, 0.0101),
            "cost_ref": (0.10606397350927144, 0.01),
            "flow_gap_n8": (0.02955417428020402, 0.0144),
            "flow_gap_n32": (0.015675271936833723, 0.00708),
            "flow_gap_n128": (0.006767000168975732, 0.00313),
        },
        # four solves (reference + three penalties), each one start-up run,
        # one run per iteration and one exploitability run; 250 steps each
        calls=lambda iters: {
            "simulate": 8 + iters, "sample_control": 250 * (8 + iters),
            "build_chain": iters, "solve_dp": iters, "w2_flow": iters + 3,
            "exploitability": 4},
        default_calls={"simulate": 26, "sample_control": 6500,
                       "build_chain": 18, "solve_dp": 18, "w2_flow": 21,
                       "exploitability": 4},
    ),
    Workload(
        name="lq-chatter", command="chatter",
        config="scripts/configs/lq_box_chatter.cfg", default_seed=404,
        overrides=("sim.n_particles=32000",), read=_read_chatter,
        pins={
            "reference_J": (0.144093, 0.00252),
            "control_distance_d0.2": (0.05792773618594913, 0.0107),
            "control_distance_d0.1": (0.04427577553602447, 0.0269),
            "control_distance_d0.05": (0.054524856918405966, 0.0488),
            "cost_d0.2": (0.13901466793463077, 0.00256),
            "cost_d0.1": (0.14116939121373226, 0.00261),
            "cost_d0.05": (0.14260853053055442, 0.00259),
            "cost_gap_d0.2": (-0.0050787455054308595, 0.000365),
            "cost_gap_d0.1": (-0.0029240222263293703, 0.000342),
            "cost_gap_d0.05": (-0.0014848829095072125, 0.000321),
        },
        # one solve (start-up, iterations, exploitability), then the relaxed
        # reference and three chattered runs; 40 steps each
        calls=lambda iters: {
            "simulate": 6 + iters, "sample_control": 40 * (6 + iters),
            "build_chain": iters, "solve_dp": iters, "w2_flow": iters,
            "d_relaxed": 3},
        default_calls={"simulate": 10, "sample_control": 400,
                       "build_chain": 4, "solve_dp": 4, "w2_flow": 4,
                       "d_relaxed": 3},
    ),
]}
