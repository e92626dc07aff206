"""The reachability rule as a check: every function under src/penmfg that no
command of the CLI reaches (``scripts/reach.py``) is named here with why it
stays.  A new function that no command reaches fails this test until it is
justified here or deleted; a justified one that a command starts to reach,
or that is deleted, fails it until its entry goes.  The audit's runs are
pinned too: a command that starts failing, or stops converging, on a
shipped config fails this test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CRITERION_1 = "acceptance criterion 1 projects onto it; a config may name it"
CRITERION_5 = "acceptance criterion 5, the generator-compensated martingale residual"
REFERENCE = ("the path reader that Run.cost is pinned against, and the"
             " literal-penalty cross-check; acceptance criteria 6 and 10")

UNREACHED = {
    "cli.py:console_entry": "the `penmfg` console script of pyproject.toml",
    "config.py:apply_overrides": ("the library form of `--override`; tests and"
                                  " `bench/spans.py` call it by name"),
    "domain.py:ball": CRITERION_1,
    "domain.py:polytope": CRITERION_1,
    "domain.py:_project_polytope": CRITERION_1,
    "errors.py:DivergenceError.__init__": "error path: a run that leaves the reals",
    "measures.py:MeasureFlow.stack": "acceptance criterion 7's rerun identity",
    "measures.py:_w2sq_quantile": ("1-D W2 of weighted clouds: the path of the"
                                   " weighted chain flows of ROADMAP items 4 and 6"),
    "measures.py:_assignment_cost2": "config-reachable: W2 of clouds in d >= 2",
    "model.py:linear_probe": CRITERION_5,
    "model.py:quadratic_probe": CRITERION_5,
    "model.py:generator_apply": CRITERION_5,
    "model.py:preset_names": "error path: names the known presets",
    "model.py:_uniform_box_law": "config-reachable: init = uniform_box",
    "model.py:_uniform_box_law.law": "config-reachable: init = uniform_box",
    "model.py:_reflected_ou_mf": ("config-reachable preset; acceptance"
                                  " criterion 6 runs it"),
    "simulate.py:_check_paths": ("the path readers' refusal of a run kept"
                                 " without K and |K|; acceptance criteria 5, 6 and 10"),
    "simulate.py:_stepwise_cost": ("the path readers' per-step control average;"
                                   " acceptance criteria 5, 6 and 10"),
    "simulate.py:evaluate_cost": REFERENCE,
    "simulate.py:martingale_residual": CRITERION_5,
}

# (command, config) -> exit status of every audit run that does not exit 0
FAILING = {
    ("dp", "half_line_bm.cfg"): 1,  # no [dp] hx
    ("chatter", "half_line_bm.cfg"): 1,  # no [dp] hx
    ("chatter", "lq_box.cfg"): 1,  # its deltas are not whole multiples of its dt
}


def test_every_function_no_command_reaches_is_justified():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reach.py"), "--particles", "50"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    runs, functions = out.split(" that no command reaches:\n", 1)
    statuses = {(command, cfg): int(code) for code, command, cfg
                in (line.split() for line in runs.splitlines()[1:-1])}
    assert len(statuses) == 18
    assert {run: code for run, code in statuses.items() if code} == FAILING
    listed = functions.splitlines()
    names = {line.split()[1] for line in listed}
    assert not names - UNREACHED.keys(), "reached by no command, not justified"
    assert not UNREACHED.keys() - names, "justified here, but reached or gone"
