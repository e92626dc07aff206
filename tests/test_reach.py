"""The reachability rule as a check: every function under src/penmfg that no
command of the CLI reaches (``scripts/reach.py``) is named here with why it
stays.  A new function that no command reaches fails this test until it is
justified here or deleted; a justified one that a command starts to reach,
or that is deleted, fails it until its entry goes.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CRITERION_1 = "acceptance criterion 1 projects onto it; a config may name it"
CRITERION_5 = "acceptance criterion 5, the generator-compensated martingale residual"
REFERENCE = ("the path reader that Run.cost is pinned against, and the"
             " literal-penalty cross-check; acceptance criteria 6 and 10")
TEST_ONLY_Z = ("read only by the martingale tests, as criterion 5 computes its z"
               " inline; ROADMAP item 11 decides")

UNREACHED = {
    "cli.py:console_entry": "the `penmfg` console script of pyproject.toml",
    "config.py:_invalid": "error path: places a config error in its section",
    "domain.py:ball": CRITERION_1,
    "domain.py:polytope": CRITERION_1,
    "domain.py:_project_polytope": CRITERION_1,
    "equilibrium.py:residual_noise_floor": "ROADMAP item 9 decides",
    "equilibrium.py:coupling_distance": "ROADMAP item 8 decides",
    "equilibrium.py:coupling_distance.run": "ROADMAP item 8 decides",
    "errors.py:DivergenceError.__init__": "error path: a run that leaves the reals",
    "measures.py:MeasureFlow.stack": "acceptance criterion 7's rerun identity",
    "measures.py:_w2sq_quantile": "config-reachable: 1-D W2 of non-uniform clouds",
    "measures.py:_assignment_cost2": "config-reachable: W2 of clouds in d >= 2",
    "model.py:linear_probe": CRITERION_5,
    "model.py:quadratic_probe": CRITERION_5,
    "model.py:generator_apply": CRITERION_5,
    "model.py:preset_names": "error path: names the known presets",
    "model.py:_uniform_box_law": "config-reachable: init = uniform_box",
    "model.py:_uniform_box_law.law": "config-reachable: init = uniform_box",
    "model.py:_build_reflected_ou_mf": ("config-reachable preset; acceptance"
                                        " criterion 6 runs it"),
    "simulate.py:_stepwise_cost": ("the path readers' per-step control average;"
                                   " acceptance criteria 5, 6 and 10"),
    "simulate.py:evaluate_cost": REFERENCE,
    "simulate.py:MartingaleReport.aggregate_z": TEST_ONLY_Z,
    "simulate.py:MartingaleReport.per_step_z": TEST_ONLY_Z,
    "simulate.py:martingale_residual": CRITERION_5,
}


def test_every_function_no_command_reaches_is_justified():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reach.py"), "--particles", "50"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    listed = out.split("that no command reaches:\n", 1)[1].splitlines()
    names = {line.split()[1] for line in listed}
    assert not names - UNREACHED.keys(), "reached by no command, not justified"
    assert not UNREACHED.keys() - names, "justified here, but reached or gone"
