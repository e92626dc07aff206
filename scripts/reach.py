"""List the functions under src/penmfg that no command of the CLI reaches.

Runs every command (``penmfg.config.COMMANDS``) on every shipped config in
``scripts/configs``, in this process and at a reduced particle count, under
a ``sys.setprofile`` hook that records each Python function entered, the
package's import included.  Then prints each run's exit status, and every
function or method defined under ``src/penmfg`` that nothing entered, with
its line count (decorators included), and their total.  Artifacts go to a
temporary directory that is removed on exit.

    python3 scripts/reach.py [--particles 200]

A command that fails on a config (``dp`` without ``[dp] hx``, ``chatter``
on a penalized base) still counts what it entered before the error.  The
forked CSV helper replays the producer that the parent runs too (for
``simulate``, the whole run) and formats with the functions that the serial
writer runs, so nothing is missed by not tracing it.  A function listed
here is reached by no command; it may still be reached by an acceptance
criterion or a test.
"""

import argparse
import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "penmfg"
sys.path.insert(0, str(ROOT / "src"))


def defined_functions() -> dict:
    """{(file, first line): (name, line count)} of every def under SRC.

    The first line is the code object's ``co_firstlineno``: a decorated
    function starts at its first decorator.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[str(path), first] = (f"{path.name}:{name}",
                                           child.end_lineno - first + 1)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def traced_runs(particles: int, out: str) -> tuple:
    """(runs, exit statuses, {(file, first line)} entered): every command on
    every config, with the package's import traced before the first run."""
    codes, seen = [], set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    configs = sorted((ROOT / "scripts" / "configs").glob("*.cfg"))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(hook)
        try:
            from penmfg import cli, config
            runs = [(command, cfg) for cfg in configs for command in config.COMMANDS]
            for k, (command, cfg) in enumerate(runs):
                codes.append(cli.main([command, "--config", str(cfg),
                                       "--out", f"{out}/{k}", "--override",
                                       f"sim.n_particles={particles}"]))
        finally:
            sys.setprofile(None)
    return runs, codes, {(str(Path(f).resolve()), line) for f, line in seen}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--particles", type=int, default=200,
                    help="sim.n_particles of every run (default 200)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="penmfg-reach-") as tmp:
        runs, codes, seen = traced_runs(args.particles, tmp)
    print(f"{len(runs)} runs at {args.particles} particles (exit status):")
    for (command, cfg), code in zip(runs, codes):
        print(f"  {code}  {command:<12} {cfg.name}")
    missed = [(name, lines) for key, (name, lines)
              in sorted(defined_functions().items()) if key not in seen]
    print(f"{len(missed)} functions ({sum(n for _, n in missed)} lines)"
          " that no command reaches:")
    for name, lines in missed:
        print(f"  {lines:4d}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
