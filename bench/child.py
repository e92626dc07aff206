"""One penmfg CLI run in a fresh process, timed from outside the package.

    python3 bench/child.py MODE OUT_DIR RESULT_JSON -- CLI_ARGS...

MODE is ``run`` (untraced), ``trace`` (spans around every layer, see
spans.py) or ``setup`` (stop once the model is built).  The parent sets
PYTHONPATH so that ``penmfg`` resolves to the checkout's ``src``; the CLI
writes its artifacts to OUT_DIR.  The result file holds the exit status,
the times, peak RSS and CPU time, and in trace mode the traced spans' call
counts and per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


class SetupDone(BaseException):
    """Ends a ``setup`` run; BaseException so the CLI's handlers let it by."""


def main(argv) -> int:
    mode, out, result_path = argv[0], Path(argv[1]), Path(argv[2])
    if argv[3] != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit("usage: child.py run|trace|setup OUT RESULT -- ARGS")
    cli_args = argv[4:] + ["--out", str(out)]

    t_import = perf_counter()
    import penmfg.cli as cli
    imported = perf_counter()

    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()

    built = []
    build_model = cli.build_model

    def marked_build_model(*args, **kwargs):
        model = build_model(*args, **kwargs)
        built.append(perf_counter())
        if mode == "setup":
            raise SetupDone
        return model

    cli.build_model = marked_build_model

    start = perf_counter()
    try:
        code = cli.main(cli_args)
    except SetupDone:
        code = 0
    end = perf_counter()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit": code,
        "setup_s": (imported - t_import) + (built[0] - start) if built else None,
        "wall_s": end - start,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "versions": {"python": sys.version.split()[0],
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__},
    }
    if tracer is not None:
        result["calls"] = spans.call_counts(tracer)
        artifact_bytes = sum(f.stat().st_size for f in out.iterdir())
        result["layers"] = spans.layer_metrics(tracer, artifact_bytes)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
