"""Run configuration: a flat sectioned key-value format and its builders.

The format is deliberately small: `[section]` headers, `key = value` lines,
`#` comments, UTF-8.  Values are scalars, space-separated float lists, or
';'-separated rows of floats (polytope matrices).  Sections:

    [run]          command, seed, output directory
    [domain]       kind plus the kind's geometry parameters
    [model]        preset plus the preset's coefficients
    [sim]          particle-system discretization (SimConfig fields)
    [dp]           best-response grid resolution and optional bounds
    [fixed_point]  outer-loop damping, iteration cap, tolerances
    [sweep]        penalty levels / switching periods for the study commands

`parse_config` validates everything it can see: unknown sections or keys,
type mismatches, and range violations all fail with the offending line
number, and the domain / model / sim configs and the DP grid are actually
constructed so their own guards (e.g. the explicit-scheme penalty*dt
stability limit, a reflected grid node outside the domain) fire at parse
time.  Defaults that were applied are recorded on the returned config so
run logs can echo them.  `section.key=value`
overrides, `[domain]` keys included, are set into the text's entries before
anything is typed, so the text and its overrides are validated together: an
override can repair a value the text gets wrong, an overridden key is no
default, and an error it causes names the override instead of a line.
`apply_overrides` re-reads a parsed config with more overrides on top.

`serialize` writes the canonical form; parse(serialize(cfg)) == cfg, and the
manifest hash is the digest of that canonical text.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import domain as dom_mod
from .controls import _cells_per_block
from .dp import DPGrid, check_reflected_nodes
from .equilibrium import FixedPointConfig, chatter_penalty
from .errors import ConfigError, PenmfgError
from .measures import format_float
from .model import ModelSpec, make_preset, preset_names
from .simulate import SimConfig, _n_steps

COMMANDS = ("simulate", "dp", "equilibrium", "sweep-n", "chatter", "diagnose")

DOMAIN_KINDS = {
    "box": ("lower", "upper"),
    "ball": ("center", "radius"),
    "half_space": ("normal", "offset"),
    "polytope": ("normals", "offsets"),
}

# value kinds: "int", "float", "str", "floats" (space-separated),
# "ints", "rows" (';'-separated float rows)
_SCHEMA = {
    "run": {"command": ("str", "simulate"), "seed": ("int", 0),
            "out": ("str", "out")},
    "sim": {"n_particles": ("int", None), "dt": ("float", None),
            "scheme": ("str", "penalized_splitting"),
            "penalty": ("int", None)},
    "dp": {"hx": ("float", None), "lower": ("floats", None),
           "upper": ("floats", None)},
    "fixed_point": {"damping": ("float", 0.5), "max_iters": ("int", 30),
                    "tol": ("float", 5e-2), "tol_exploit": ("float", 5e-2)},
    "sweep": {"n_list": ("ints", (8, 32, 128)),
              "deltas": ("floats", (0.2, 0.1, 0.05)),
              "n0": ("float", 8.0), "epsilon": ("float", 0.1)},
}
_SECTIONS = ("run", "domain", "model", "sim", "dp", "fixed_point", "sweep")


@dataclass(eq=True)
class RunConfig:
    """Validated run description; dict fields hold normalized scalar values."""

    command: str = "simulate"
    seed: int = 0
    out: str = "out"
    domain: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    dp: dict = field(default_factory=dict)
    fixed_point: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    defaults_applied: tuple = field(default=(), compare=False, repr=False)
    # section -> key -> its line number, or the text of the override that set it
    sources: dict = field(default_factory=dict, compare=False, repr=False)
    # what was read: the config text and the overrides on top of it
    text: str = field(default="", compare=False, repr=False)
    overrides: tuple = field(default=(), compare=False, repr=False)


# ------------------------------------------------------------------ parsing


def _at(message: str, where) -> ConfigError:
    """``message`` placed at ``where``: a line number, an override's text or None."""
    if isinstance(where, str):
        return ConfigError(f"{where}: {message}")
    return ConfigError(message, where)


def _parse_scalar(dotted: str, entry: tuple, kind: str):
    """A raw ``(value, where)`` entry as ``kind``; an error names ``dotted``."""
    raw, where = entry
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "floats":
            return tuple(float(p) for p in raw.split())
        if kind == "ints":
            return tuple(int(p) for p in raw.split())
        if kind == "rows":
            rows = [tuple(float(p) for p in row.split()) for row in raw.split(";")]
            if len({len(r) for r in rows}) != 1:
                raise _at(f"{dotted} matrix rows have unequal lengths", where)
            return tuple(rows)
    except ValueError:
        raise _at(f"{dotted} expected {kind}, got {raw!r}", where) from None
    return raw  # "str"


def _model_value(raw: str):
    """Model parameters are preset-defined: float, float list, ';'-separated
    float rows (any lengths: the preset names a ragged value), or string."""
    parts = raw.split()
    try:
        if ";" in raw:
            return tuple(tuple(float(p) for p in row.split()) for row in raw.split(";"))
        if len(parts) > 1:
            return tuple(float(p) for p in parts)
        return float(raw)
    except ValueError:
        return raw


def _raw_sections(text: str) -> dict:
    """section -> {key: (raw value, line number)}; structure errors here."""
    out: dict = {}
    current = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{name}]; expected one of "
                    f"{', '.join(_SECTIONS)}", lineno)
            current = out.setdefault(name, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key = value, got {stripped!r}", lineno)
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigError("empty key", lineno)
        if key in current:
            raise ConfigError(f"duplicate key {key!r} in section", lineno)
        current[key] = (value, lineno)
    return out


def _patch(raw: dict, item: str) -> None:
    """Set one ``section.key=value`` override into the raw entries."""
    dotted, eq, value = item.partition("=")
    section, dot, key = dotted.strip().partition(".")
    if not (eq and dot):
        raise ConfigError(f"override {item!r} is not section.key=value")
    if section not in _SECTIONS:
        raise ConfigError(f"override {item!r}: unknown section {section!r}")
    raw.setdefault(section, {})[key] = (value.strip(), f"override {item!r}")


def _typed_section(name: str, raw: dict, defaults_log: list) -> dict:
    schema = _SCHEMA[name]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise _at(f"unknown key {unknown[0]!r} in [{name}]", raw[unknown[0]][1])
    values = {}
    for key, (kind, default) in schema.items():
        if key in raw:
            values[key] = _parse_scalar(f"{name}.{key}", raw[key], kind)
        elif default is not None:
            values[key] = default
            defaults_log.append(f"{name}.{key} = {_render(default)}")
    return values


def _domain_section(raw: dict) -> dict:
    if "kind" not in raw:
        raise ConfigError("[domain] needs a kind (box, ball, half_space, polytope)")
    kind, kind_at = raw["kind"]
    if kind not in DOMAIN_KINDS:
        raise _at(f"unknown domain kind {kind!r}", kind_at)
    wanted = DOMAIN_KINDS[kind]
    unknown = sorted(set(raw) - set(wanted) - {"kind"})
    if unknown:
        raise _at(f"unknown key {unknown[0]!r} for domain kind {kind!r}",
                  raw[unknown[0]][1])
    values = {"kind": kind}
    kinds = {"radius": "float", "offset": "float", "normals": "rows"}
    for key in wanted:
        if key not in raw:
            raise _at(f"domain kind {kind!r} needs key {key!r}", kind_at)
        values[key] = _parse_scalar(f"domain.{key}", raw[key], kinds.get(key, "floats"))
    return values


def _model_section(raw: dict) -> dict:
    if "preset" not in raw:
        raise ConfigError(f"[model] needs a preset; known: {preset_names()}")
    return {key: value if key == "preset" else _model_value(value)
            for key, (value, _) in raw.items()}


def parse_config(text: str, overrides=()) -> RunConfig:
    """Read a config and its ``section.key=value`` overrides in one pass.

    Each override sets its key before anything is typed, so the text and
    its overrides are typed and validated together; an error names the line
    or the override that set the culprit.
    """
    raw = _raw_sections(text)
    overrides = tuple(overrides)
    for item in overrides:
        _patch(raw, item)
    defaults_log: list = []
    run = _typed_section("run", raw.get("run", {}), defaults_log)
    if "domain" not in raw:
        raise ConfigError("missing [domain] section")
    if "model" not in raw:
        raise ConfigError("missing [model] section")
    cfg = RunConfig(
        **run, domain=_domain_section(raw["domain"]),
        model=_model_section(raw["model"]),
        **{name: _typed_section(name, raw.get(name, {}), defaults_log)
           for name in ("sim", "dp", "fixed_point", "sweep")},
        defaults_applied=tuple(defaults_log),
        sources={name: {key: where for key, (_, where) in body.items()}
                 for name, body in raw.items()},
        text=text, overrides=overrides,
    )
    _validate_builds(cfg)
    return cfg


def _invalid(cfg: RunConfig, message: str, section: str,
             key: str | None = None) -> ConfigError:
    """An error about [section] (key), placed where the culprit was set.

    That is the override that set the key, else any override into the
    section, else the key's line, else the section's first line.
    """
    found = cfg.sources.get(section, {})
    overrides = [where for where in found.values() if isinstance(where, str)]
    if isinstance(found.get(key), str):
        overrides.append(found[key])
    if overrides:
        return _at(message, overrides[-1])
    return _at(message, found.get(key, min(found.values(), default=None)))


def _validate_builds(cfg: RunConfig) -> None:
    if cfg.command not in COMMANDS:
        raise _invalid(cfg, f"unknown command {cfg.command!r}; expected one of "
                       f"{', '.join(COMMANDS)}", "run", "command")
    if cfg.seed < 0:
        raise _invalid(cfg, "seed must be nonnegative", "run", "seed")
    try:
        dom = build_domain(cfg)
    except PenmfgError as exc:
        raise _invalid(cfg, f"[domain] {exc}", "domain") from exc
    try:
        ms = build_model(cfg, dom)
    except PenmfgError as exc:
        key = next((k for k in cfg.model if f"'{k}'" in str(exc)), "preset")
        raise _invalid(cfg, f"[model] {exc}", "model", key) from exc
    needs_sim = cfg.command != "diagnose"
    if needs_sim or cfg.sim.get("n_particles") is not None:
        for key in ("n_particles", "dt"):
            if cfg.sim.get(key) is None:
                raise _invalid(cfg, f"[sim] needs key {key!r}", "sim")
        try:
            sim = build_sim(cfg)
        except PenmfgError as exc:
            raise _invalid(cfg, f"[sim] {exc}", "sim", "penalty") from exc
        if needs_sim:
            try:
                _n_steps(ms, sim.dt)
            except PenmfgError as exc:
                raise _invalid(cfg, f"[sim] {exc}", "sim", "dt") from exc
        try:
            build_fixed_point(cfg, sim)
        except PenmfgError as exc:
            raise _invalid(cfg, f"[fixed_point] {exc}", "fixed_point") from exc
    if cfg.command == "chatter":
        if not cfg.sweep["deltas"]:
            raise _invalid(cfg, "[sweep] deltas must name at least one period",
                           "sweep", "deltas")
        if not np.all(np.isfinite([*cfg.sweep["deltas"], cfg.sweep["n0"]])):
            raise _invalid(cfg, "[sweep] deltas and n0 must be finite", "sweep", "deltas")
        times = np.array([0.0, cfg.sim["dt"]])  # the run's first time step
        for delta in cfg.sweep["deltas"]:
            try:
                _cells_per_block(times, delta)
            except PenmfgError as exc:
                raise _invalid(cfg, f"[sweep] {exc}", "sweep", "deltas") from exc
            penalty = chatter_penalty(cfg.sweep["n0"], delta)
            if penalty < 1:
                raise _invalid(cfg, f"[sweep] penalty n0 / delta rounds to {penalty}"
                               f" at delta {delta}, below 1", "sweep", "n0")
    if cfg.command in ("dp", "chatter") and cfg.dp.get("hx") is None:
        raise _invalid(cfg, f"the {cfg.command} command needs [dp] hx", "dp", "hx")
    if cfg.command == "chatter" and len(ms.atoms) < 2:
        raise _invalid(cfg, "[model] chatter relaxes a DP law over at least 2"
                       " control atoms", "model", "preset")
    if cfg.command == "chatter" and cfg.fixed_point["max_iters"] < 1:
        raise _invalid(cfg, "[fixed_point] chatter relaxes the DP law of a solve"
                       " that runs at least one iteration; set max_iters >= 1",
                       "fixed_point", "max_iters")
    if cfg.command == "chatter" and cfg.sim["scheme"] != "reflected_projected":
        raise _invalid(cfg, "[sim] chatter starts from the reflected equilibrium;"
                       " set scheme = reflected_projected", "sim", "scheme")
    n_list = cfg.sweep["n_list"]
    if cfg.command == "sweep-n" and (not n_list or min(n_list) < 1):
        raise _invalid(cfg, "[sweep] n_list must name at least one penalty, each"
                       " at least 1", "sweep", "n_list")
    if cfg.dp.get("hx") is not None and cfg.dp["hx"] <= 0:
        raise _invalid(cfg, "[dp] hx must be positive", "dp", "hx")
    if cfg.command != "simulate":
        # sweep-n's reference and chatter's base solve are always reflected
        reflected = (cfg.command in ("sweep-n", "chatter")
                     or cfg.command in ("dp", "equilibrium")
                     and cfg.sim["scheme"] == "reflected_projected")
        try:
            grid = build_grid(cfg, ms)
            if grid is not None and reflected:
                check_reflected_nodes(grid.nodes(), ms.dom)
        except PenmfgError as exc:
            raise _invalid(cfg, f"[dp] {exc}", "dp", "hx") from exc
    if not 0.0 <= cfg.sweep["epsilon"] <= 0.5:
        raise _invalid(cfg, "[sweep] epsilon must lie in [0, 1/2]", "sweep", "epsilon")


def parse_config_file(path, overrides=()) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """``cfg`` read again with more ``section.key=value`` overrides on top."""
    return parse_config(cfg.text, cfg.overrides + tuple(overrides))


# ------------------------------------------------------------ serialization


def _render(value) -> str:
    if isinstance(value, bool):
        raise ConfigError(f"cannot render {value!r}")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return value
    if isinstance(value, tuple) and value and isinstance(value[0], tuple):
        return "; ".join(" ".join(_render(v) for v in row) for row in value)
    if isinstance(value, tuple):
        return " ".join(_render(v) for v in value)
    raise ConfigError(f"cannot render {value!r}")


def _line(section: str, key: str, value) -> str:
    """``key = value``; a string holding '#' would read back cut at it."""
    if isinstance(value, str) and "#" in value:
        raise ConfigError(f"{section}.{key} = {value!r} cannot be serialized: "
                          "the config format reads '#' as a comment")
    return f"{key} = {_render(value)}"


def serialize(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg.

    A string value holding '#' has no canonical form and raises ConfigError.
    """
    lines = ["[run]", *(_line("run", key, getattr(cfg, key))
                        for key in ("command", "seed", "out")), "", "[domain]"]
    lines += [_line("domain", key, cfg.domain[key])
              for key in ("kind", *DOMAIN_KINDS[cfg.domain["kind"]])]
    lines += ["", "[model]", _line("model", "preset", cfg.model["preset"])]
    lines += [_line("model", key, cfg.model[key])
              for key in sorted(k for k in cfg.model if k != "preset")]
    for section in ("sim", "dp", "fixed_point", "sweep"):
        body = getattr(cfg, section)
        keys = [k for k in _SCHEMA[section] if body.get(k) is not None]
        if not keys:
            continue
        lines += ["", f"[{section}]"]
        lines += [_line(section, key, body[key]) for key in keys]
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """Digest of what the run computes; the output path is normalized away."""
    canonical = serialize(replace(cfg, out="out"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------- builders


def build_domain(cfg: RunConfig) -> dom_mod.ConvexDomain:
    d = cfg.domain
    if d["kind"] == "box":
        return dom_mod.box(d["lower"], d["upper"])
    if d["kind"] == "ball":
        return dom_mod.ball(d["center"], d["radius"])
    if d["kind"] == "half_space":
        return dom_mod.half_space(d["normal"], d["offset"])
    return dom_mod.polytope([list(r) for r in d["normals"]], d["offsets"])


def build_model(cfg: RunConfig, dom=None) -> ModelSpec:
    dom = build_domain(cfg) if dom is None else dom
    params = {k: v for k, v in cfg.model.items() if k != "preset"}
    return make_preset(cfg.model["preset"], dom, params)


def build_sim(cfg: RunConfig) -> SimConfig:
    return SimConfig(
        n_particles=cfg.sim["n_particles"], dt=cfg.sim["dt"],
        scheme=cfg.sim["scheme"], penalty=cfg.sim.get("penalty"), seed=cfg.seed,
    )


def build_grid(cfg: RunConfig, ms: ModelSpec) -> DPGrid | None:
    """Domain-fitting DP grid, or None when [dp] gives no hx."""
    hx = cfg.dp.get("hx")
    if hx is None:
        return None
    if cfg.dp.get("lower") is not None or cfg.dp.get("upper") is not None:
        if cfg.dp.get("lower") is None or cfg.dp.get("upper") is None:
            raise ConfigError("bounds need both lower and upper")
        return DPGrid.regular(cfg.dp["lower"], cfg.dp["upper"], hx)
    return DPGrid.for_model(ms, hx)


def build_fixed_point(cfg: RunConfig, sim: SimConfig | None = None,
                      grid: DPGrid | None = None) -> FixedPointConfig:
    fp = cfg.fixed_point
    return FixedPointConfig(
        sim=build_sim(cfg) if sim is None else sim, grid=grid,
        damping=fp["damping"], max_iters=fp["max_iters"], tol=fp["tol"],
        tol_exploit=fp["tol_exploit"],
    )
