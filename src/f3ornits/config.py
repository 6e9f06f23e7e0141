"""Flat key = value run configuration and its materialization.

The on-disk format is one `key = value` pair per line, `#` comments, blank
lines ignored.  Dotted keys carry structured overrides:

    param.<name>                 model parameter override (see models)
    dt0.<label>                  per-subsystem startup step
    caps.<label>.max_input_degree
    caps.<label>.imposed_step    locks that subsystem to a fixed grid; a
                                 grid the event budget cannot cover to
                                 t_end is rejected

Each `caps.<label>.<field>` replaces that field of the subsystem's
`SubsystemSpec`, so the spec checks it as it checks its own declaration.

Everything else is a plain field of RunConfig.  Unknown keys are rejected
by name; so are missing required ones.  `materialize` turns a RunConfig
into the built model plus ready-to-run master options, deriving the step
bounds that default from the model horizon: dt_min = smallest dt0, dt_max
= a tenth of the simulated interval.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .master import MasterOptions, check_event_budget, check_horizon
from .models import BenchmarkModel, build_model
from .stepper import Tolerances

METHODS = ("f3ornits", "jacobi")

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


@dataclass(frozen=True)
class RunConfig:
    """One run, fully described; field names double as config keys."""

    model: str
    method: str = "f3ornits"
    calibration: str = MasterOptions.calibration
    error_norm: str = MasterOptions.error_norm
    nu: float = Tolerances.nu
    smoothing: bool = MasterOptions.smoothing
    tol_rel: float = Tolerances.tol_rel
    tol_abs: float = Tolerances.tol_abs
    rho_min: float = Tolerances.rho_min
    rho_max: float = Tolerances.rho_max
    dt0: float | None = None          # None: model default
    dt_min: float | None = None       # None: min over dt0
    dt_max: float | None = None       # None: (t_end - t_init) / 10
    dt: float | None = None           # jacobi grid step
    t_end: float | None = None        # shorthand for param.t_end
    seed: int | None = None
    force_order: int | None = None
    output_dir: str = "runs"
    prefix: str = "run"
    rmse_variable: str | None = None  # "label:output_index"
    params: dict[str, float] = field(default_factory=dict)
    dt0_per_label: dict[str, float] = field(default_factory=dict)
    caps_overrides: dict[str, dict[str, float]] = field(default_factory=dict)


def _scalar_type(hint) -> type:
    """`X` for an annotation `X` or `X | None`."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return args[0] if args else hint


#: plain config keys and their value types, in RunConfig field order; the
#: dict-valued fields are filled from the dotted keys instead
SCALAR_KEYS: dict[str, type] = {
    name: _scalar_type(hint)
    for name, hint in typing.get_type_hints(RunConfig).items()
    if typing.get_origin(hint) is not dict
}


def parse_kv_text(text: str) -> dict[str, str]:
    """Raw key -> value strings; rejects malformed lines and duplicates."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _convert(key: str, value: str, typ: type):
    try:
        if typ is bool:
            low = value.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(value)
        if typ is int:
            return int(value)
        if typ is float:
            return float(value)
        return value
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot read {value!r} as {typ.__name__}")


def config_from_mapping(raw: dict[str, str]) -> RunConfig:
    """Typed RunConfig from raw strings; every unknown key is named."""
    fields: dict = {}
    params: dict[str, float] = {}
    dt0_per_label: dict[str, float] = {}
    caps: dict[str, dict[str, float]] = {}
    unknown: list[str] = []
    for key, value in raw.items():
        if key in SCALAR_KEYS:
            fields[key] = _convert(key, value, SCALAR_KEYS[key])
        elif key.startswith("param."):
            name = key[len("param."):]
            if not name:
                unknown.append(key)
            else:
                params[name] = _convert(key, value, float)
        elif key.startswith("dt0."):
            label = key[len("dt0."):]
            if not label:
                unknown.append(key)
            else:
                dt0_per_label[label] = _convert(key, value, float)
        elif key.startswith("caps."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in (
                "max_input_degree", "imposed_step"
            ):
                unknown.append(key)
            else:
                caps.setdefault(parts[1], {})[parts[2]] = _convert(
                    key, value, float
                )
        else:
            unknown.append(key)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if "model" not in fields:
        raise ConfigError("missing required key 'model'")
    return RunConfig(
        params=params,
        dt0_per_label=dt0_per_label,
        caps_overrides=caps,
        **fields,
    )


# ------------------------------------------------------------- materializing

@dataclass(frozen=True)
class RunSetup:
    """Everything the runner needs: the model, the knobs, the scored output."""

    model: BenchmarkModel
    options: MasterOptions
    variable: tuple[str, int]


#: default comparison variable per model: the position-like first output
DEFAULT_VARIABLES = {"two_mass": ("mass_left", 0), "car": ("vehicle", 0)}


def _parse_variable(text: str) -> tuple[str, int]:
    label, sep, idx = text.partition(":")
    if not sep or not label:
        raise ConfigError(
            f"rmse_variable must look like 'label:index', got {text!r}"
        )
    try:
        return label, int(idx)
    except ValueError:
        raise ConfigError(f"rmse_variable index is not an integer: {text!r}")


def materialize(cfg: RunConfig) -> RunSetup:
    if cfg.method not in METHODS:
        raise ConfigError(
            f"key 'method': {cfg.method!r} not one of {', '.join(METHODS)}"
        )
    if cfg.method == "jacobi" and cfg.dt is None:
        raise ConfigError("missing required key 'dt' (jacobi needs a grid step)")
    if cfg.dt is not None and not (math.isfinite(cfg.dt) and cfg.dt > 0):
        raise ConfigError(f"key 'dt': {cfg.dt!r} is not a finite positive step")

    params = dict(cfg.params)
    if cfg.t_end is not None:
        params["t_end"] = cfg.t_end
    if cfg.model == "car":
        if cfg.seed is None and "seed" not in params:
            raise ConfigError(
                "missing required key 'seed' (the car road noise must be pinned)"
            )
        if cfg.seed is not None:
            params["seed"] = cfg.seed

    # build once, then apply the per-label knobs to the built problem
    model = build_model(cfg.model, params)
    problem = model.problem
    labels = [s.label for s in problem.subsystems]
    t_init, t_end = problem.t_init, problem.t_end
    check_horizon(t_init, t_end)

    if cfg.dt0 is not None or cfg.dt0_per_label:
        stray = sorted(set(cfg.dt0_per_label) - set(labels))
        if stray:
            raise ConfigError(f"dt0.* names unknown subsystem(s): {', '.join(stray)}")
        default = problem.dt0 if cfg.dt0 is None else (cfg.dt0,) * len(labels)
        dt0 = []
        for label, d in zip(labels, default):
            key = f"dt0.{label}" if label in cfg.dt0_per_label else "dt0"
            d = cfg.dt0_per_label.get(label, d)
            if not (math.isfinite(d) and d > 0):
                raise ConfigError(f"key {key!r}: {d!r} must be finite and positive")
            dt0.append(float(d))
        problem = replace(problem, dt0=tuple(dt0))

    if cfg.caps_overrides:
        stray = sorted(set(cfg.caps_overrides) - set(labels))
        if stray:
            raise ConfigError(
                f"caps.* names unknown subsystem(s): {', '.join(stray)}"
            )
        specs = []
        for spec in problem.subsystems:
            for name, value in cfg.caps_overrides.get(spec.label, {}).items():
                key = f"caps.{spec.label}.{name}"
                if not math.isfinite(value):
                    raise ConfigError(f"key {key!r}: {value!r} is not finite")
                if name == "max_input_degree":
                    value = int(round(value))
                try:
                    spec = replace(spec, **{name: value})
                except ConfigError as exc:  # the key already names the label
                    msg = str(exc).removeprefix(f"{spec.label}: ")
                    raise ConfigError(f"key {key!r}: {msg}") from None
                if name == "imposed_step":
                    check_event_budget(f"key {key!r}", value, "events", t_init, t_end)
            specs.append(spec)
        problem = replace(problem, subsystems=tuple(specs))
    model = replace(model, problem=problem)

    dt_min = cfg.dt_min if cfg.dt_min is not None else min(problem.dt0)
    dt_max = cfg.dt_max if cfg.dt_max is not None else (t_end - t_init) / 10.0
    derived = [
        f"{name} = {value!r} comes from key {source!r}"
        for name, value, source, given in (
            ("dt_min", dt_min, "dt0", cfg.dt_min),
            ("dt_max", dt_max, "t_end", cfg.dt_max),
        )
        if given is None
    ]
    try:  # the step bounds alone first: a refusal says where derived ones came from
        Tolerances(dt_min=dt_min, dt_max=dt_max)
    except ConfigError as exc:
        if derived:
            raise ConfigError(f"{exc} ({'; '.join(derived)})") from None
        raise
    tol = Tolerances(
        tol_rel=cfg.tol_rel,
        tol_abs=cfg.tol_abs,
        rho_min=cfg.rho_min,
        rho_max=cfg.rho_max,
        nu=cfg.nu,
        dt_min=dt_min,
        dt_max=dt_max,
    )
    options = MasterOptions(
        calibration=cfg.calibration,
        error_norm=cfg.error_norm,
        tolerances=tol,
        smoothing=cfg.smoothing,
        force_order=cfg.force_order,
    )
    options.validate()

    if cfg.rmse_variable is not None:
        variable = _parse_variable(cfg.rmse_variable)
    else:
        variable = DEFAULT_VARIABLES.get(cfg.model, (labels[0], 0))
    if variable[0] not in labels:
        raise ConfigError(
            f"rmse_variable names unknown subsystem {variable[0]!r}"
        )
    n_out = problem.subsystems[labels.index(variable[0])].n_out
    if not 0 <= variable[1] < n_out:
        raise ConfigError(
            f"rmse_variable index {variable[1]} out of range for {variable[0]}"
        )

    return RunSetup(model=model, options=options, variable=variable)
