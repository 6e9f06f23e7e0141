"""Flat key = value run configuration and its materialization.

The on-disk format is one `key = value` pair per line, `#` comments, blank
lines ignored.  Dotted keys carry structured overrides:

    param.<name>                 model parameter override (see models)
    dt0.<label>                  per-subsystem startup step
    caps.<label>.max_input_degree
    caps.<label>.imposed_step    locks that subsystem to a fixed grid; a
                                 grid the event budget cannot cover to
                                 t_end is rejected

Every value is read by one rule, `errors.read_value`, as the type of the
field it lands on: a plain key as its RunConfig field, a dotted value once
`materialize` knows its field.  Every dotted key, and `dt0`, replaces one
field through `models.replace_number`: `param.<name>` one of the model's
parameters, `dt0` and `dt0.<label>` a spec's `dt0`, `caps.<label>.<field>`
that field of the spec.  Whatever the rule or the dataclass refuses is a
ConfigError naming the key.  `dt0.<label>` beats `dt0`, which beats the
model's own startup step.

Everything else is a plain field of RunConfig.  Unknown keys are rejected
by name; so are missing required ones.  `materialize` turns a RunConfig
into the built model plus ready-to-run master options, deriving the step
bounds that default from the model horizon: dt_min = smallest dt0, dt_max
= a tenth of the simulated interval.  A dt_max the event budget cannot
cover to t_end is rejected there, before any run (`MasterOptions.validate`).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, replace

from .errors import ConfigError, check_step, read_value
from .master import MasterOptions, check_event_budget, check_horizon
from .models import BenchmarkModel, build_model, replace_number
from .stepper import Tolerances

METHODS = ("f3ornits", "jacobi")


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
    params: dict[str, float | str] = field(default_factory=dict)
    dt0_per_label: dict[str, float | str] = field(default_factory=dict)
    caps_overrides: dict[str, dict[str, float | str]] = field(default_factory=dict)


#: plain config keys and their annotations, in RunConfig field order; the
#: dict-valued fields are filled from the dotted keys instead
SCALAR_KEYS: dict[str, object] = {
    name: hint
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


def config_from_mapping(raw: dict[str, str]) -> RunConfig:
    """RunConfig from raw strings, every plain key read as its field; a
    dotted value stays text for `materialize`.  Unknown keys are named."""
    fields: dict = {}
    params: dict[str, str] = {}
    dt0_per_label: dict[str, str] = {}
    caps: dict[str, dict[str, str]] = {}
    unknown: list[str] = []
    for key, value in raw.items():
        head, _, name = key.partition(".")
        label, _, cap = name.partition(".")
        if key in SCALAR_KEYS:
            fields[key] = read_value(key, value, SCALAR_KEYS[key])
        elif head in ("param", "dt0") and name:
            (params if head == "param" else dt0_per_label)[name] = value
        elif head == "caps" and label and cap in ("max_input_degree", "imposed_step"):
            caps.setdefault(label, {})[cap] = value
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


def _parse_variable(text: str) -> tuple[str, int]:
    label, sep, idx = text.partition(":")
    if not sep or not label:
        raise ConfigError(
            f"rmse_variable must look like 'label:index', got {text!r}"
        )
    return label, read_value("rmse_variable", idx, int)


def materialize(cfg: RunConfig) -> RunSetup:
    if cfg.method not in METHODS:
        raise ConfigError(
            f"key 'method': {cfg.method!r} not one of {', '.join(METHODS)}"
        )
    if cfg.method == "jacobi" and cfg.dt is None:
        raise ConfigError("missing required key 'dt' (jacobi needs a grid step)")
    if cfg.dt is not None:
        check_step("key 'dt'", cfg.dt)

    params = dict(cfg.params)
    if cfg.t_end is not None:
        params["t_end"] = read_value("t_end", cfg.t_end, float)
    if cfg.model == "car":
        if cfg.seed is None and "seed" not in params:
            raise ConfigError(
                "missing required key 'seed' (the car road noise must be pinned)"
            )
        if cfg.seed is not None:
            params["seed"] = read_value("seed", cfg.seed, int)

    # build once, then apply the per-label knobs to the built problem
    model = build_model(cfg.model, params)
    problem = model.problem
    labels = [s.label for s in problem.subsystems]
    t_init, t_end = problem.t_init, problem.t_end
    check_horizon(t_init, t_end)

    stray = [f"dt0.{label}" for label in cfg.dt0_per_label if label not in labels]
    stray += [
        f"caps.{label}.{name}"
        for label, fields in cfg.caps_overrides.items() if label not in labels
        for name in fields
    ]
    if stray:
        raise ConfigError(
            f"key(s) {', '.join(map(repr, sorted(stray)))}: "
            f"{cfg.model} has no such subsystem"
        )
    specs = []
    for spec in problem.subsystems:
        label = spec.label
        if label in cfg.dt0_per_label:
            spec = replace_number(spec, "dt0", cfg.dt0_per_label[label], f"dt0.{label}")
        elif cfg.dt0 is not None:
            spec = replace_number(spec, "dt0", cfg.dt0, "dt0")
        for name, value in cfg.caps_overrides.get(label, {}).items():
            key = f"caps.{label}.{name}"
            spec = replace_number(spec, name, value, key)
            if name == "imposed_step":
                check_event_budget(
                    f"key {key!r}", spec.imposed_step, "events", t_init, t_end
                )
        specs.append(spec)
    problem = replace(problem, subsystems=tuple(specs))
    model = replace(model, problem=problem)

    dt_min = cfg.dt_min if cfg.dt_min is not None else min(s.dt0 for s in specs)
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
    options.validate(problem)

    if cfg.rmse_variable is not None:
        variable = _parse_variable(cfg.rmse_variable)
    else:
        variable = (labels[0], 0)
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
