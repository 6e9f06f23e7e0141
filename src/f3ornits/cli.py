"""Command line front end.

Three subcommands:

    run        execute one configuration, write per-subsystem trace CSVs
               plus a summary CSV
    compare    sweep the baseline grid steps and the method variants on one
               model, write a report CSV and a steps-vs-rmse scatter CSV
    reference  compute the monolithic reference, write it as CSV and print
               its h-vs-2h gap per output

Every RunConfig field is also a flag (``--tol-rel`` for ``tol_rel`` and so
on); ``--param name=value`` sets model parameters and ``--set key=value``
injects any raw config key, including the dotted ``dt0.<label>`` and
``caps.<label>.*`` forms.  Precedence, lowest to highest: config file,
``F3ORNITS_OUTPUT_DIR`` (output directory only), flags.

Exit codes: 0 success, 1 configuration error, 2 divergence at run time.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .errors import ConfigError, DivergenceError
from .config import (
    SCALAR_KEYS,
    config_from_mapping,
    materialize,
    parse_kv_text,
)
from .master import run_f3ornits, run_jacobi
from .models import REFERENCE_RECORD_DT, monolithic_reference, reference_gap
from .report import (
    JACOBI_GRID_STEPS,
    format_report,
    run_comparison,
    score_trace,
    write_report_csv,
    write_scatter_csv,
)
from .trace import row_format

#: (flag, config key) for every plain key but the booleans, which get
#: --name / --no-name switches; every value is passed through as raw text
#: so that type conversion and error wording match the config-file path
_FLAG_KEYS = tuple(
    ("--" + key.replace("_", "-"), key)
    for key, typ in SCALAR_KEYS.items()
    if typ is not bool
)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="flat key = value file")
    for flag, key in _FLAG_KEYS:
        p.add_argument(flag, dest=f"cfg_{key}", metavar="V", default=None)
    p.add_argument(
        "--smoothing", dest="cfg_smoothing", action="store_const", const="true"
    )
    p.add_argument(
        "--no-smoothing", dest="cfg_smoothing", action="store_const",
        const="false",
    )
    p.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="model parameter override, repeatable",
    )
    p.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="any raw config key, repeatable",
    )


def _split_pair(text: str, flag: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key.strip():
        raise ConfigError(f"{flag} expects NAME=VALUE, got {text!r}")
    return key.strip(), value.strip()


def _gather_raw(args: argparse.Namespace) -> dict[str, str]:
    raw: dict[str, str] = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        raw.update(parse_kv_text(text))
    env_dir = os.environ.get("F3ORNITS_OUTPUT_DIR")
    if env_dir:
        raw["output_dir"] = env_dir
    for _, key in _FLAG_KEYS:
        value = getattr(args, f"cfg_{key}")
        if value is not None:
            raw[key] = value
    if args.cfg_smoothing is not None:
        raw["smoothing"] = args.cfg_smoothing
    for item in args.param:
        name, value = _split_pair(item, "--param")
        raw[f"param.{name}"] = value
    for item in args.set:
        key, value = _split_pair(item, "--set")
        raw[key] = value
    return raw


def _print_reference_gap(setup) -> None:
    """The step of the reference that scored the run, and its own error."""
    ref = monolithic_reference(setup.model)
    gap = reference_gap(setup.model)[setup.variable]
    label, j = setup.variable
    print(
        f"reference h={ref.micro_step:g}: h-vs-2h gap[{label}:{j}] = "
        f"{gap:.2e} % of reference amplitude"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = config_from_mapping(_gather_raw(args))
    setup = materialize(cfg)
    if cfg.method == "jacobi":
        trace = run_jacobi(setup.model.problem, cfg.dt)
    else:
        trace = run_f3ornits(setup.model.problem, setup.options)
    paths = trace.write_csv(cfg.output_dir, cfg.prefix)
    print(
        f"{cfg.method} on {cfg.model}: {trace.total_events} events in "
        f"{trace.wall_time_s:.3f} s -> {len(paths)} files under {cfg.output_dir}"
    )
    if args.score:
        rmse = score_trace(trace, setup.model, setup.variable)
        label, j = setup.variable
        print(f"rmse[{label}:{j}] = {rmse:.6f} % of reference amplitude")
        _print_reference_gap(setup)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = config_from_mapping(_gather_raw(args))
    setup = materialize(cfg)
    dts = JACOBI_GRID_STEPS
    if args.jacobi_dts:
        try:
            dts = tuple(float(v) for v in args.jacobi_dts.split(","))
        except ValueError:
            dts = ()
        if not (dts and all(math.isfinite(d) and d > 0 for d in dts)):
            raise ConfigError(
                f"--jacobi-dts expects comma-separated finite positive steps, "
                f"got {args.jacobi_dts!r}"
            )
    rows = run_comparison(
        setup.model, setup.options, setup.variable, jacobi_dts=dts
    )
    out = Path(cfg.output_dir)
    report = write_report_csv(rows, out / f"{cfg.prefix}_report.csv")
    scatter = write_scatter_csv(rows, out / f"{cfg.prefix}_scatter.csv")
    print(format_report(rows))
    _print_reference_gap(setup)
    print(f"wrote {report} and {scatter}")
    return 0


def _cmd_reference(args: argparse.Namespace) -> int:
    cfg = config_from_mapping(_gather_raw(args))
    setup = materialize(cfg)
    grid = dict(
        micro_step=args.micro_step, record_dt=args.record_dt, scheme=args.scheme
    )
    ref = monolithic_reference(setup.model, **grid)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg.prefix}_reference.csv"
    keys = sorted(ref.series)
    fmt = row_format("f" * (1 + len(keys)), "\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["t"] + [f"{lb}:{j}" for lb, j in keys]) + "\n")
        fh.writelines(fmt % row for row in zip(ref.t, *(ref.series[k] for k in keys)))
    print(f"reference for {cfg.model} ({ref.scheme}, h={ref.micro_step:g}) -> {path}")
    gaps = reference_gap(setup.model, **grid)
    for lb, j in keys:
        print(f"h-vs-2h gap[{lb}:{j}] = {gaps[lb, j]:.2e} % of reference amplitude")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f3ornits",
        description="Non-iterative co-simulation master and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configuration")
    _add_config_flags(p_run)
    p_run.add_argument(
        "--score", action="store_true",
        help="also compute rmse against the monolithic reference",
    )
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="baseline-vs-method matrix")
    _add_config_flags(p_cmp)
    p_cmp.add_argument(
        "--jacobi-dts", metavar="DT,DT,...",
        help=f"grid steps for the baseline (default {JACOBI_GRID_STEPS})",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_ref = sub.add_parser("reference", help="monolithic reference CSV")
    _add_config_flags(p_ref)
    p_ref.add_argument(
        "--micro-step", type=float, default=None,
        help="RK4 step (default: the model's own reference step)",
    )
    p_ref.add_argument("--record-dt", type=float, default=REFERENCE_RECORD_DT)
    p_ref.add_argument("--scheme", default="rk4", choices=("rk4", "rk2"))
    p_ref.set_defaults(func=_cmd_reference)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(
            f"diverged: {exc.label} after t = {exc.t_last_good:g}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
