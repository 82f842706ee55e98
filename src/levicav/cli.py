"""Command-line interface.

    levicav feasibility SCENARIO.yaml [--out FILE] [--quiet]
    levicav trace SCENARIO.yaml [--g-over-kappa X] [--sigma-over-kappa Y]
                  [--out FILE] [--quiet]
    levicav sweep SCENARIO.yaml --axis NAME --values CSV [--out FILE] [--quiet]
    levicav preset NAME [--out FILE]

Feasibility reports are emitted as indented key-value documents (YAML
subset); traces as CSV with header ``t_seconds,t_kappa_units,n_phonon``.
All numbers carry 6 significant figures. Exit codes: 0 success,
1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Optional

from . import kvdoc as yaml
from .errors import NumericalError, ValidationError
from .presets import PRESET_NAMES, preset_scenario_dict

__all__ = ["main", "render_kv"]


def _deferred(module: str, name: str):
    """``levicav.<module>.<name>``, its module imported on the first call, so
    each subcommand loads only the layers it runs (``preset`` needs no
    record type, and only ``trace`` loads numpy)."""
    def call(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)
    call.__name__ = call.__qualname__ = name
    return call


load_scenario = _deferred("scenario", "load_scenario")
evaluate_scenario = _deferred("scenario", "evaluate_scenario")
sweep = _deferred("scenario", "sweep")
axis_setter = _deferred("scenario", "axis_setter")
build_protocol = _deferred("scenario", "build_protocol")
phonon_trace = _deferred("pulse", "phonon_trace")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_kv(doc: dict, indent: int = 0) -> str:
    """Nested dict -> indented ``key: value`` lines, 6 significant figures."""
    lines = []
    pad = "  " * indent
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_kv(value, indent + 1))
        else:
            lines.append(f"{pad}{key}: {_fmt(value)}")
    return "\n".join(lines)


def _write_output(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _cmd_feasibility(args) -> int:
    scenario = load_scenario(args.scenario)
    _info(args, f"evaluating scenario '{scenario.name}'")
    report = evaluate_scenario(scenario)
    _write_output(render_kv(report.to_dict()), args.out)
    return 0


def _trace_csv(times, kappa, values) -> str:
    """Header plus one ``t,t*kappa,n`` row per point, CRLF-terminated as
    ``csv.writer`` writes them."""
    rows = [f"{t:.6g},{t * kappa:.6g},{n:.6g}\r\n"
            for t, n in zip(times.tolist(), values.tolist())]
    return "".join(["t_seconds,t_kappa_units,n_phonon\r\n", *rows])


def _cmd_trace(args) -> int:
    scenario = load_scenario(args.scenario)
    for axis, value in (("g_over_kappa", args.g_over_kappa),
                        ("sigma_over_kappa", args.sigma_over_kappa)):
        if value is not None:  # checked as the protocol key is, naming the flag
            scenario = axis_setter(scenario, axis, "--" + axis.replace("_", "-"))(value)
    protocol = build_protocol(scenario)
    _info(args, f"tracing '{scenario.name}': g/kappa={protocol.g / protocol.kappa:.6g}, "
                f"sigma/kappa={protocol.sigma / protocol.kappa:.6g}")
    if protocol.rwa_valid is False:
        _info(args, f"warning: omega_t/g = {protocol.omega_t / protocol.g:.3g} "
                    "is not deep in the rotating-wave regime")
    trace = phonon_trace(protocol)
    _write_output(_trace_csv(trace.times, protocol.kappa, trace.n_phonon), args.out)
    return 0


def _parse_values(text: str) -> list[float]:
    try:
        values = [float(piece) for piece in text.split(",") if piece.strip()]
    except ValueError as exc:
        raise ValidationError(f"sweep values must be numbers: {exc}") from exc
    if not values:
        raise ValidationError(f"sweep values must name at least one number, got {text!r}")
    return values


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    values = _parse_values(args.values)
    _info(args, f"sweeping '{args.axis}' over {len(values)} value(s)")
    reports = sweep(scenario, args.axis, values)
    docs = []
    for value, report in zip(values, reports):
        doc = {"axis": args.axis, "value": value}
        doc.update(report.to_dict())
        docs.append(render_kv(doc))
    _write_output("\n---\n".join(docs), args.out)
    return 0


def _cmd_preset(args) -> int:
    doc = preset_scenario_dict(args.name)
    _write_output(yaml.safe_dump(doc, sort_keys=False), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levicav",
        description="Optomechanical feasibility and protocol dynamics for "
                    "dielectric objects levitated in a high-finesse cavity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="write output to FILE instead of stdout")
        p.add_argument("--quiet", action="store_true",
                       help="suppress everything except the report")

    p_feas = sub.add_parser("feasibility", help="evaluate a scenario file")
    p_feas.add_argument("scenario")
    add_common(p_feas)
    p_feas.set_defaults(func=_cmd_feasibility)

    p_trace = sub.add_parser("trace", help="phonon-expectation trace as CSV")
    p_trace.add_argument("scenario")
    p_trace.add_argument("--g-over-kappa", type=float, default=None)
    p_trace.add_argument("--sigma-over-kappa", type=float, default=None)
    add_common(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_sweep = sub.add_parser("sweep", help="evaluate a scenario along one axis")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numbers in boundary units")
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_preset = sub.add_parser("preset", help="emit a built-in scenario file")
    p_preset.add_argument("name", help=f"one of: {', '.join(PRESET_NAMES)}")
    add_common(p_preset)
    p_preset.set_defaults(func=_cmd_preset)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, still reported in one line
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
