"""Command-line interface.

    levicav preset NAME [--out FILE] [--quiet]
    levicav feasibility SCENARIO.yaml [--out FILE] [--quiet]
    levicav trace SCENARIO.yaml [--g-over-kappa X] [--sigma-over-kappa Y]
                  [--out FILE] [--quiet]
    levicav sweep SCENARIO.yaml --axis NAME --values CSV [--out FILE] [--quiet]
    levicav [SUBCOMMAND] -h/--help

Feasibility reports are emitted as indented key-value documents (YAML
subset); traces as CSV with header ``t_seconds,t_kappa_units,n_phonon``.
All numbers carry 6 significant figures. Exit codes: 0 success,
1 validation error (a malformed command line among them), 2 numerical
failure.
"""

from __future__ import annotations

import re
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import Optional

from . import kvdoc as yaml
from .errors import NumericalError, ValidationError
from .presets import preset_scenario_dict

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


#: flags every subcommand takes, and those of each subcommand below:
#: flag -> (converter, required, metavar), converter None for a switch
_SHARED = {"--out": (str, False, "FILE"), "--quiet": (None, False, None)}

#: subcommand -> (handler, positional's attribute, its metavar, own flags);
#: a flag's value is stored as the attribute named by the flag
_COMMANDS = {
    "preset": (_cmd_preset, "name", "NAME", {}),
    "feasibility": (_cmd_feasibility, "scenario", "SCENARIO.yaml", {}),
    "trace": (_cmd_trace, "scenario", "SCENARIO.yaml",
              {"--g-over-kappa": (float, False, "X"), "--sigma-over-kappa": (float, False, "Y")}),
    "sweep": (_cmd_sweep, "scenario", "SCENARIO.yaml",
              {"--axis": (str, True, "NAME"), "--values": (str, True, "CSV")}),
}
_HELP = {"--help": (None, False, None)}
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's negative number


def _usage(command: Optional[str] = None) -> str:
    """Synopsis of one subcommand, or of all, wrapped at 75 columns."""
    lines = []
    for name in [command] if command else _COMMANDS:
        _, _, metavar, own = _COMMANDS[name]
        line = f"levicav {name} {metavar}"
        for flag, (convert, required, var) in {**own, **_SHARED}.items():
            word = flag if convert is None else f"{flag} {var}"
            word = word if required else f"[{word}]"
            if len(line) + len(word) >= 75:
                lines.append(line)
                line = " " * len(f"levicav {name}")
            line += " " + word
        lines.append(line)
    return "\n".join([*lines, "levicav [SUBCOMMAND] -h/--help", ""])


def _option(token: str, flags, where: str) -> Optional[tuple]:
    """``(flag, value given with '=' or None)`` of an option token, flag None
    if unknown; None for a value or positional. Long flags match by unique
    prefix, and ``-h...`` is ``--help`` with the rest as its value. As in
    argparse, a negative number, or a token with a space that names no
    flag, is a value."""
    if token[:1] != "-" or token == "-":
        return None
    if token.startswith("--"):
        name, eq, value = token.partition("=")
        hits = [flag for flag in flags if flag == name] or [
            flag for flag in flags if flag.startswith(name)]
        if len(hits) > 1:
            raise ValidationError(f"{where}: ambiguous option {token!r} could match "
                                  f"{', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif token.startswith("-h"):
        return "--help", token[2:] or None
    return None if _NUMBER.match(token) or " " in token else (None, None)


def _parse(argv: list[str]) -> tuple:
    """``(subcommand, args)`` read from argv as argparse read it; args is None
    when -h/--help asks for the synopsis (subcommand None at the top level).
    An unknown option or an extra argument is reported at the end, so a
    later -h still wins; every other error where it occurs."""
    unknown = command = None
    for at, token in enumerate(argv):
        option = None if token == "--" else _option(token, _HELP, "levicav")
        if option is None:
            command = token
            break
        if option[0] is None:
            unknown = unknown or f"unrecognized option {token!r}"
        elif option[1] is not None:
            raise ValidationError(f"levicav: --help takes no value, got {token!r}")
        else:
            return None, None
    if command not in _COMMANDS:
        found = (unknown or "missing subcommand") if command is None else (
            f"unknown subcommand {command!r}")
        raise ValidationError(f"levicav: {found}; expected one of {', '.join(_COMMANDS)}")
    rest = argv[at + 1:]
    _, positional, metavar, own = _COMMANDS[command]
    where = f"levicav {command}"
    flags = {**own, **_SHARED, **_HELP}
    dest = {flag: flag[2:].replace("-", "_") for flag in flags}
    args = {positional: None, **{dest[flag]: None if spec[0] else False
                                 for flag, spec in {**own, **_SHARED}.items()}}
    end = rest.index("--") if "--" in rest else len(rest)
    # every option is classified before any is read, as argparse does; after
    # the first '--' every token is an argument
    options = [_option(token, flags, where) for token in rest[:end]] + [None] * len(rest[end:])
    taken_at, i = None, 0
    while i < len(rest):
        token, option = rest[i], options[i]
        i += 1
        if i - 1 == end:  # argparse drops this '--' only where it touches the positional
            if args[positional] is not None and taken_at != end - 1:
                unknown = unknown or "unexpected argument '--'"
        elif option is None:
            if args[positional] is None:
                args[positional], taken_at = token, i - 1
            else:
                unknown = unknown or f"unexpected argument {token!r}"
        elif option[0] is None:
            unknown = unknown or f"unrecognized option {token!r}"
        elif option == ("--help", None):
            return command, None
        elif flags[option[0]][0] is None:
            if option[1] is not None:
                raise ValidationError(f"{where}: {option[0]} takes no value, got {token!r}")
            args[dest[option[0]]] = True
        else:
            flag, value = option
            if value is None:
                if i >= end or options[i] is not None:
                    raise ValidationError(f"{where}: {flag} expects a value")
                value, i = rest[i], i + 1
            try:
                args[dest[flag]] = flags[flag][0](value)
            except ValueError:
                raise ValidationError(f"{where}: {flag} expects a number, got {value!r}") \
                    from None
    missing = [metavar] if args[positional] is None else []
    missing += [f"{flag} {spec[2]}" for flag, spec in own.items()
                if spec[1] and args[dest[flag]] is None]
    if missing:
        raise ValidationError(f"{where}: missing {' and '.join(missing)}")
    if unknown:
        raise ValidationError(f"{where}: {unknown}")
    return command, SimpleNamespace(**args)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            sys.stdout.write(_usage(command))
            return 0
        return _COMMANDS[command][0](args)
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
