"""Per-layer spans recorded from outside the program.

A traced run rebinds the public names that each levicav module imports
from the layer below (``levicav.scenario.solve_self_trap``,
``levicav.cli.evaluate_scenario``, ...) to timing wrappers, so spans nest
the way the calls do. A span's self time is its duration minus the time
covered by the spans it encloses. Spans are aggregated in memory per name
as ``[calls, self_seconds]``; nothing is written until the run ends.

The untraced run never calls ``Tracer.install``, so it executes the
program's own objects with no wrapper in the way.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute, span): the names each module imports from the layer
# below, plus the public entry points the benchmark itself calls through
# the module attribute.
BINDINGS = [
    ("levicav.cli", "evaluate_scenario", "scenario.evaluate_scenario"),
    ("levicav.cli", "sweep", "scenario.sweep"),
    ("levicav.cli", "build_protocol", "scenario.build_protocol"),
    ("levicav.cli", "phonon_trace", "pulse.phonon_trace"),
    ("levicav.cli", "render_kv", "cli.render_kv"),
    ("levicav.scenario", "evaluate_scenario", "scenario.evaluate_scenario"),
    ("levicav.scenario", "sweep", "scenario.sweep"),
    ("levicav.scenario", "build_protocol", "scenario.build_protocol"),
    ("levicav.scenario", "scenario_from_dict", "scenario.from_dict"),
    ("levicav.scenario", "scenario_to_dict", "scenario.to_dict"),
    ("levicav.scenario", "derived_cavity_quantities", "cavity.derived_cavity_quantities"),
    ("levicav.scenario", "tweezer_trap_frequency", "sphere.tweezer_trap_frequency"),
    ("levicav.scenario", "assemble_optomech_params", "sphere.assemble_optomech_params"),
    ("levicav.scenario", "solve_self_trap", "rod.solve_self_trap"),
    ("levicav.scenario", "rod_optomech_params", "rod.rod_optomech_params"),
    ("levicav.scenario", "gas_damping", "environment.gas_damping"),
    ("levicav.scenario", "decoherence_budget", "environment.decoherence_budget"),
    ("levicav.scenario", "bulk_temperature", "environment.bulk_temperature"),
    ("levicav.rod", "assemble_optomech_params", "sphere.assemble_optomech_params"),
    ("levicav.pulse", "phonon_trace", "pulse.phonon_trace"),
    ("levicav.pulse", "refined_peak", "pulse.refined_peak"),
    ("levicav.pulse", "output_field_envelope", "pulse.output_field_envelope"),
    ("levicav.scenario", "FeasibilityReport.to_dict", "scenario.report_to_dict"),
    ("levicav.scenario", "yaml.safe_load", "scenario.yaml_load"),
    ("levicav.scenario", "yaml.safe_dump", "scenario.yaml_dump"),
    ("levicav.cli", "yaml.safe_dump", "scenario.yaml_dump"),
]

SUBCOMMANDS = ("preset", "feasibility", "sweep", "trace")

#: every span the traced run reports, in report order
SPAN_NAMES = sorted({span for _, _, span in BINDINGS}
                    | {f"cli.main.{sub}" for sub in SUBCOMMANDS} | {"cli.import"})


class _Namespace:
    """Stand-in for an imported module with some attributes overridden."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Aggregated spans plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.stats = {name: [0, 0.0] for name in SPAN_NAMES}
        self.counts = {"pulse.grid_points": 0, "pulse.grid_errors": 0}
        self.unbound: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def add(self, span: str, seconds: float) -> None:
        """Record a span measured elsewhere (no enclosing span)."""
        self.stats[span][0] += 1
        self.stats[span][1] += seconds

    def wrap(self, span: str, fn):
        stats, stack = self.stats[span], self._stack
        counts = self.counts if span == "pulse.phonon_trace" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == span:  # recursion stays in one span
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                if counts is not None:
                    protocol = args[0] if args else next(iter(kwargs.values()))
                    counts["pulse.grid_points"] += len(protocol.t_grid)
                return fn(*args, **kwargs)
            except Exception as exc:
                if counts is not None and type(exc).__name__ == "GridError":
                    counts["pulse.grid_errors"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
        return traced

    def install(self) -> None:
        """Rebind every name in BINDINGS; names a module lacks are listed in
        ``unbound`` and left alone."""
        namespaces: dict[tuple, _Namespace] = {}
        self.unbound = []
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None)
            if original is None:
                self.unbound.append(f"{module_name}.{attr}")
                continue
            if owner_name and isinstance(owner, type):
                self._rebind(owner, leaf, self.wrap(span, original))
            elif owner_name:  # an imported module: swap in a namespace
                key = (module_name, owner_name)
                if key not in namespaces:
                    namespaces[key] = _Namespace(owner)
                    self._rebind(module, owner_name, namespaces[key])
                setattr(namespaces[key], leaf, self.wrap(span, original))
            else:
                self._rebind(module, leaf, self.wrap(span, original))

    @contextlib.contextmanager
    def active(self):
        """The block runs with every binding installed."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _rebind(self, owner, name, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts), "unbound": list(self.unbound)}

    def merge(self, snap: dict) -> None:
        for name, (calls, self_s) in snap["spans"].items():
            self.stats[name][0] += calls
            self.stats[name][1] += self_s
        for name, value in snap["counts"].items():
            self.counts[name] += value
        self.unbound = sorted(set(self.unbound) | set(snap["unbound"]))

    def self_total(self) -> float:
        return sum(self_s for _, self_s in self.stats.values())
