"""The record contract: every frozen record in the package behaves as a
``@dataclass(frozen=True)`` class with the same fields would.

Records are found by walking the package's modules, so a new record is
covered without being listed here; its tests fail until one of the sample
roots below reaches an instance of it.
"""

import copy
import dataclasses
import importlib
import json
import math
import pkgutil
import subprocess
import sys

import pytest

import levicav
from levicav import cavity, environment, pulse, rod, scenario
from levicav.constants import CODATA


def package_records() -> list:
    records = []
    for info in pkgutil.iter_modules(levicav.__path__):
        module = importlib.import_module(f"levicav.{info.name}")
        records += [value for value in vars(module).values()
                    if isinstance(value, type) and value.__module__ == module.__name__
                    and dataclasses.is_dataclass(value)]
    return records


def sample_records() -> dict:
    """record class -> one valid instance, from the presets' scenarios,
    reports and traces and the records they hold."""
    roots = [CODATA, cavity.numeric_derivatives(math.cos, 0.3),
             pulse.conditional_superposition(0.5, 0.1)]
    for name in scenario.PRESET_NAMES:
        s = scenario.scenario_from_dict(scenario.preset_scenario_dict(name))
        report = scenario.evaluate_scenario(s)
        protocol = scenario.build_protocol(s, report)
        roots += [s, report, protocol, pulse.phonon_trace(protocol)]
        if isinstance(s.trap, scenario.SelfTrapSpec):
            roots += rod.translation_configuration(s.cavity, s.trap.mode1_power)[:2]
        if s.gas is not None:
            omega_t = report.optomech.omega_t
            roots += [environment.heating_time_and_bound(s.object, s.gas, omega_t,
                                                         s.cooling_rate),
                      environment.decoherence_rates(s.object, s.gas, omega_t,
                                                    report.optomech.zm)]
    samples: dict = {}

    def visit(value):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            samples.setdefault(type(value), value)
            for f in dataclasses.fields(value):
                visit(getattr(value, f.name))
        elif isinstance(value, tuple):
            for item in value:
                visit(item)

    for root in roots:
        visit(root)
    return samples


RECORDS = package_records()
SAMPLES = sample_records()
by_record = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def sample(cls):
    if cls not in SAMPLES:
        pytest.fail(f"no sample root reaches a {cls.__name__}; add one to sample_records")
    return SAMPLES[cls]


def reference_class(cls):
    """A ``@dataclass(frozen=True)`` class with ``cls``'s name, fields and
    defaults, and no ``__post_init__``."""
    specs = [(f.name, f.type, dataclasses.field(default=f.default, repr=f.repr,
                                                compare=f.compare))
             for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def reference(obj):
    """``obj``'s field values in an instance of its reference class."""
    twin = object.__new__(reference_class(type(obj)))
    twin.__dict__.update(vars(obj))
    return twin


def outcome(call):
    """(exception class, message) of a call expected to raise."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError("no exception raised")


def test_records_found():
    # at least the 25 records of constants, cavity, sphere, rod, environment,
    # scenario and pulse
    assert len(RECORDS) >= 25
    assert {cls.__module__ for cls in RECORDS} >= {
        f"levicav.{name}" for name in ("constants", "cavity", "sphere", "rod",
                                       "environment", "scenario", "pulse")}


@by_record
def test_frozen(cls):
    obj = sample(cls)
    first = dataclasses.fields(cls)[0].name
    before = getattr(obj, first)
    twin = reference(obj)
    for name in (first, "not_a_field"):
        got = outcome(lambda: setattr(obj, name, 1))
        assert got == (dataclasses.FrozenInstanceError, f"cannot assign to field {name!r}")
        assert got == outcome(lambda: setattr(twin, name, 1))
        got = outcome(lambda: delattr(obj, name))
        assert got == (dataclasses.FrozenInstanceError, f"cannot delete field {name!r}")
        assert got == outcome(lambda: delattr(twin, name))
    assert getattr(obj, first) is before


@by_record
def test_equality_and_hash(cls):
    obj = sample(cls)
    same = dataclasses.replace(obj)
    assert same is not obj and same == obj and not same != obj
    changed = copy.copy(obj)  # the last field: array fields come first
    changed.__dict__[dataclasses.fields(cls)[-1].name] = object()
    assert changed != obj and not changed == obj
    # another record type never compares equal, not even with the same values
    assert obj != reference(obj) and not obj == reference(obj)
    other = next(record for record in RECORDS if record is not cls)
    assert obj != sample(other)
    values = tuple(getattr(obj, f.name) for f in dataclasses.fields(cls))
    try:
        expected = hash(values)
    except TypeError:  # an array field: unhashable, as for a dataclass
        assert outcome(lambda: hash(obj)) == outcome(lambda: hash(reference(obj)))
    else:
        assert hash(obj) == hash(same) == expected == hash(reference(obj))


@by_record
def test_repr(cls):
    obj = sample(cls)
    shown = [f.name for f in dataclasses.fields(cls) if f.repr]
    text = repr(obj)
    assert text == repr(reference(obj))
    assert text.startswith(f"{cls.__qualname__}({shown[0]}=") and text.endswith(")")
    hidden = [f.name for f in dataclasses.fields(cls) if not f.repr]
    assert not any(f"{name}=" in text for name in hidden)


def test_repr_hides_arrays():
    assert "t_grid" not in repr(sample(pulse.PulseProtocol))
    text = repr(sample(pulse.PhononTrace))
    assert text.startswith("PhononTrace(peak_time=") and "times" not in text


@by_record
def test_construction(cls):
    obj = sample(cls)
    fields = dataclasses.fields(cls)
    values = {f.name: getattr(obj, f.name) for f in fields}
    assert cls(*values.values()) == obj
    assert cls(**values) == obj
    required = {f.name: values[f.name] for f in fields if f.default is dataclasses.MISSING}
    made = cls(**required)
    for f in fields:
        if f.default is not dataclasses.MISSING:
            assert getattr(made, f.name) is f.default
    twin = reference_class(cls)
    first = fields[0].name
    calls = [lambda c: c(*values.values(), 0),                 # too many
             lambda c: c(**values, not_a_field=0),              # unexpected
             lambda c: c(values[first], **values)]              # duplicate
    if required:
        calls.append(lambda c: c(**dict(list(required.items())[1:])))  # missing
    for call in calls:
        got = outcome(lambda: call(cls))
        assert got[0] is TypeError and got == outcome(lambda: call(twin))
        assert got[1].startswith(f"{cls.__qualname__}.__init__()")


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if hasattr(cls, "__post_init__")],
                         ids=lambda cls: cls.__name__)
def test_post_init_runs_under_replace(cls, monkeypatch):
    seen = []
    check = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: (seen.append(self), check(self)))
    new = dataclasses.replace(sample(cls))
    assert len(seen) == 1 and seen[0] is new


@by_record
def test_dataclass_functions(cls):
    obj = sample(cls)
    names = list(cls.__annotations__)  # declaration order
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(obj)
    assert [f.name for f in dataclasses.fields(obj)] == names
    assert cls.__match_args__ == tuple(names)
    as_dict = dataclasses.asdict(obj)
    assert list(as_dict) == names
    for name in names:
        if dataclasses.is_dataclass(getattr(obj, name)):
            assert as_dict[name] == dataclasses.asdict(getattr(obj, name))
    assert dataclasses.replace(obj) == obj
    assert cls.__dataclass_params__.frozen


@by_record
def test_replace_helper(cls):
    # records.replace, which the sweep path uses without registering the
    # record with dataclasses, builds what dataclasses.replace builds
    from levicav.records import replace
    obj = sample(cls)
    first = dataclasses.fields(cls)[0].name
    for changes in ({}, {first: getattr(obj, first)}):
        made = replace(obj, **changes)
        assert type(made) is cls and made is not obj
        assert made == dataclasses.replace(obj, **changes)
    assert outcome(lambda: replace(obj, not_a_field=0)) == outcome(
        lambda: dataclasses.replace(obj, not_a_field=0))


def test_plain_default_only():
    from levicav.records import record

    class Listed:
        """Not a record: its field has a default factory."""
        items: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="Listed.items: default_factory"):
        record(Listed)


GUARD_PROBE = """
import json, sys
import dataclasses, numpy, yaml
compiles = []
sys.addaudithook(lambda event, args: compiles.append(args[1]) if event == "compile" else None)
import levicav.scenario, levicav.pulse
loaded = [m for name, m in list(sys.modules.items()) if name.startswith("levicav.")]
records = [v for m in loaded for v in vars(m).values()
           if isinstance(v, type) and v.__module__ == m.__name__ and dataclasses.is_dataclass(v)]
undocumented = [r.__name__ for r in records
                if not r.__doc__ or r.__doc__.startswith(r.__name__ + "(")]
print("PROBE " + json.dumps([compiles.count("<string>"), len(records), undocumented]))
"""


def test_one_compile_per_record():
    # dataclass(frozen=True) compiled six methods per record in every process
    # (150 for the record modules); a record compiles its __init__ only. A
    # record without a written docstring makes dataclasses build one with
    # inspect.signature.
    proc = subprocess.run([sys.executable, "-c", GUARD_PROBE], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = next(row for row in proc.stdout.splitlines() if row.startswith("PROBE "))
    compiles, records, undocumented = json.loads(line[len("PROBE "):])
    assert records == len(RECORDS)
    assert compiles <= records
    assert undocumented == []
