"""Scenario files: PyYAML's ``safe_load`` and ``safe_dump`` without its import
for the block-mapping subset the presets use.

The reader takes ASCII text of printable characters and line breaks only:
identifier keys nested by consistent indentation, full-line and `` #``
comments, and plain values that are ``null``, ``true``, ``false``, an int
``[-+]?(0|[1-9][0-9]*)``, a float ``[-+]?[0-9]+\\.[0-9]*([eE][-+][0-9]+)?`` or
a word ``[A-Za-z_][A-Za-z0-9_.-]*`` other than a YAML 1.1 bool or null
spelling. The writer emits mappings of such keys and values (finite floats
in PyYAML's spelling) in PyYAML's block style. Everything else, including
an empty document, a duplicate key or an empty value, goes to PyYAML,
imported on first need, so every result and every error is PyYAML's own,
but a key repeated in its mapping is an error where PyYAML keeps the later.
``levicav.scenario`` and ``levicav.cli`` import this module as ``yaml``, the
name under which perfbench's traced runs time its two calls.
"""

import functools
import io
import math
import re

__all__ = ["YAMLError", "safe_dump", "safe_load"]

_TEXT = re.compile(r"[ -~\n]*")  # printable ASCII and line breaks
#: keys PyYAML writes as simple keys: with its 5-character tag, under 128
_KEY = re.compile(r"[A-Za-z_][A-Za-z0-9_]{0,121}")
_LINE = re.compile(rf"( *)({_KEY.pattern}):(?: +([^ #]\S*))?(?: +#.*)? *")
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
_FLOAT = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")
#: the words YAML 1.1 resolves to a bool or to null
_RESOLVED = frozenset("yes Yes YES no No NO true True TRUE false False FALSE "
                      "on On ON off Off OFF null Null NULL".split())
_CONSTANTS = {"null": None, "true": True, "false": False}
_OUTSIDE = object()


def __getattr__(name):
    if name == "YAMLError":  # looked up only where an error is handled
        from yaml import YAMLError
        return YAMLError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _value(token: str):
    if token in _CONSTANTS:
        return _CONSTANTS[token]
    if _INT.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # past the interpreter's digit limit
            return _OUTSIDE
    if _FLOAT.fullmatch(token):
        return float(token)
    if _WORD.fullmatch(token) and token not in _RESOLVED:
        return token
    return _OUTSIDE


def _parse(text: str):
    """The document of ``text``, or None where it leaves the subset."""
    if not _TEXT.fullmatch(text):
        return None
    root: dict = {}
    levels: list = []  # (indent, mapping) from the root down
    opened = None      # the mapping a ``key:`` line opened
    for line in text.split("\n"):
        content = line.lstrip(" ")
        if not content or content[0] == "#":
            continue
        match = _LINE.fullmatch(line)
        if match is None:
            return None
        pad, key, token = match.groups()
        indent = len(pad)
        if opened is not None:
            if indent <= levels[-1][0]:
                return None  # an empty value
            levels.append((indent, opened))
            opened = None
        elif not levels:
            levels.append((indent, root))
        else:
            while levels and levels[-1][0] > indent:
                levels.pop()
            if not levels or levels[-1][0] != indent:
                return None
        mapping = levels[-1][1]
        if key in mapping or key in _RESOLVED:
            return None
        if token is None:
            opened = mapping[key] = {}
        else:
            mapping[key] = _value(token)
            if mapping[key] is _OUTSIDE:
                return None
    return root if root and opened is None else None


@functools.cache
def _strict_loader():
    """PyYAML's ``SafeLoader``, rejecting two keys of a mapping that load as equal."""
    import yaml

    class StrictLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            pairs = node.value if isinstance(node, yaml.MappingNode) else ()
            keys = [key for key, _ in pairs if key.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep=deep)  # every key hashable
            seen: dict = {}
            for key_node in keys:
                key = self.construct_object(key_node, deep=deep)
                if seen.setdefault(key, key_node) is not key_node:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
            return mapping
    return StrictLoader


def safe_load(stream):
    """``yaml.safe_load(stream)``, duplicate keys rejected; a seekable text
    stream in the subset is read here, and any other is rewound and read by
    PyYAML, so its error marks name the stream."""
    if isinstance(stream, io.TextIOBase) and stream.seekable():
        start = stream.tell()
        try:
            doc = _parse(stream.read())
        except UnicodeDecodeError:  # PyYAML reads it again and reports it
            doc = None
        if doc is not None:
            return doc
        stream.seek(start)
    import yaml
    return yaml.load(stream, Loader=_strict_loader())


def _scalar(value):
    if value is None or type(value) is bool:
        return {None: "null", True: "true", False: "false"}[value]
    if type(value) is int:
        return str(value)
    if type(value) is float and math.isfinite(value):
        text = repr(value).lower()  # PyYAML's float spelling: 1e-06 -> 1.0e-06
        return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text
    if type(value) is str and _WORD.fullmatch(value) and value not in _RESOLVED:
        return value
    return None


def _dump(mapping: dict, pad: str):
    """The lines of ``mapping`` at indent ``pad``, or None outside the subset."""
    lines = []
    for key, value in mapping.items():
        if not (type(key) is str and _KEY.fullmatch(key) and key not in _RESOLVED):
            return None
        if type(value) is dict and value:
            body = _dump(value, pad + "  ")
            if body is None:
                return None
            lines.append(f"{pad}{key}:")
            lines.extend(body)
        else:
            text = _scalar(value)
            if text is None:
                return None
            lines.append(f"{pad}{key}: {text}")
    return lines


def safe_dump(data, stream=None, **kwds):
    """``yaml.safe_dump(data, stream, **kwds)``; a non-empty mapping in the
    subset, returned as a str with ``sort_keys=False``, is written here."""
    if stream is None and kwds == {"sort_keys": False} and type(data) is dict and data:
        lines = _dump(data, "")
        if lines is not None:
            return "\n".join(lines) + "\n"
    import yaml
    return yaml.safe_dump(data, stream, **kwds)
