"""levicav.kvdoc against PyYAML: the same documents, the same dumps and the
same errors, on generated scenario-like files and their edges."""

import io
import string
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from levicav import kvdoc
from levicav.cli import main
from levicav.presets import PRESET_NAMES, preset_scenario_dict
from test_cli import mutated_preset

#: the YAML 1.1 bool and null spellings (PyYAML resolves all but y/Y/n/N)
BOOL_NULL = ("y Y yes Yes YES n N no No NO true True TRUE false False FALSE "
             "on On ON off Off OFF null Null NULL ~").split()
#: plain scalars next to the subset, and YAML that is outside it
EDGE_TOKENS = ["1e5", "1.0e5", "1.0e+5", "1.0E-5", "0x10", "010", "1_000", ".5", "-.5",
               ".inf", "-.inf", ".nan", "0", "-0", "+0", "+7", "1.", "-0.0", "00.5",
               "1.0e+400", "0b11", "1:30", "2001-12-14", "=", "<<", "inf", "nan", "e5",
               "_", "a.b", "a-", "self-trap", "a#b", "'q'", '"q"', "[1, 2]", "{a: 1}", "&x 1",
               "*x", "!!str 1", "|", ">", "-", "- 1", "?", ":", "a:b", "%x", "@x", "`x",
               "a b", "5" * 5000, "9" * 4301]
FIRST = string.ascii_letters + "_"
IDENTIFIERS = st.builds(str.__add__, st.sampled_from(FIRST),
                        st.text(FIRST + string.digits, max_size=8))
WORDS = st.builds(str.__add__, st.sampled_from(FIRST),
                  st.text(FIRST + string.digits + ".-", max_size=10))


def mostly(common, rare):
    """``common`` seven draws in eight, else ``rare``."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 0 else common)


KEYS = mostly(IDENTIFIERS, st.sampled_from(
    BOOL_NULL + ["1", "-", "a b", "a.b", "x" * 122, "x" * 123, "k" * 1030, "?k"]))
#: the spellings of a float that a scenario file may use
FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: st.sampled_from(
    [yaml.safe_dump(x).split("\n")[0], f"{x:.6e}", f"{x:.3E}", f"{x:f}", f"{x:+.1f}"]))
SUBSET_VALUES = st.one_of(st.sampled_from(["null", "true", "false"]),
                          st.integers().map(str), FLOATS.flatmap(lambda choice: choice), WORDS)
VALUES = mostly(SUBSET_VALUES, st.one_of(
    st.sampled_from(BOOL_NULL + EDGE_TOKENS), st.integers(-10**30, 10**30).map(str),
    st.floats().map(lambda x: st.sampled_from([repr(x), f"{x:g}"])).flatmap(lambda c: c)))
SUBSET_COMMENTS = st.sampled_from(["", "", "", " # note", "   # x: [1, '", "  "])
COMMENTS = st.sampled_from(["", "", "", " # note", "  #", "#glued", " # a: [1", "   "])
#: whole lines put between the generated ones
EXTRA_LINES = ["# comment", "   # indented comment", "", "  ", "---", "...", "- item",
               "? key", "%YAML 1.1", "key:", "{a: 1}", "[1, 2]", "dup: 1", "dup: 2"]
#: characters put in place of one character of a line
ODD_CHARS = ["\t", "\x00", "\x07", "\x1b", "\x7f", "\x85", "\ufeff", "\xe9", "\r",
             "\u2028", "\xa0", ":", "#", " "]


@st.composite
def documents(draw):
    """Block-mapping text nested up to three deep: half in the subset, half
    with rare keys, values and comments, a few mutations and a BOM."""
    edgy = draw(st.booleans())
    keys, values, comments = (KEYS, VALUES, COMMENTS) if edgy else (
        IDENTIFIERS, SUBSET_VALUES, SUBSET_COMMENTS)
    step = draw(st.sampled_from([2, 2, 4, 1, 3]))
    lines: list[str] = []

    def mapping(depth, indent):
        for _ in range(draw(st.integers(1, 4))):
            head = " " * indent + draw(keys) + ":"
            if depth < 2 and draw(st.booleans()):
                lines.append(head + draw(comments))
                mapping(depth + 1, indent + step)
            else:
                lines.append(head + " " + draw(values) + draw(comments))
            if draw(comments):
                lines.append(" " * draw(st.integers(0, 6)) + "# between")

    mapping(0, draw(st.sampled_from([0, 0, 0, 2])))
    for _ in range(draw(st.integers(0, 2)) if edgy else 0):
        at = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["insert", "duplicate", "indent", "dedent", "char"]))
        if op == "insert":
            lines.insert(at, draw(st.sampled_from(EXTRA_LINES)))
        elif op == "duplicate":
            lines.insert(at + 1, lines[at])
        elif op == "indent":
            lines[at] = " " + lines[at]
        elif op == "dedent":
            lines[at] = lines[at][1:]
        elif lines[at]:
            i = draw(st.integers(0, len(lines[at]) - 1))
            lines[at] = lines[at][:i] + draw(st.sampled_from(ODD_CHARS)) + lines[at][i + 1:]
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))
    return ("\ufeff" if edgy and draw(st.booleans()) else "") + text


def outcome(call, *args, **kwargs):
    """repr of the result (exact for floats, bools and key order), or the
    error's type and message."""
    try:
        return "ok", repr(call(*args, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


def assert_loads_as_pyyaml(text, path):
    assert (outcome(kvdoc.safe_load, io.StringIO(text))
            == outcome(yaml.safe_load, io.StringIO(text))), text
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8") as ours, open(path, encoding="utf-8") as theirs:
        assert outcome(kvdoc.safe_load, ours) == outcome(yaml.safe_load, theirs), text


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("kvdoc") / "doc.yaml"


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(text=st.one_of(documents(), st.text(string.printable, max_size=40)))
def test_load_matches_pyyaml(doc_path, text):
    # from memory and from a file: the document, or the same error naming the file
    assert_loads_as_pyyaml(text, doc_path)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(doc=mutated_preset())
def test_mutated_presets_match_pyyaml(doc_path, doc):
    # the files the CLI tests write: PyYAML's dump, sorted keys
    assert_loads_as_pyyaml(yaml.safe_dump(doc), doc_path)
    assert (outcome(kvdoc.safe_dump, doc, sort_keys=False)
            == outcome(yaml.safe_dump, doc, sort_keys=False))


#: structures at the subset's edges
EDGE_DOCUMENTS = [
    "a:\nb: 1\n", "a:\n", "a: 1\n  b: 2\n", "a:\n    b: 1\n  c: 2\n", "  a: 1\nb: 2\n",
    "  a: 1\n  b: 2\n", "a:\n  b:\n    c: 1\n  d: 2\ne: 3\n", "a:\n  b: 1\n   c: 2\n",
    "a: 1\na: 2\n", "a:\n  x: 1\na:\n  y: 2\n", "a:\n  x: 1\n  x:\n    y: 2\n",
    "", "# only a comment\n", "\n\n", "   ",
    "a: 1 # c\n", "a: 1 #\n", "a: 1#c\n", "a:# c\n", "a: # c\n  b: 1\n", "#c\na: 1\n   # c\n",
    "a:\n# c\n  b: 1\n", "a:\n  # c\nb: 1\n", "a:1\n", "a : 1\n", "a:  1  \n",
    "\ufeffa: 1\n", "a: 1\r\nb: 2\r\n", "a: 1\rb: 2\n", "a: 1 # c\rb: 2\n", "# c\rb: 2\n", "a: 1\tb\n", "a:\t1\n", "\ta: 1\n",
    "a: 1 #\tc\n", "--- \na: 1\n", "---\na: 1\n", "a: 1\n...\n", "a: 1\n---\nb: 2\n",
    "{a: 1}\n", "- a\n", "? a\n: 1\n", "a: 1\n\x00", "a: \x85\n", "a: \xe9\n", "a: 1\x0bb\n",
    "a: 1\x0cb: 2\n", "a: 1\x1c\n", "a: 1\n\x7f",
]


@pytest.mark.parametrize("text", EDGE_DOCUMENTS)
def test_edge_documents_load_as_pyyaml(doc_path, text):
    assert_loads_as_pyyaml(text, doc_path)


@pytest.mark.parametrize("token", BOOL_NULL + EDGE_TOKENS + ["x" * 122, "x" * 123, "k" * 1030])
def test_edge_tokens_as_key_and_value(doc_path, token):
    # every bool and null spelling, and every near miss, in an otherwise
    # plain document
    for text in (f"s:\n  {token}: 1\n", f"s:\n  k: {token}\n", f"{token}: 1\n"):
        assert_loads_as_pyyaml(text, doc_path)
    for doc in ({"s": {token: 1}}, {"s": {"k": token}}):
        assert (outcome(kvdoc.safe_dump, doc, sort_keys=False)
                == outcome(yaml.safe_dump, doc, sort_keys=False))


DUMP_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([400, 5000]).map(lambda n: 10**n), st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-5, 1.5e300, 123456789.0, 1e22, 1e-7]),
    st.sampled_from(BOOL_NULL + EDGE_TOKENS[:40] + ["", " a", "a ", "\xe9", "a\nb", "x" * 100]),
    WORDS,
    st.lists(st.integers(), max_size=2), st.just({}))
DUMP_KEYS = st.one_of(KEYS, st.integers(-3, 3), st.none(), st.booleans(), st.just(""))


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(doc=st.recursive(DUMP_SCALARS, lambda inner: st.dictionaries(DUMP_KEYS, inner,
                                                                     max_size=4),
                        max_leaves=12))
def test_dump_matches_pyyaml(doc):
    assert (outcome(kvdoc.safe_dump, doc, sort_keys=False)
            == outcome(yaml.safe_dump, doc, sort_keys=False))
    assert outcome(kvdoc.safe_dump, doc) == outcome(yaml.safe_dump, doc)


def readme_example() -> str:
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Scenario files", 1)[1]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_take_the_fast_path(name):
    # the preset files are written and read here, never by PyYAML
    doc = preset_scenario_dict(name)
    text = yaml.safe_dump(doc, sort_keys=False)
    assert kvdoc._dump(doc, "") == text.splitlines()
    assert repr(kvdoc._parse(text)) == repr(doc)


def test_readme_example_takes_the_fast_path():
    text = readme_example()
    assert repr(kvdoc._parse(text)) == repr(yaml.safe_load(text))


@pytest.mark.parametrize("text, message", [
    ("cavity:\n  finesse: [1\n",
     "while parsing a flow sequence in \"{path}\", line 2, column 12 expected ',' or ']', "
     "but got '<stream end>' in \"{path}\", line 3, column 1"),
    ("cavity:\n\tfinesse: 1\n",
     "while scanning for the next token found character '\\t' that cannot start any token "
     "in \"{path}\", line 2, column 1"),
    ("a: 1\n  b: 2\n", "mapping values are not allowed here in \"{path}\", line 2, column 4"),
    ("a: \"x\n", "while scanning a quoted scalar in \"{path}\", line 1, column 4 found "
                 "unexpected end of stream in \"{path}\", line 2, column 1"),
], ids=["flow", "tab", "indent", "quote"])
def test_bad_yaml_error_line_unchanged(capsys, tmp_path, text, message):
    # the one error line PyYAML's reader gave before this module existed
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    code = main(["feasibility", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (f"error: scenario file {path} is not valid YAML: "
                            f"{message.format(path=path)}\n")


@pytest.mark.parametrize("offset", [0, 9000, 70000])
def test_undecodable_file_raises_as_pyyaml(tmp_path, offset):
    # the file is read again by PyYAML, in its own chunks
    path = tmp_path / "bytes.yaml"
    path.write_bytes(b"a: 1\n" + b"#" * offset + b"\n\xff\xfe: 2\n")
    with open(path, encoding="utf-8") as ours, open(path, encoding="utf-8") as theirs:
        assert outcome(kvdoc.safe_load, ours) == outcome(yaml.safe_load, theirs)


def test_yaml_error_is_pyyamls():
    assert kvdoc.YAMLError is yaml.YAMLError
    with pytest.raises(AttributeError, match="no_such_name"):
        kvdoc.no_such_name
