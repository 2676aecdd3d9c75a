import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logacm.cli import ProblemSpec, load_problem, main, read_document
from logacm.errors import InputError

from conftest import bench_workloads

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_problem_spec_roundtrip():
    spec = ProblemSpec.from_dict(
        {"variety": {"kind": "hirzebruch", "e": 2}, "polarization": [1, 3], "cap": 5}
    )
    again = ProblemSpec.from_dict(
        {k: v for k, v in spec.to_dict().items() if v not in (None,)}
    )
    assert again == spec


def test_unknown_fields_rejected():
    with pytest.raises(InputError):
        ProblemSpec.from_dict({"variety": {"kind": "quadric"}, "bogus": 1})
    with pytest.raises(InputError):
        ProblemSpec.from_dict({"variety": {"kind": "quadric", "oops": 2}})
    with pytest.raises(InputError):
        ProblemSpec.from_dict({"variety": {"kind": "quadric"}, "sheaf": "mystery"})


def test_parse_error_exit_code(tmp_path, capsys):
    p = write(tmp_path, "bad.yaml", "variety: {kind: quadric}\nbogus: 1\n")
    code, _ = run(capsys, "classify", str(p))
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["classfy", str(p)])
    assert exc.value.code == 2  # no such command


def test_cohom_rows(tmp_path, capsys):
    p = write(
        tmp_path,
        "f2.yaml",
        "variety: {kind: hirzebruch, e: 2}\npolarization: [1, 3]\nsheaf: tangent\nwindow: [-1, 1]\nformat: csv\n",
    )
    code, out = run(capsys, "cohom", str(p), "--no-header", "--format", "md")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["t", "h0", "h1", "h2"]
    row0 = dict(zip(("t", "h0", "h1", "h2"), lines[2].split()))
    assert row0 == {"t": "0", "h0": "7", "h1": "1", "h2": "0"}
    # --window overrides the document's window:, which is [-1, 1]
    code, out = run(capsys, "cohom", str(p), "--no-header", "--window", "0", "0")
    assert code == 0 and out == "t,h0,h1,h2\n0,7,1,0\n"


def test_classify_exit_codes(tmp_path, capsys):
    yes = write(
        tmp_path,
        "yes.yaml",
        "variety: {kind: projective_space, n: 3}\npolarization: 1\n"
        "arrangement: {components: [[1],[1],[1],[1]]}\n",
    )
    no = write(
        tmp_path,
        "no.yaml",
        "variety: {kind: quadric}\npolarization: [1, 1]\n"
        "arrangement: {components: [[1,0],[1,0],[1,0],[1,0],[0,1]]}\n",
    )
    code, out = run(capsys, "classify", str(yes))
    assert code == 0 and "verdict: Yes" in out
    code, out = run(capsys, "classify", str(no))
    assert code == 1 and "verdict: No" in out and "witness" in out
    # L = -4H - 3E on Bl_1 P^2 has L^2 > 0 and L.E > 0 but L.(H - E) < 0
    anti = write(
        tmp_path,
        "anti.yaml",
        "variety: {kind: blowup_p2, points: 1}\npolarization: [-4, -3]\narrangement: {components: [[0, 1]]}\n",
    )
    for command in ("classify", "search", "cohom", "deficiency"):
        assert main([command, str(anti), "--no-header"]) == 2, command
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: (-4, -3) is not ample on blowup_p2\n"), command
    out = run(capsys, "classify", str(tmp_path), "--no-header")[1]
    assert 'anti.yaml,Error,,"(-4, -3) is not ample on blowup_p2"' in out


def test_classify_unknown_exit(tmp_path, capsys):
    # steep polarization beyond the cap: Unknown, exit 3
    p = write(
        tmp_path,
        "unk.yaml",
        "variety: {kind: hirzebruch, e: 6}\npolarization: [1, 7]\n"
        "arrangement: {components: [[0, 1]]}\ncap: 1\n",
    )
    code, out = run(capsys, "classify", str(p))
    assert code in (1, 3)
    if code == 3:
        assert "Unknown" in out


def test_search_rows(tmp_path, capsys):
    p = write(
        tmp_path,
        "s.yaml",
        "variety: {kind: quadric}\npolarization: [1, 1]\nclass_bound: 4\nm_bound: 6\n",
    )
    code, out = run(capsys, "search", str(p), "--format", "csv", "--no-header")
    assert code == 0
    yes_rows = [ln for ln in out.splitlines() if ",Yes," in ln]
    assert len(yes_rows) == 9


def test_deficiency_certificate(tmp_path, capsys):
    p = write(
        tmp_path,
        "ab.yaml",
        "variety: {kind: abelian, polarization_square: 2}\npolarization: 1\ndegree: 1\n",
    )
    code, out = run(capsys, "deficiency", str(p))
    assert code == 0
    assert "1-Buchsbaum (one-degree rule)" in out
    assert any(ln.split() == ["0", "4"] for ln in out.splitlines())


def test_deficiency_uncertified_scan(tmp_path, capsys):
    p = write(
        tmp_path,
        "p3m6.yaml",
        "variety: {kind: projective_space, n: 3}\npolarization: 1\ndegree: 2\n"
        "arrangement: {components: [[1],[1],[1],[1],[1],[1]]}\nwindow: [-4, 0]\n",
    )
    code, out = run(capsys, "deficiency", str(p))
    assert code == 0
    assert "not certified" in out
    assert any(ln.split()[:2] == ["-3", "2"] for ln in out.splitlines() if ln.strip())
    # 13(-K) on Bl_2 is very ample, and no window is certified within the cap
    p = write(
        tmp_path,
        "bl2.yaml",
        "variety: {kind: blowup_p2, points: 2}\npolarization: [39, -13, -13]\ndegree: 1\n"
        "arrangement: {components: [[0,1,0], [0,0,1], [1,-1,-1]]}\n",
    )
    code, out = run(capsys, "deficiency", str(p))
    assert code == 0
    assert "window: not certified (no certified window within cap=8" in out
    assert any(ln.split() == ["0", "0"] for ln in out.splitlines())


def test_ledger_output(tmp_path, capsys):
    p = write(tmp_path, "led.yaml", "ledger: dp4\n")
    code, out = run(capsys, "ledger", str(p))
    assert code == 0
    assert "values: (60, 10, 12)" in out
    assert "contradiction: yes" in out


def test_pn_reduction_ledger_dimension_range(tmp_path, capsys):
    """The reduction chain's left side is read on P^n itself, so n = 1 is a
    valid chain; n = 0 is refused with exit 2."""
    line = write(tmp_path, "line.yaml", "ledger: thm_pn_reduction\nvariety: {n: 1, degree: 2}\n")
    code, out = run(capsys, "ledger", str(line), "--no-header")
    assert code == 0 and "values: (1, 1)\n" in out
    point = write(tmp_path, "point.yaml", "ledger: thm_pn_reduction\nvariety: {n: 0, degree: 2}\n")
    assert main(["ledger", str(point)]) == 2
    assert capsys.readouterr().err == "error: need n >= 1\n"


def test_ledger_golden(capsys):
    code, out = run(capsys, "ledger", str(PROBLEMS / "ledger_cubic.yaml"), "--no-header")
    assert code == 0
    assert out == (
        "chain: cubic_surface\n"
        "  h^0(TP^3(1)|_X) = 4*10 - 4 = 36\n"
        "  h^0(TX(1)) = 36 - 31 = 5\n"
        "  chi(TX(1)) = chi(TX) + deg TX(1)|_C = 0 + 9\n"
        "values: (36, 5, 9)\n"
        "contradiction: yes\n"
    )
    code, out = run(capsys, "ledger", str(PROBLEMS / "ledger_dp4.yaml"), "--no-header")
    assert code == 0
    assert out == (
        "chain: dp4\n"
        "  h^0(TP^4(1)|_X) = 5*13 - 5 = 60\n"
        "  h^0(TX(1)) = 60 - 2*25 = 10\n"
        "  chi(TX(1)) = chi(TX) + deg TX(1)|_C = 0 + 12\n"
        "values: (60, 10, 12)\n"
        "contradiction: yes\n"
    )


# -- the problem-document reader ------------------------------------------------
#
# PyYAML's SafeLoader is the reference: the reader must give its value on
# every document of the grammar and refuse every other document.


def test_reader_gives_pyyaml_values_on_every_problem_and_benchmark_document(tmp_path):
    yaml = pytest.importorskip("yaml")
    docs = [(p.name, p.read_text()) for p in sorted(PROBLEMS.glob("*.yaml"))]
    docs += [(doc.key, doc.text) for doc in bench_workloads().batch_space()]
    assert len(docs) > 600
    path = tmp_path / "doc.yaml"
    for name, text in docs:
        want = yaml.safe_load(text)
        assert repr(read_document(text)) == repr(want), name
        path.write_text(text)
        assert load_problem(path) == ProblemSpec.from_dict(want or {}), name


_WORDS = ["yes", "Yes", "YES", "no", "No", "NO", "true", "True", "TRUE", "false", "False", "FALSE"]
_WORDS += ["on", "On", "ON", "off", "Off", "OFF", "~", "null", "Null", "NULL"]
_LETTERS = "abcyzABNOT_"
_PLAIN_CHARS = _LETTERS + "019.+~-"
_QUOTED_CHARS = st.characters(min_codepoint=32, max_codepoint=0x3FF).filter(str.isprintable)


def _joined(*parts):
    return st.tuples(*parts).map("".join)


_words = st.lists(_joined(st.sampled_from([" ", "  "]), st.text(_PLAIN_CHARS, min_size=1, max_size=4)), max_size=2)
_scalars = st.one_of(
    st.integers(-(10**12), 10**12).map(str),
    st.integers(0, 99).map(lambda n: f"+{n}"),
    _joined(st.sampled_from(["", "-", "+"]), st.integers(0, 999).map(str), st.just("."), st.text("0123456789", min_size=1, max_size=3)),
    st.sampled_from(_WORDS),
    _joined(st.sampled_from(_LETTERS), st.text(_PLAIN_CHARS, max_size=6), _words.map("".join)),
    st.text(_QUOTED_CHARS.filter(lambda c: c != "'"), max_size=6).map(lambda t: f"'{t}'"),
    st.text(_QUOTED_CHARS.filter(lambda c: c not in '"\\'), max_size=6).map(lambda t: f'"{t}"'),
)
# keys that resolve to distinct strings
_keys = st.lists(_joined(st.sampled_from("abxyz_"), st.text("abxyz_019", max_size=4)).filter(lambda k: k not in _WORDS), unique=True)
_gap = st.sampled_from(["", " "])


@st.composite
def _flow_text(draw, depth=0):
    kind = draw(st.sampled_from(["scalar"] * 2 + (["seq", "map"] if depth < 3 else [])))
    if kind == "scalar":
        return draw(_scalars)
    if kind == "seq":
        items = draw(st.lists(_flow_text(depth + 1), max_size=4))
        return "[" + draw(_gap) + (draw(_gap) + "," + draw(_gap)).join(items) + draw(_gap) + "]"
    keys = draw(_keys.filter(lambda ks: len(ks) <= 3))
    pairs = [k + draw(_gap) + ": " + draw(_flow_text(depth + 1)) for k in keys]
    return "{" + draw(_gap) + ("," + draw(_gap)).join(pairs) + draw(_gap) + "}"


_tail = st.sampled_from(["", " ", "  # note", " #: [x]"])
_filler = st.sampled_from(["", "\n", "# comment\n", "   \n", "  # indented comment\n"])


@st.composite
def _block_text(draw, indent=0, depth=0):
    """A block mapping or sequence at `indent`, one line per entry."""
    pad = " " * indent
    lines = []
    if draw(st.booleans()) or depth >= 2:
        for key in draw(_keys.filter(lambda ks: 0 < len(ks) <= 4)):
            form = draw(st.sampled_from(["inline", "inline", "null", "nested", "compact"] if depth < 2 else ["inline", "null"]))
            head = pad + key + draw(_gap) + ":"
            if form == "inline":
                lines.append(head + " " + draw(_flow_text()) + draw(_tail) + "\n")
            elif form == "null":
                lines.append(head + draw(_tail) + "\n")
            else:
                inner = indent if form == "compact" else indent + draw(st.integers(1, 3))
                body = draw(_block_text(inner, depth + 1)) if form == "nested" else draw(_seq_text(inner, depth + 1))
                lines.append(head + draw(_tail) + "\n" + body)
            lines.append(draw(_filler))
    else:
        lines.append(draw(_seq_text(indent, depth)))
    return "".join(lines)


@st.composite
def _seq_text(draw, indent, depth):
    pad = " " * indent
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        form = draw(st.sampled_from(["inline", "inline", "null", "nested"] if depth < 2 else ["inline", "null"]))
        if form == "inline":
            lines.append(pad + "- " + draw(_flow_text()) + draw(_tail) + "\n")
        elif form == "null":
            lines.append(pad + "-" + draw(_tail) + "\n")
        else:
            lines.append(pad + "-" + draw(_tail) + "\n" + draw(_block_text(indent + draw(st.integers(1, 3)), depth + 1)))
    return "".join(lines)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_block_text())
def test_reader_equals_pyyaml_on_the_grammar(text):
    yaml = pytest.importorskip("yaml")
    assert repr(read_document(text)) == repr(yaml.safe_load(text))


# values PyYAML reads that the grammar leaves out: anchors and aliases, tags,
# block scalars, escapes, YAML 1.1 ints other than decimal, floats other than
# d.d, timestamps, multi-line scalars and flows, implicit flow entries and
# several documents
OUTSIDE = [
    "&a 1", "&a [1]\nOther: *a", "!!str 1", "|\n  text", ">\n  text", "'it''s'", '"tab\\t"', '"\\u00e9"',
    "012", "0x1F", "0b101", "0o12", "1_000", "1:30", "190:20:30.15", "1.", ".5", "1e3", "1.5e3", "-.inf", ".nan",
    "2001-12-14", "2001-12-14t21:59:43.10-05:00", "[1,\n  2]", "'a\n  b'", "a\n  b", "b\n  - 1",
    "a, b", "a:b", "-a", "é", "'a'#b", "{a}", "[a: 1]", "{a: 1,}", "[1,]", "1\n---\nx: 2", "1\n...\n",
]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_block_text(), st.sampled_from(OUTSIDE))
def test_reader_refuses_what_is_outside_the_grammar(text, outside):
    """A document that PyYAML reads, with a value outside the grammar after
    a grammar document, is refused; with an int there it is read."""
    yaml = pytest.importorskip("yaml")
    doc = "doc:\n" + textwrap.indent(text, "  ") + "Outside: "
    assert repr(read_document(doc + "1\n")) == repr(yaml.safe_load(doc + "1\n"))
    assert list(yaml.safe_load_all(doc + outside + "\n"))
    with pytest.raises(InputError):
        read_document(doc + outside + "\n")


FRAGMENTS = [
    "a", "b c", "1", "-1", "07", "1.5", ".5", "yes", "No", "null", "~", "1e3", "0x1", "1_0", "2001-01-01",
    " ", "  ", "\n", "\n  ", "- ", "-", ":", ": ", ",", "[", "]", "{", "}", "#", " # c", "'", '"', "'x'",
    '"y"', "''", "&a ", "*a", "!!int ", "|", ">", "?", "---", "...", "\t", "1:2", "%", "\\",
]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_block_text(), st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(FRAGMENTS)), max_size=4))
def test_reader_never_reads_a_document_differently(text, inserts):
    """A grammar document with fragments inserted: the reader raises
    InputError, or gives PyYAML's value."""
    yaml = pytest.importorskip("yaml")
    for at, fragment in inserts:
        at %= len(text) + 1
        text = text[:at] + fragment + text[at:]
    try:
        want = repr(yaml.safe_load(text))
    except Exception:  # any refusal of PyYAML's
        want = None
    try:
        got = repr(read_document(text))
    except InputError:
        return
    assert got == want, text


def test_importing_the_cli_loads_no_yaml_library():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, logacm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('yaml', '_yaml')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_bad_yaml_exits_2_with_the_line(tmp_path, capsys):
    p = write(tmp_path, "anchor.yaml", "variety: {kind: quadric}\npolarization: &h [1, 1]\n")
    err = refused(capsys, "classify", str(p)) or ""
    assert err.startswith(f"error: {p}: bad YAML (line 2: ")
    deep = write(tmp_path, "deep.yaml", "polarization: " + "[" * 5000 + "]" * 5000 + "\n")
    assert "nested too deeply" in (refused(capsys, "classify", str(deep)) or "")


def test_directory_mode_deterministic(tmp_path, capsys):
    write(
        tmp_path,
        "a.yaml",
        "variety: {kind: projective_space, n: 2}\npolarization: 1\n"
        "arrangement: {components: [[1],[1]]}\n",
    )
    write(
        tmp_path,
        "b.yaml",
        "variety: {kind: quadric}\npolarization: [1, 1]\n"
        "arrangement: {components: [[1,0],[0,1]]}\n",
    )
    code1, out1 = run(capsys, "classify", str(tmp_path), "--no-header")
    code2, out2 = run(capsys, "classify", str(tmp_path), "--no-header")
    assert code1 == code2 == 0
    assert out1 == out2
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(tmp_path), "--jobs", "2"])
    assert exc.value.code == 2  # no such flag
    lines = out1.splitlines()
    assert lines[0].startswith("file,")
    assert lines[1].startswith("a.yaml,Yes")


def test_header_banner(tmp_path, capsys):
    p = write(tmp_path, "led.yaml", "ledger: cubic_surface\n")
    _, with_header = run(capsys, "ledger", str(p))
    _, without = run(capsys, "ledger", str(p), "--no-header")
    _, again = run(capsys, "ledger", str(p))  # no flag carries over from the call before
    assert with_header.splitlines()[0].startswith("# logacm ")
    assert not without.splitlines()[0].startswith("# logacm")
    assert again == with_header


def test_missing_file_exit(capsys):
    code, _ = run(capsys, "classify", "/nonexistent/prob.yaml")
    assert code == 2


def test_unknown_side_and_format_exit_2(tmp_path, capsys):
    doc = "variety: {kind: quadric}\npolarization: [1, 2]\narrangement: {components: [[1,0],[0,1]]}\n"
    assert run(capsys, "classify", str(write(tmp_path, "tan.yaml", doc + "side: tan\n")))[0] in (0, 1, 3)
    for name, extra in (("side.yaml", "side: tangent\n"), ("fmt.yaml", "format: json\n")):
        p = write(tmp_path, name, doc + extra)
        for command in ("classify", "cohom", "deficiency"):
            assert run(capsys, command, str(p))[0] == 2, (name, command)
    with pytest.raises(InputError):
        ProblemSpec.from_dict({"variety": {"kind": "quadric"}, "side": "tangent"})
    with pytest.raises(InputError):
        ProblemSpec.from_dict({"variety": {"kind": "quadric"}, "format": "json"})


P3_FOUR = "variety: {kind: projective_space, n: 3}\npolarization: 1\narrangement: {components: [[1],[1],[1],[1]]}\n"


def test_cap_flag_zero_is_honoured(tmp_path, capsys):
    # four planes in P^3 certify a window at the default cap 8, not at cap 0
    p = write(tmp_path, "p3.yaml", P3_FOUR)
    code, out = run(capsys, "classify", str(p))
    assert code == 0 and "verdict: Yes" in out
    code, out = run(capsys, "classify", str(p), "--cap", "0")
    assert code == 3 and "within cap=0" in out
    assert run(capsys, "classify", str(p))[0] == 0  # the cap of the call before is gone
    capped = write(tmp_path, "capped.yaml", P3_FOUR + "cap: 0\n")
    assert run(capsys, "classify", str(capped))[0] == 3
    assert run(capsys, "classify", str(capped), "--cap", "8")[0] == 0


def test_classify_dir_reads_each_documents_cap(tmp_path, capsys):
    write(tmp_path, "a_capped.yaml", P3_FOUR + "cap: 0\n")
    write(tmp_path, "b_default.yaml", P3_FOUR)
    code, out = run(capsys, "classify", str(tmp_path), "--no-header")
    rows = [ln.split(",")[:2] for ln in out.splitlines()[1:]]
    assert code == 0 and rows == [["a_capped.yaml", "Unknown"], ["b_default.yaml", "Yes"]]
    code, out = run(capsys, "classify", str(tmp_path), "--no-header", "--cap", "8")
    rows = [ln.split(",")[:2] for ln in out.splitlines()[1:]]
    assert code == 0 and rows == [["a_capped.yaml", "Yes"], ["b_default.yaml", "Yes"]]
    code, out = run(capsys, "classify", str(tmp_path), "--no-header", "--cap", "0")
    rows = [ln.split(",")[:2] for ln in out.splitlines()[1:]]
    assert code == 0 and rows == [["a_capped.yaml", "Unknown"], ["b_default.yaml", "Unknown"]]


def test_negative_cap_rejected(tmp_path, capsys):
    for bad in (-1, True, "3"):
        with pytest.raises(InputError):
            ProblemSpec.from_dict({"variety": {"kind": "quadric"}, "cap": bad})
    neg = write(tmp_path, "neg.yaml", P3_FOUR + "cap: -1\ndegree: 2\n")
    for command in ("classify", "search", "deficiency"):
        assert run(capsys, command, str(neg))[0] == 2, command
    ok = write(tmp_path, "ok.yaml", P3_FOUR + "degree: 2\n")
    for command in ("classify", "search", "deficiency"):
        with pytest.raises(SystemExit) as exc:
            main([command, str(ok), "--cap", "-1"])
        assert exc.value.code == 2, command
    code, out = run(capsys, "classify", str(tmp_path), "--no-header")
    assert code == 0
    row = out.splitlines()[1]
    assert row.startswith("neg.yaml,Error,") and "cap must be a non-negative integer" in row


def test_shared_flags_before_and_after_the_problem(tmp_path, capsys):
    p = write(tmp_path, "all.yaml", P3_FOUR + "degree: 2\nm_bound: 2\nledger: dp4\nwindow: [-9, 9]\n")
    flags = ["--window", "-1", "0", "--cap", "8", "--format", "csv", "--no-header"]
    for command in ("cohom", "classify", "search", "deficiency", "ledger"):
        after = run(capsys, command, str(p), *flags)
        assert after[0] in (0, 1, 3) and not after[1].startswith("# logacm"), command
        assert run(capsys, command, *flags, str(p)) == after, command
        assert run(capsys, *flags, command, str(p)) == after, command
    assert run(capsys, "cohom", str(p), *flags)[1] == "t,h0,h1,h2,h3\n-1,0,0,0,0\n0,3,0,0,0\n"


def test_module_help_names_every_command():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "logacm.cli", "--help"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for command in ("cohom", "classify", "search", "deficiency", "ledger"):
        assert command in proc.stdout



def refused(capsys, *argv):
    """The error text of a run that exits 2, or None for any other exit."""
    code = main(list(argv))
    err = capsys.readouterr().err
    return err if code == 2 else None


def test_components_the_engine_cannot_model_exit_2(tmp_path, capsys):
    p2 = "variety: {kind: projective_space, n: 2}\npolarization: 1\n"
    zero = write(tmp_path, "zero.yaml", p2 + "arrangement: {components: [[0], [1]]}\n")
    by_degree = write(tmp_path, "deg.yaml", p2 + "arrangement:\n  components: [{degree: 1, genus: 0}]\n")
    for path, field in ((zero, "component class"), (by_degree, "degree and genus")):
        for command in ("cohom", "classify"):
            assert field in (refused(capsys, command, str(path)) or ""), (path.name, command)


def test_non_integers_and_a_reversed_window_exit_2(tmp_path, capsys):
    f1 = "variety: {kind: hirzebruch, e: 1}\npolarization: [1, 2]\n"
    cases = [
        ("e", "variety: {kind: hirzebruch, e: 1.5}\npolarization: [1, 2]\n"),
        ("e", "variety: {kind: hirzebruch, e: true}\npolarization: [1, 2]\n"),
        ("polarization", "variety: {kind: hirzebruch, e: 1}\npolarization: [1.7, 1]\n"),
        ("polarization", "variety: {kind: hirzebruch, e: 1}\npolarization: ['1', 2]\n"),
        ("window", f1 + "window: [3, -3]\n"),
        ("window", f1 + "window: [0, 1.5]\n"),
        ("span_rank", f1 + "arrangement: {components: [[1, 0], [0, 1]], span_rank: 1.5}\n"),
    ]
    for field, text in cases:
        p = write(tmp_path, "bad.yaml", text)
        assert field in (refused(capsys, "cohom", str(p)) or ""), text
    read_by_one_command = (("search", "class_bound", "true"), ("search", "m_bound", "1.5"), ("deficiency", "degree", "1.5"))
    for command, field, value in read_by_one_command:
        p = write(tmp_path, "bad.yaml", f1 + f"{field}: {value}\n")
        assert field in (refused(capsys, command, str(p)) or ""), field
    ok = write(tmp_path, "ok.yaml", f1)
    assert "window" in (refused(capsys, "cohom", str(ok), "--window", "3", "-3") or "")
    assert run(capsys, "cohom", str(ok), "--window", "3", "3")[0] == 0


def test_a_span_rank_the_classes_contradict_exits_2(tmp_path, capsys):
    """Components given by class fix their span, so an asserted span_rank
    that differs is a mismatched document."""
    docs = [
        "variety: {kind: blowup_p2, points: 2}\npolarization: [3, -1, -1]\n"
        "arrangement: {components: [[0, 1, 0], [0, 0, 1]], span_rank: 1}\n",
        "variety: {kind: hirzebruch, e: 2}\npolarization: [1, 3]\n"
        "arrangement: {components: [[1, 0], [1, 2]], span_rank: 1}\n",
    ]
    for text in docs:
        p = write(tmp_path, "span.yaml", text)
        for command in ("cohom", "classify"):
            assert "span_rank 1 contradicts" in (refused(capsys, command, str(p)) or ""), (text, command)
        ok = write(tmp_path, "ok.yaml", text.replace("span_rank: 1", "span_rank: 2"))
        assert refused(capsys, "classify", str(ok)) is None, text


def test_snc_must_be_a_yaml_bool(tmp_path, capsys):
    quadric = "variety: {kind: quadric}\npolarization: [1, 1]\narrangement: {components: [[1, 0], [0, 1]], snc: "
    for value in ('"no"', "'false'", "0", "1", "null"):
        p = write(tmp_path, "bad.yaml", quadric + value + "}\n")
        for command in ("classify", "deficiency"):
            assert "snc" in (refused(capsys, command, str(p)) or ""), (value, command)
    assert run(capsys, "classify", str(write(tmp_path, "yes.yaml", quadric + "true}\n")))[0] == 0
    refusal = refused(capsys, "classify", str(write(tmp_path, "no.yaml", quadric + "false}\n"))) or ""
    assert "simple normal crossings" in refusal


def test_malformed_variety_and_arrangement_documents_exit_2(tmp_path, capsys):
    """A variety takes exactly its kind and that kind's own parameter, and
    each refusal names the field it is about."""
    h = "polarization: 1\n"
    cases = [
        ("['e'] do not apply to kind quadric", "variety: {kind: quadric, e: 2}\npolarization: [1, 1]\n"),
        ("['n'] do not apply to kind blowup_p2", "variety: {kind: blowup_p2, points: 2, n: 7}\npolarization: [3, -1, -1]\n"),
        ("variety must be a mapping, got 5", "variety: 5\n" + h),
        ("variety must be a mapping, got 'quadric'", "variety: quadric\n" + h),
        ("needs the field e", "variety: {kind: hirzebruch}\npolarization: [1, 2]\n"),
        ("arrangement must be a mapping", "variety: {kind: projective_space, n: 2}\n" + h + "arrangement: 5\n"),
        ("components must be a list", "variety: {kind: projective_space, n: 2}\n" + h + "arrangement: {components: 5}\n"),
        ("needs a degree or a class", "variety: {kind: surface_p3, degree: 4}\n" + h + "arrangement:\n  components:\n    - {genus: 0}\n"),
        ("unknown fields: [1, 'bogus']", "variety: {kind: quadric}\npolarization: [1, 1]\nbogus: 2\n1: x\n"),
        ("unknown variety fields: [2, 'm']", "variety: {kind: quadric, m: 1, 2: 1}\npolarization: [1, 1]\n"),
    ]
    for field, text in cases:
        p = write(tmp_path, "bad.yaml", text)
        for command in ("classify", "cohom"):
            assert field in (refused(capsys, command, str(p)) or ""), (text, command)
