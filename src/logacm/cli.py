"""Batch interface: parse problem documents, run cohomology, classification,
search, deficiency and ledger commands, emit deterministic tables.

A problem is one declarative YAML document (key-value with nested lists),
read by a strict reader of the YAML subset problem documents use; unknown
fields are rejected.  A document's text is parsed once per session: the
session memo keeps its frozen spec.  Every command takes the same flags,
before or after the problem; a given --window, --cap or --format overrides
the document's window:, cap: or format: on a copy of that spec.  Exit
codes: 0 for success/Yes, 1 for a No verdict, 3 for Unknown, 2 for parse
errors.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import __version__
from .catalog import KINDS
from .classify import (
    deficiency_table,
    is_acm,
    is_tacm,
    one_degree_buchsbaum,
    search,
)
from .errors import EngineError, InputError, IntervalPresent, WindowNotFound
from .exactseq import LineE, check_cap, default_evaluator
from .intervals import pad_vec
from .logbundles import check_side, cotangent_tangent_pair, ledger_checks, log_pair
from .varieties import Arrangement, VarietyModel, arrangement, component_from_class, component_from_degree, vscale

_VARIETY_KEYS = {"kind"} | {k.key for k in KINDS if k.key}
_ARR_KEYS = {"components", "span_rank", "snc"}
_SHEAVES = ("line", "cotangent", "tangent", "log_cotangent", "log_tangent")
_LOG_SIDES = {"log_cotangent": "cot", "log_tangent": "tan"}
_FORMATS = ("csv", "md")


@dataclass(frozen=True)
class ProblemSpec:
    """One problem document's fields.  Frozen: ``load_problem`` hands every
    caller in a session the same spec, and a flag makes a copy
    (``dataclasses.replace``).  The nested dicts and lists are the reader's
    values, which no command changes."""

    variety: dict = field(default_factory=dict)
    polarization: list | int | None = None
    arrangement: dict | None = None
    sheaf: str | None = None
    line_class: list | int | None = None
    window: list = field(default_factory=lambda: [-4, 4])
    cap: int = 8
    degree: int = 1
    side: str = "cot"
    class_bound: int = 4
    m_bound: int = 6
    ledger: str | None = None
    format: str = "md"

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemSpec":
        if not isinstance(data, dict):
            raise InputError("problem document must be a mapping")
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise InputError(f"unknown fields: {sorted(unknown, key=str)}")
        if "variety" not in data and "ledger" not in data:
            raise InputError("a problem document needs a variety (or a ledger name)")
        var = data.get("variety", {})
        if not isinstance(var, dict):
            raise InputError(f"variety must be a mapping, got {var!r}")
        bad = set(var) - _VARIETY_KEYS
        if bad:
            raise InputError(f"unknown variety fields: {sorted(bad, key=str)}")
        arr = data.get("arrangement")
        if arr is not None:
            if not isinstance(arr, dict):
                raise InputError(f"arrangement must be a mapping, got {arr!r}")
            bad = set(arr) - _ARR_KEYS
            if bad:
                raise InputError(f"unknown arrangement fields: {sorted(bad, key=str)}")
        sheaf = data.get("sheaf")
        if sheaf is not None and sheaf not in _SHEAVES:
            raise InputError(f"sheaf must be one of {_SHEAVES}")
        if data.get("format") not in (None, *_FORMATS):
            raise InputError(f"format must be one of {_FORMATS}")
        check_side(data.get("side", "cot"))
        check_cap(data.get("cap", 8))
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)


_SPEC_KEYS = frozenset(f.name for f in fields(ProblemSpec))


def _integer(value, name: str) -> int:
    """value, if it is an int (not a bool, float or str); name is the field
    it was read from."""
    if type(value) is not int:
        raise InputError(f"{name} must be an integer, got {value!r}")
    return value


def build_variety(spec: ProblemSpec) -> VarietyModel:
    var = spec.variety
    kind = var.get("kind")
    record = next((k for k in KINDS if k.name == kind), None)
    if record is None:
        raise InputError(f"unknown variety kind {kind!r}")
    key = record.key
    extra = set(var) - {"kind", key}
    if extra:
        raise InputError(f"variety fields {sorted(extra)} do not apply to kind {kind}")
    if key is None:
        return record.make()
    if key not in var:
        raise InputError(f"variety kind {kind} needs the field {key}")
    return record.make(_integer(var[key], key))


def _as_class(x: VarietyModel, raw, name: str = "class") -> tuple:
    if not isinstance(raw, (list, tuple)):
        raw = [raw]
    return x.check_class(tuple(_integer(v, name) for v in raw))


def build_arrangement(x: VarietyModel, spec: ProblemSpec) -> Arrangement:
    raw = spec.arrangement
    if raw is None:
        return arrangement(x, [])
    comps = []
    entries = raw.get("components", [])
    if not isinstance(entries, list):
        raise InputError(f"components must be a list, got {entries!r}")
    for entry in entries:
        if isinstance(entry, dict):
            bad = set(entry) - {"degree", "genus", "class"}
            if bad:
                raise InputError(f"unknown component fields: {sorted(bad, key=str)}")
            if "class" in entry:
                if "degree" in entry or "genus" in entry:
                    raise InputError("a component takes a class, or a degree and genus, not both")
                comps.append(component_from_class(x, _as_class(x, entry["class"], "component class")))
            elif "degree" not in entry:
                raise InputError(f"a component needs a degree or a class, got {entry!r}")
            else:
                degree = _integer(entry["degree"], "component degree")
                genus = _integer(entry.get("genus", 0), "component genus")
                comps.append(component_from_degree(x, degree, genus))
        else:
            comps.append(component_from_class(x, _as_class(x, entry, "component class")))
    span_rank = raw.get("span_rank")
    if span_rank is not None:
        span_rank = _integer(span_rank, "span_rank")
    snc = raw.get("snc", True)
    if type(snc) is not bool:
        raise InputError(f"snc must be true or false, got {snc!r}")
    return arrangement(x, comps, span_rank=span_rank, snc=snc)


# -- problem documents ----------------------------------------------------------
#
# The reader accepts the YAML subset below and gives, for every document it
# accepts, the value PyYAML's SafeLoader gives (YAML 1.1 types); it refuses
# every other document rather than read it another way:
#   * blank lines, comment lines and trailing " #" comments;
#   * block mappings and block sequences ("- item"), nested by space
#     indentation; a sequence may sit at its key's indentation;
#   * flow sequences and flow mappings on one line, nested;
#   * plain scalars of [A-Za-z0-9_.+~-] and spaces: decimal ints, d.d floats,
#     the YAML 1.1 booleans, ~ and null (and an empty block value) as null;
#     any other plain scalar is a string and must start with a letter or _;
#   * '...' and "..." on one line, without escapes, as strings.

_PLAIN = r"[A-Za-z0-9_.+~-]"
# one token per match, in group 1: a plain scalar, a quoted scalar, a flow
# indicator or a colon followed by a space; spacing and a comment after it
# match with an empty group
_TOKEN = re.compile(rf""" +(?:#.*)?|({_PLAIN}+(?: +{_PLAIN}+)*|'[^']*'(?!')|"[^"\\]*"|[][{{}},]|:(?= |$))""")
_TOKENS = re.compile(f"(?:{_TOKEN.pattern})*")  # matches up to the first text that is no token
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
_FLOAT = re.compile(r"[-+]?[0-9]+\.[0-9]+")
_WORDS = {
    "~": None,
    **dict.fromkeys(("null", "Null", "NULL"), None),
    **dict.fromkeys(("true", "True", "TRUE", "yes", "Yes", "YES", "on", "On", "ON"), True),
    **dict.fromkeys(("false", "False", "FALSE", "no", "No", "NO", "off", "Off", "OFF"), False),
}
_END = "\n"  # ends every line's tokens; no token contains a newline


def _refuse(lineno: int, what: str) -> InputError:
    return InputError(f"line {lineno}: {what}")


def _scalar(token: str, lineno: int):
    """The value of a plain or quoted scalar token."""
    first = token[0]
    if first in "'\"":
        return token[1:-1]
    if token in _WORDS:
        return _WORDS[token]
    if first.isalpha() or first == "_":
        return token
    if _INT.fullmatch(token):
        return int(token)
    if _FLOAT.fullmatch(token):
        return float(token)
    raise _refuse(lineno, f"{token!r} is no decimal int, no d.d float and no string starting with a letter")


def _tokens(text: str, lineno: int) -> list[str]:
    """The tokens of one line's text up to its comment, then _END."""
    stop = _TOKENS.match(text).end()
    if stop < len(text):
        raise _refuse(lineno, f"{text[stop:]!r} is outside the problem-document grammar")
    toks = [t for t in _TOKEN.findall(text) if t]
    toks.append(_END)
    return toks


def _key(toks: list[str], i: int, lineno: int):
    """The scalar key at toks[i] and the index after its colon."""
    if toks[i][0] in "[]{},:\n":
        raise _refuse(lineno, "expected a scalar key")
    if toks[i + 1] != ":":
        raise _refuse(lineno, f"expected ': ' after the key {toks[i]!r}")
    return _scalar(toks[i], lineno), i + 2


def _flow(toks: list[str], i: int, lineno: int):
    """The flow node at toks[i] and the index after it."""
    tok = toks[i]
    if tok == "[":
        items = []
        if toks[i + 1] == "]":
            return items, i + 2
        while True:
            item, i = _flow(toks, i + 1, lineno)
            items.append(item)
            if toks[i] == "]":
                return items, i + 1
            if toks[i] != ",":
                raise _refuse(lineno, "expected ',' or ']' in a flow sequence")
    if tok == "{":
        out = {}
        if toks[i + 1] == "}":
            return out, i + 2
        while True:
            key, i = _key(toks, i + 1, lineno)
            if key in out:
                raise _refuse(lineno, f"duplicate key {key!r}")
            out[key], i = _flow(toks, i, lineno)
            if toks[i] == "}":
                return out, i + 1
            if toks[i] != ",":
                raise _refuse(lineno, "expected ',' or '}' in a flow mapping")
    if tok[0] in "]},:\n":
        raise _refuse(lineno, "expected a value")
    return _scalar(tok, lineno), i + 1


def _block(lines: list, i: int):
    """The block node whose first line is lines[i], and the index after it.

    A line is (indent, whether it is a "- " entry, tokens, line number).  A
    node takes the lines of its own indentation and kind; its caller reads
    on from the first line it does not take."""
    indent, is_seq = lines[i][0], lines[i][1]
    node = [] if is_seq else {}
    while i < len(lines) and lines[i][0] == indent and lines[i][1] == is_seq:
        _, _, toks, lineno = lines[i]
        if is_seq:
            j = 0
        else:
            key, j = _key(toks, 0, lineno)
            if key in node:
                raise _refuse(lineno, f"duplicate key {key!r}")
        i += 1
        if toks[j] != _END:
            value, j = _flow(toks, j, lineno)
            if toks[j] != _END:
                raise _refuse(lineno, "unexpected text after a value")
        elif i < len(lines) and (lines[i][0] > indent or (lines[i][0] == indent and lines[i][1] and not is_seq)):
            value, i = _block(lines, i)  # nested, or a sequence at its key's indentation
        else:
            value = None
        if is_seq:
            node.append(value)
        else:
            node[key] = value
    return node, i


def read_document(text: str):
    """The value of a problem document, as PyYAML's SafeLoader reads it;
    None for a document of blank and comment lines.  Raises InputError on
    a document outside the grammar above."""
    lines = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        if not raw.isprintable():
            raise _refuse(lineno, "a tab or another unprintable character")
        body = raw.lstrip(" ")
        if not body or body[0] == "#":
            continue
        entry = body[0] == "-" and body[1:2] in ("", " ")
        lines.append((len(raw) - len(body), entry, _tokens(body[1:] if entry else body, lineno), lineno))
    if not lines:
        return None
    try:
        value, i = _block(lines, 0)
    except RecursionError:
        raise InputError("nested too deeply") from None
    if i < len(lines):
        raise _refuse(lines[i][3], "indentation does not continue the node above")
    return value


def load_problem(path: Path) -> ProblemSpec:
    """The spec of the document at path.  The file is read on every call,
    and its text parsed once per session: the default evaluator's memo
    keeps the spec under ("document", text), so two paths with one text
    share one spec.  A refused document keeps nothing."""
    text = path.read_text()
    return default_evaluator().remember(("document", text), _parse, path, text)


def _parse(path: Path, text: str) -> ProblemSpec:
    try:
        data = read_document(text)
    except InputError as exc:
        raise InputError(f"{path}: bad YAML ({exc})")
    return ProblemSpec.from_dict(data or {})


# -- table rendering ----------------------------------------------------------


def render_table(header: list[str], rows: list[list[str]], fmt: str, out):
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)
        return
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h)) for i, h in enumerate(header)]
    out.write("  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


def _banner(out, args):
    if not args.no_header:
        out.write(f"# logacm {__version__}\n")


# -- subcommands ---------------------------------------------------------------


def _variety_and_polarization(spec: ProblemSpec, command: str):
    x = build_variety(spec)
    if spec.polarization is None:
        raise InputError(f"{command} needs a polarization")
    return x, x.check_ample(_as_class(x, spec.polarization, "polarization"))


def _sheaf_expr(x: VarietyModel, arr: Arrangement, spec: ProblemSpec):
    name = spec.sheaf or "log_cotangent"
    if name == "line":
        if spec.line_class is None:
            raise InputError("sheaf 'line' needs line_class")
        return LineE(x, _as_class(x, spec.line_class, "line_class"))
    if name == "cotangent":
        return cotangent_tangent_pair(x)[0]
    if name == "tangent":
        return cotangent_tangent_pair(x)[1]
    return log_pair(x, arr).for_side(_LOG_SIDES[name])


def _twist_rows(x: VarietyModel, expr, h, spec: ProblemSpec):
    """(t, padded cohomology vector of expr(tH)) over the window."""
    if not isinstance(spec.window, list) or len(spec.window) != 2:
        raise InputError(f"window must be [lo, hi], got {spec.window!r}")
    lo, hi = (_integer(t, "window") for t in spec.window)
    if lo > hi:
        raise InputError(f"window [{lo}, {hi}] is reversed: lo must not exceed hi")
    ev = default_evaluator()
    return [(t, pad_vec(ev.cohom(expr, vscale(t, h)), x.dim + 1)) for t in range(lo, hi + 1)]


def cmd_cohom(spec: ProblemSpec, out) -> int:
    x, h = _variety_and_polarization(spec, "cohom")
    expr = _sheaf_expr(x, build_arrangement(x, spec), spec)
    rows = [[str(t)] + [str(c) for c in v] for t, v in _twist_rows(x, expr, h, spec)]
    render_table(["t"] + [f"h{i}" for i in range(x.dim + 1)], rows, spec.format, out)
    return 0


def classify_one(spec: ProblemSpec):
    x, h = _variety_and_polarization(spec, "classify")
    fn = is_tacm if spec.side == "tan" else is_acm
    return fn(x, h, build_arrangement(x, spec), cap=spec.cap)


def cmd_classify(spec: ProblemSpec, out) -> int:
    verdict = classify_one(spec)
    out.write(f"verdict: {verdict.status}\n")
    if verdict.witness is not None:
        i, t, val = verdict.witness
        out.write(f"witness: h^{i} at t={t} is {val}\n")
    else:
        out.write("witness: -\n")
    for c in verdict.certificates:
        out.write(f"certificate: {c}\n")
    return {"Yes": 0, "No": 1, "Unknown": 3}[verdict.status]


def cmd_search(spec: ProblemSpec, out) -> int:
    x, h = _variety_and_polarization(spec, "search")
    bounds = _integer(spec.class_bound, "class_bound"), _integer(spec.m_bound, "m_bound")
    results = search(x, h, *bounds, side=spec.side, cap=spec.cap)
    rows = []
    for combo, verdict, first_rule in results:
        rows.append(["+".join(str(list(c)) for c in combo), verdict.status, first_rule or "-"])
    render_table(["arrangement", "verdict", "first_failing_rule"], rows, spec.format, out)
    return 0


def cmd_deficiency(spec: ProblemSpec, out) -> int:
    x, h = _variety_and_polarization(spec, "deficiency")
    arr = build_arrangement(x, spec)
    try:
        table = deficiency_table(x, h, arr, _integer(spec.degree, "degree"), cap=spec.cap, side=spec.side)
    except WindowNotFound as exc:
        # fall back to an uncertified scan over the requested window
        out.write(f"window: not certified ({exc}); scanning without tail certificates\n")
        expr = log_pair(x, arr).for_side(spec.side)
        rows = [[str(t), str(v[spec.degree])] for t, v in _twist_rows(x, expr, h, spec)]
        render_table(["t", f"h{spec.degree}"], rows, spec.format, out)
        return 0
    rows = [[str(t), str(v)] for t, v in sorted(table.entries.items())]
    render_table(["t", f"h{spec.degree}"], rows, spec.format, out)
    try:
        if one_degree_buchsbaum(table):
            out.write("certificate: 1-Buchsbaum (one-degree rule)\n")
    except IntervalPresent:
        out.write("certificate: none (inexact entries)\n")
    return 0


def cmd_ledger(spec: ProblemSpec, out) -> int:
    name = spec.ledger
    if name is None:
        raise InputError("ledger command needs a ledger name")
    kwargs = {}
    if name == "thm_pn_reduction":
        kwargs = {"n": _integer(spec.variety.get("n", 3), "n"), "d": _integer(spec.variety.get("degree", 2), "degree")}
    report = ledger_checks(name, **kwargs)
    out.write(f"chain: {report.name}\n")
    for line in report.lines:
        out.write(f"  {line}\n")
    out.write(f"values: {report.values}\n")
    out.write(f"contradiction: {'yes' if report.contradiction else 'no'}\n")
    return 0


# what a malformed document, a missing file or an unsupported problem raises
_USER_ERRORS = (EngineError, OSError, KeyError, TypeError, ValueError)


def _flagged(path: Path, flags: dict) -> ProblemSpec:
    """The document's spec with the given flags' fields: a copy when a flag
    was given, else the kept spec itself."""
    spec = load_problem(path)
    return replace(spec, **flags) if flags else spec


def _classify_file(path: Path, flags: dict):
    try:
        verdict = classify_one(_flagged(path, flags))
    except _USER_ERRORS as exc:
        return [path.name, "Error", "", str(exc)]
    wit = ""
    if verdict.witness is not None:
        i, t, val = verdict.witness
        wit = f"h^{i}@t={t}:{val}"
    first = verdict.certificates[0] if verdict.certificates else ""
    return [path.name, verdict.status, wit, first]


def cmd_classify_dir(directory: Path, flags: dict, out) -> int:
    files = sorted(p for p in directory.iterdir() if p.suffix in (".yaml", ".yml"))
    rows = [_classify_file(p, flags) for p in files]
    render_table(["file", "verdict", "witness", "first_certificate"], rows, "csv", out)
    return 0


COMMANDS = {
    "cohom": cmd_cohom,
    "classify": cmd_classify,
    "search": cmd_search,
    "deficiency": cmd_deficiency,
    "ledger": cmd_ledger,
}


def _cap_arg(text: str) -> int:
    cap = int(text)
    if cap < 0:
        raise argparse.ArgumentTypeError(f"cap must be a non-negative integer, got {cap}")
    return cap


# built once; parse_args reads it and never changes it
_PARSER = argparse.ArgumentParser(prog="logacm", description=__doc__)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("problem", help="problem document (YAML); for classify, a directory runs a suite")
_PARSER.add_argument("--window", type=int, nargs=2, default=None, metavar=("LO", "HI"))
_PARSER.add_argument("--cap", type=_cap_arg, default=None)
_PARSER.add_argument("--format", choices=_FORMATS, default=None)
_PARSER.add_argument("--no-header", action="store_true")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # the flags that were given, as ProblemSpec fields: each overrides the document
    flags = {k: v for k in ("window", "cap", "format") if (v := getattr(args, k)) is not None}
    out = sys.stdout
    path = Path(args.problem)
    try:
        if args.command == "classify" and path.is_dir():
            _banner(out, args)
            return cmd_classify_dir(path, flags, out)
        spec = _flagged(path, flags)
        _banner(out, args)
        return COMMANDS[args.command](spec, out)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
