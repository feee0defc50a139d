"""Command-line front end.

Subcommands: ``invariants``, ``enumerate``, ``classify``, ``report``,
``tikz``.  Artifacts are JSON-lines files with a ``type`` field per record so
a later ``report`` can be regenerated from persisted runs alone.

Exit codes: 0 success, 1 error, 2 conjecture violation found, 3 budget
exhausted with partial artifacts (a resume token is written).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, TextIO

from .alexander import alexander
from .enumeration import (
    Budget,
    BudgetExceeded,
    ClassifyRun,
    KnotClass,
    classify,
    count_table,
    enumerate_projections,
    fold_kauffman,
)
from .homfly import BudgetError, homfly
from .jones import jones_triple
from .kauffman import kauffman_f
from .laurent import IntLaurent, breadth, is_monic
from .maps import DiagramError, TripleDiagram, TripleProjection
from .spd import parse_spd, serialize_spd
from .tables import conjecture_report, emit_table, emit_tikz, reference_rows
from .tangle import convert_to_double

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_PARTIAL = 3


def _budget(args: argparse.Namespace) -> Optional[Budget]:
    """The budget of ``enumerate`` and ``classify``, once their ``--n``,
    ``--budget-secs`` and ``--max-nodes`` are checked."""
    if not 1 <= args.n <= 6:
        raise DiagramError(f"--n must be within 1..6, got {args.n}")
    if args.budget_secs is not None and args.budget_secs <= 0:
        raise DiagramError("--budget-secs must be positive")
    if args.max_nodes is not None and args.max_nodes <= 0:
        raise DiagramError("--max-nodes must be positive")
    if args.budget_secs is None and args.max_nodes is None:
        return None
    return Budget(wall_secs=args.budget_secs, max_nodes=args.max_nodes)


def _open_out(path: Optional[str]) -> TextIO:
    if path in (None, "-"):
        return sys.stdout
    return open(path, "w")


def _emit(out: TextIO, text: str) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")
    if out is not sys.stdout:
        out.close()


def _error(message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return EXIT_ERROR


def cmd_invariants(args: argparse.Namespace) -> int:
    with open(args.spd_file) as f:
        text = f.read()
    obj = parse_spd(text)
    if not isinstance(obj, TripleDiagram):
        return _error("input is a bare projection; invariants need heights")
    v = jones_triple(obj)
    dd = convert_to_double(obj)
    # off the deconstruction, not the triple walk the census reads, so a
    # class key re-derived here checks the census's Alexander independently
    a = alexander(dd)
    record = {
        "jones": str(v),
        "alexander": str(a),
        "breadth": breadth(a),
        "monic": is_monic(a),
    }
    try:
        record["homfly"] = str(homfly(dd))
    except BudgetError:
        record["homfly"] = None
    try:
        record["kauffman"] = fold_kauffman(kauffman_f(dd))
    except BudgetError:
        record["kauffman"] = None
    _emit(_open_out(args.out), json.dumps(record))
    return EXIT_OK


def _read_resume(path: str) -> Optional[str]:
    """The token of an earlier budget stop; None for an empty file."""
    with open(path) as f:
        return f.read().strip() or None


def cmd_enumerate(args: argparse.Namespace) -> int:
    budget = _budget(args)
    resume_token = _read_resume(args.resume) if args.resume else None
    try:
        projections = enumerate_projections(args.n, args.fold_mirror, budget, resume_token)
    except BudgetExceeded as exc:
        out = _open_out(args.out)
        lines = [
            json.dumps({"type": "projection", "n": args.n, "partial": True,
                        "spd": serialize_spd(TripleProjection(code, args.n))})
            for code in json.loads(exc.resume_token)["partial"]
        ]
        lines.append(json.dumps({"type": "resume", "n": args.n,
                                 "token": exc.resume_token}))
        _emit(out, "\n".join(lines))
        if args.resume:
            with open(args.resume, "w") as f:
                f.write(exc.resume_token)
        return EXIT_PARTIAL
    out = _open_out(args.out)
    lines = [
        json.dumps({"type": "projection", "n": args.n, "spd": serialize_spd(p)})
        for p in projections
    ]
    lines.append(json.dumps({"type": "count", "n": args.n,
                             "projections": len(projections)}))
    _emit(out, "\n".join(lines))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    budget = _budget(args)
    try:
        run = classify(args.n, budget)
    except BudgetExceeded as exc:
        lines = _run_records(exc.run) + [json.dumps(
            {"type": "resume", "n": exc.n, "stage": exc.stage, "token": exc.resume_token})]
        _emit(_open_out(args.out), "\n".join(lines))
        return EXIT_PARTIAL
    _emit(_open_out(args.out), "\n".join(_run_records(run)))
    return EXIT_OK


def _run_records(run: ClassifyRun) -> List[str]:
    lines = []
    for n, projections, knots in count_table(run):
        lines.append(json.dumps({"type": "row", "n": n,
                                 "projections": projections, "knots": knots}))
    for kc in sorted(run.classes.values(), key=lambda k: (k.c3, k.jones_folded)):
        lines.append(json.dumps({
            "type": "class",
            "c3": kc.c3,
            "jones": kc.jones_folded,
            "alexander": kc.alexander,
            "kauffman": kc.kauffman_folded,
            "witness": kc.witness_spd,
            "composite": kc.composite,
        }))
    return lines


# The fields ``report`` reads from each record type, with their JSON types;
# a field's type must be exactly this one, so a boolean is not an int.
_RECORD_FIELDS = {
    "row": {"n": int, "projections": int, "knots": int},
    "class": {"c3": int, "jones": str, "alexander": str, "kauffman": str,
              "witness": str, "composite": bool},
}


def _read_run(path: str) -> tuple[List[dict], List[KnotClass]]:
    """Row and class records of a ``classify`` run; a record that lacks a
    field the report reads, or whose Alexander polynomial does not parse, is
    refused with its line number."""
    rows: List[dict] = []
    classes: List[KnotClass] = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            where = f"{path}, line {number}"
            if not isinstance(rec, dict):
                raise DiagramError(f"{where}: not a JSON object")
            kind = rec.get("type")
            bad = [k for k, t in _RECORD_FIELDS.get(kind, {}).items()
                   if type(rec.get(k)) is not t]
            if bad:
                raise DiagramError(f"{where}: {kind} record has no valid {', '.join(bad)}")
            if kind == "row":
                rows.append(rec)
            elif kind == "class":
                try:
                    breadth(IntLaurent.parse(rec["alexander"]))
                except ValueError as exc:
                    raise DiagramError(f"{where}: alexander: {exc}") from None
                classes.append(KnotClass(
                    jones_folded=rec["jones"],
                    alexander=rec["alexander"],
                    kauffman_folded=rec["kauffman"],
                    c3=rec["c3"],
                    witness_spd=rec["witness"],
                    composite=rec["composite"],
                ))
    return rows, classes


def cmd_report(args: argparse.Namespace) -> int:
    """The report of a run file; with none, of an empty run."""
    refs = reference_rows()
    rows, classes = _read_run(args.run_file) if args.run_file is not None else ([], [])
    report = conjecture_report(classes, refs)
    if args.fmt == "json":
        payload = {
            "rows": [
                {"n": r["n"], "projections": r["projections"], "knots": r["knots"]}
                for r in sorted(rows, key=lambda r: r["n"])
            ],
            "conjecture": json.loads(report.to_json()),
        }
        _emit(_open_out(args.out), json.dumps(payload))
    else:
        _emit(_open_out(args.out), emit_table(classes, refs, args.fmt))
    return EXIT_VIOLATION if report.violated else EXIT_OK


def cmd_tikz(args: argparse.Namespace) -> int:
    with open(args.spd_file) as f:
        obj = parse_spd(f.read())
    if not isinstance(obj, TripleDiagram):
        return _error("tikz needs a diagram (heights), not a bare projection")
    _emit(_open_out(args.out), emit_tikz(obj))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricross",
        description="Triple-crossing knot diagrams: invariants, enumeration, "
        "classification, and reporting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def budgeted(p: argparse.ArgumentParser) -> None:
        # the options that _budget checks
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--budget-secs", type=float, default=None)
        p.add_argument("--max-nodes", type=int, default=None)

    p_inv = sub.add_parser("invariants", help="invariants of one sPD diagram")
    p_inv.set_defaults(run=cmd_invariants)
    p_inv.add_argument("spd_file")
    common(p_inv)

    p_enum = sub.add_parser("enumerate", help="enumerate projections")
    p_enum.set_defaults(run=cmd_enumerate)
    budgeted(p_enum)
    p_enum.add_argument("--fold-mirror", dest="fold_mirror",
                        action=argparse.BooleanOptionalAction, default=True)
    p_enum.add_argument("--resume", default=None,
                        help="resume token file; read to resume, rewritten on budget stop")
    common(p_enum)

    p_cls = sub.add_parser("classify", help="classify knots for n=2..N")
    p_cls.set_defaults(run=cmd_classify)
    budgeted(p_cls)
    common(p_cls)

    p_rep = sub.add_parser("report", help="count table and conjecture report")
    p_rep.set_defaults(run=cmd_report)
    p_rep.add_argument("run_file", nargs="?", default=None,
                       help="JSONL artifact from classify")
    p_rep.add_argument("--format", dest="fmt", default="json",
                       choices=["json", "csv", "latex"])
    common(p_rep)

    p_tikz = sub.add_parser("tikz", help="TikZ picture of one sPD diagram")
    p_tikz.set_defaults(run=cmd_tikz)
    p_tikz.add_argument("spd_file")
    common(p_tikz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (DiagramError, OSError, json.JSONDecodeError) as exc:
        return _error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
