"""Command-line front end.

Subcommands take a family letter and rank, with theta given either
inclusively (--theta) or by complement (--theta-complement); indices are
1-based on the command line.  Reports are emitted as text, JSON, or TSV with
identical numeric content.  Exit codes: 0 success, 1 internal cross-check
failure, 2 usage error or a job outside the computable range, 141 (128 +
SIGPIPE, as a shell reports for coreutils) without a message when the reader
closes stdout before the report is written.  The process entry, `run`, ends
the process with ``os._exit`` once `main` has returned and stdout and stderr
are flushed, so a job does not wait for the interpreter's teardown.  Under a
trace or profile hook it exits through ``sys.exit`` instead, so the hook's
own report at exit still runs: ``sys.settrace`` and ``sys.setprofile`` (pdb,
``trace``, coverage's tracer, cProfile up to Python 3.11) and, from Python
3.12 on, any ``sys.monitoring`` tool (cProfile, coverage's ``sysmon`` core).
The report builders read `weyl`, `coeffs` and `homology`, which the package
loads lazily, as modules when they run, so a job compiles only the modules
its command calls.

Every report is checked before anything is written, so a cross-check
failure prints nothing to stdout.  Rendering reads a top-level table one
row at a time; JSON is encoded one top-level value, and one such row, at a
time into the same bytes as ``json.dumps(report, sort_keys=True)``, and each
batch of encoded rows is joined into one piece, so a large report is held as
a few large pieces rather than a small string per row.  `report_coeffs`
hands `render` a lazy ``map`` over the walk of W^Theta, which builds, and so
checks, each pair's kappa report and then its row's dict as the row is
encoded; `render` returns the whole text, and `main` writes it to stdout in
fixed slices only then.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import __version__, coeffs, homology, weyl
from .rootsys import (
    DEFAULT_SIZE_CAP,
    POSITIVE_ROOT_COUNTS,
    GroupTooLargeError,
    HomologyGroup,
    Record,
    check_rank,
    h1_h2_closed_form,
    height,
    orientable_typeA,
    orientable_via_topcell,
    poincare_mod2,
    root_system,
)

SCHEMA_VERSION = "2"


class JobSpec(Record):
    """One CLI job; theta is 0-based internally."""

    __slots__ = ("command", "family", "rank", "theta", "max_degree", "ring", "output_format")

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "family": self.family,
            "rank": self.rank,
            "theta": sorted(i + 1 for i in self.theta),
            "max_degree": self.max_degree,
            "ring": self.ring,
            "format": self.output_format,
        }


def _parse_indices(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flaghom",
        description="Cellular homology of real split flag manifolds from Cartan data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("roots", "positive roots, heights and coroots"),
        ("weyl", "Weyl group elements and canonical words"),
        ("coeffs", "covering pairs with kappa and boundary coefficients"),
        ("homology", "boundary matrices and homology groups"),
        ("orientability", "orientability by the top cell, and in type A by parity too"),
        ("sweep", "tabulate H1/H2/orientability over all theta"),
    ]:
        p = sub.add_parser(name, help=helptext)
        # each subcommand takes only the options it reads; the job echoes
        # these defaults for the others (max_degree None is read as 3)
        p.set_defaults(theta=None, theta_complement=None, max_degree=None, ring="z")
        p.add_argument("family", choices=list("ABCDEFG"), type=str.upper)
        p.add_argument("rank", type=int)
        if name in ("weyl", "coeffs", "homology", "orientability"):
            group = p.add_mutually_exclusive_group()
            group.add_argument("--theta", type=_parse_indices,
                               help="1-based simple-root indices in Theta")
            group.add_argument("--theta-complement", type=_parse_indices,
                               help="1-based indices of the complement of Theta")
        if name in ("coeffs", "homology"):
            p.add_argument("--max-degree", type=int)
        if name == "homology":
            p.add_argument("--ring", choices=["z", "z2"])
        p.add_argument("--format", choices=["text", "json", "tsv"], default="text")
    return parser


def jobspec_from_args(args: argparse.Namespace) -> JobSpec:
    rank = args.rank
    check_rank(args.family, rank)
    given = args.theta_complement if args.theta is None else args.theta
    indices = frozenset(i - 1 for i in given or ())
    if not indices <= set(range(rank)):
        raise ValueError("theta indices must lie in [1, rank]")
    theta = indices if args.theta_complement is None else frozenset(range(rank)) - indices
    if args.max_degree is not None and args.ring == "z2":
        raise ValueError("--max-degree does not apply to --ring z2, which reports every degree")
    max_degree = 3 if args.max_degree is None else args.max_degree
    if max_degree < 0:
        raise ValueError("max-degree must be >= 0")
    # no cell lies above |Phi+|, and homology up to it reads one degree more
    top = POSITIVE_ROOT_COUNTS[args.family](rank) + 1
    if args.max_degree is not None and max_degree > top:
        raise ValueError(f"max-degree must be <= {top}, the number of positive roots + 1")
    if args.command == "homology" and args.ring == "z" and max_degree < 1:
        raise ValueError("homology needs --max-degree >= 1")
    return JobSpec(args.command, args.family, rank, theta, max_degree, args.ring.upper(),
                   args.format)


# -- report builders ------------------------------------------------------


def _word_out(word: tuple[int, ...]) -> list[int]:
    return [i + 1 for i in word]


def _group_out(h: HomologyGroup) -> dict:
    return {"free_rank": h.free_rank, "torsion": list(h.torsion)}


def _cell_out(job: JobSpec, w) -> dict:
    out = {"word": _word_out(w.word), "length": w.length}
    if job.family == "A":
        out["one_line"] = list(weyl.one_line(w.word, job.rank + 1))
    return out


def report_roots(job: JobSpec) -> dict:
    system = root_system(job.family, job.rank)
    return {
        "roots": [
            {
                "coeffs": list(r),
                "height": height(r),
                "coroot": list(system.coroot(r)),
                "coroot_height": system.coroot_height(r),
            }
            for r in system.positive_roots
        ],
    }


def report_weyl(job: JobSpec) -> dict:
    system = root_system(job.family, job.rank)
    reps = weyl.WeylGroup(system).minimal_representatives(job.theta)
    return {
        "order": sum(poincare_mod2(system, frozenset())),
        "cells": [_cell_out(job, w) for w in reps],
    }


def _pair_out(rep: coeffs.KappaReport) -> dict:
    pair = rep.pair
    return {
        "w": _word_out(pair.w.word),
        "w_prime": _word_out(pair.w_prime.word),
        "I": pair.deleted_index,
        "beta": list(pair.beta),
        "gamma": list(pair.gamma),
        "kappa": rep.kappa,
        "kappa_routes": {
            "height": rep.kappa_height,
            "sigma": rep.kappa_sigma,
            "phi": rep.kappa_phi,
            "typeA": rep.kappa_typeA,
        },
        "magnitude": rep.magnitude,
        "sign": rep.sign,
    }


def report_coeffs(job: JobSpec) -> dict:
    """Lazy rows: `render` walks W^Theta, and builds, and so checks, each
    pair's kappa report, as it encodes that pair's row."""
    group = weyl.WeylGroup(root_system(job.family, job.rank))
    reports = (coeffs.kappa_report(group, pair)
               for _, pairs in group.cells_with_covers(job.theta, job.max_degree)
               for pair in pairs)
    return {"covering_pairs": map(_pair_out, reports)}


def report_homology(job: JobSpec) -> dict:
    system = root_system(job.family, job.rank)
    if job.ring == "Z2":
        betti = poincare_mod2(system, job.theta)
        return {
            "mod2_betti": betti,
            "homology": [{"degree": k, "mod2_dim": b} for k, b in enumerate(betti)],
        }
    group = weyl.WeylGroup(system)
    complex_ = homology.build_complex(group, job.theta, job.max_degree)
    groups = homology.homology_groups(complex_, job.max_degree - 1)
    closed: dict[str, HomologyGroup] = {}
    if job.family == "A" and job.rank >= 2:
        h1, h2 = h1_h2_closed_form(job.rank + 1, job.theta)
        closed = {key: h for key, h in (("H1", h1), ("H2", h2)) if h is not None}
    for k, want in enumerate(closed.values(), start=1):
        if k < job.max_degree and groups[k] != want:
            got, want = _group_out(groups[k]), _group_out(want)
            raise AssertionError(f"H{k} mismatch: complex {got} vs closed form {want}")
    out = {
        "cells": [
            _cell_out(job, w) for k in sorted(complex_.cells) for w in complex_.cells[k]
        ],
        "matrices": {str(k): complex_.boundaries[k] for k in complex_.boundaries},
        "homology": [{"degree": k, **_group_out(h)} for k, h in enumerate(groups)],
    }
    if job.family == "A":
        out["closed_form"] = {key: _group_out(h) for key, h in closed.items()}
    return out


def _orientable_typeA_checked(n: int, theta: frozenset[int], top_cell: bool) -> bool:
    """The type A parity criterion, which must agree with the top-cell route."""
    criterion = orientable_typeA(n, theta)
    if criterion != top_cell:
        raise AssertionError(
            f"orientability criteria disagree for theta={_word_out(sorted(theta))}"
        )
    return criterion


def report_orientability(job: JobSpec) -> dict:
    top_cell = orientable_via_topcell(root_system(job.family, job.rank), job.theta)
    orientable: dict = {"top_cell": top_cell}
    if job.family == "A":
        criterion = _orientable_typeA_checked(job.rank + 1, job.theta, top_cell)
        orientable.update({"criterion": criterion, "agree": True})
    return {"orientable": orientable}


def report_sweep(job: JobSpec) -> dict:
    if 2**job.rank > DEFAULT_SIZE_CAP:
        raise GroupTooLargeError(
            f"sweep too large: 2^{job.rank} = {2**job.rank} theta rows, "
            f"more than {DEFAULT_SIZE_CAP}"
        )
    system = root_system(job.family, job.rank)
    n = job.rank + 1
    rows = []
    for size in range(job.rank + 1):
        for theta_tuple in itertools.combinations(range(job.rank), size):
            theta = frozenset(theta_tuple)
            row: dict = {
                "theta": sorted(i + 1 for i in theta),
                "orientable": orientable_via_topcell(system, theta),
            }
            if job.family == "A":
                _orientable_typeA_checked(n, theta, row["orientable"])
                if n >= 3:
                    h1, h2 = h1_h2_closed_form(n, theta)
                    row["h1_torsion_rank"] = len(h1.torsion)
                    if h2 is not None:
                        row["h2_torsion_rank"] = len(h2.torsion)
            else:
                row["mod2_betti"] = poincare_mod2(system, theta)
            rows.append(row)
    return {"sweep": rows}


REPORTERS = {
    "roots": report_roots,
    "weyl": report_weyl,
    "coeffs": report_coeffs,
    "homology": report_homology,
    "orientability": report_orientability,
    "sweep": report_sweep,
}


# -- rendering ------------------------------------------------------------


# a top-level list of rows, or the lazy rows of `report_coeffs`
_TABLE = (list, map)

_JSON = json.JSONEncoder(sort_keys=True)
_SLICE = 1 << 16  # characters of a report written, and so encoded, at a time
# rows of a table joined into one piece: a string per row costs an object
# header each, while encoding a batch as one list makes a token per value
_BATCH = 16


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "?"
    if isinstance(value, _TABLE):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={_fmt(v)}" for k, v in value.items())
    return str(value)


def _render_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True)``, encoded one top-level value,
    and one row of a top-level table, at a time; each batch of up to
    ``_BATCH`` encoded rows is joined into one piece at once."""
    pieces = ["{"]
    for key in sorted(report):
        if len(pieces) > 1:
            pieces.append(", ")
        pieces += [_JSON.encode(key), ": "]
        value = report[key]
        if not isinstance(value, _TABLE):
            pieces.append(_JSON.encode(value))
            continue
        pieces.append("[")
        rows = iter(value)
        while batch := ", ".join(map(_JSON.encode, itertools.islice(rows, _BATCH))):
            if pieces[-1] != "[":
                pieces.append(", ")
            pieces.append(batch)
        pieces.append("]")
    pieces.append("}")
    return "".join(pieces)


def render(report: dict, output_format: str) -> str:
    if output_format == "json":
        return _render_json(report)
    sep = "\t" if output_format == "tsv" else "  "
    lines: list[str] = []
    for key, value in report.items():
        if key in ("schema_version", "job"):
            continue
        rows = iter(value if isinstance(value, _TABLE) else ())
        first = next(rows, None)
        if isinstance(first, dict):
            headers = list(first)
            lines += [f"# {key}", sep.join(headers)]
            for row in itertools.chain([first], rows):
                lines.append(sep.join(_fmt(row.get(h)) for h in headers))
        elif isinstance(value, dict) and key == "matrices":
            lines.append("# matrices")
            for k in sorted(value, key=int):
                lines.append(f"d_{k}")
                for row in value[k]:
                    lines.append(sep.join(str(x) for x in row))
        else:
            lines.append(f"{key}{sep}{_fmt(value)}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        job = jobspec_from_args(args)
    except ValueError as exc:
        parser.exit(2, f"flaghom: error: {exc}\n")
    try:  # a lazy report is walked, and checked, as it is rendered
        body = REPORTERS[job.command](job)
        report = {"schema_version": SCHEMA_VERSION, "job": job.as_dict(), **body}
        text = render(report, job.output_format)
    except (GroupTooLargeError, homology.SignIndeterminateError) as exc:
        parser.exit(2, f"flaghom: error: {exc}\n")
    except AssertionError as exc:
        print(f"flaghom: cross-check failure: {exc}", file=sys.stderr)
        return 1
    try:
        sys.stdout.writelines(text[i : i + _SLICE] for i in range(0, len(text), _SLICE))
        print(flush=True)
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


def run():
    """The process entry: `main`, then flush stdout and stderr and end with
    ``os._exit``, skipping the interpreter's teardown; under a trace, profile
    or ``sys.monitoring`` hook, ``sys.exit``.  A ``SystemExit`` raised in
    `main` (usage errors, ``--help``, ``--version``) propagates."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 on
    if sys.gettrace() or sys.getprofile() or monitoring and any(map(monitoring.get_tool, range(6))):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
