"""Command-line front end.

Exit codes: 0 success, 1 internal cross-check failure, 2 usage error or a job
outside the computable range, 141 (128 + SIGPIPE) without a message when the
reader closes stdout first.  Every report is checked before its first byte is
written.  The `report_*` functions read `weyl`, `coeffs` and `homology`,
which the package loads lazily, as modules when they run, so a job compiles
only the modules its command calls.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

from . import __version__, coeffs, homology, weyl
from .rootsys import (
    POSITIVE_ROOT_COUNTS,
    GroupTooLargeError,
    HomologyGroup,
    Record,
    SignIndeterminateError,
    check_rank,
    check_size,
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


_THETA = ("--theta", "--theta-complement")

#: each command's help line and the options it reads besides --format
COMMANDS = {
    "roots": ("positive roots, heights and coroots", ()),
    "weyl": ("Weyl group elements and canonical words", _THETA),
    "coeffs": ("covering pairs with kappa and boundary coefficients", (*_THETA, "--max-degree")),
    "homology": ("boundary matrices and homology groups", (*_THETA, "--max-degree", "--ring")),
    "orientability": ("orientability by the top cell, and in type A by parity too", _THETA),
    "sweep": ("tabulate H1/H2/orientability over all theta", ()),
}

_CHOICES = {"--ring": ("z", "z2"), "--format": ("text", "json", "tsv")}  # default first

USAGE = """usage: flaghom COMMAND FAMILY RANK [--opt VALUE | --opt=VALUE ...] | flaghom --version

FAMILY is A-G, RANK an integer.  Options come in any order after the command,
by name or a unique prefix of it; a repeated option keeps its last value.
  --format text|json|tsv      the report's format, for every command
  --theta I,J,...             1-based simple-root indices in Theta, or
  --theta-complement I,J,...  those of its complement (default: Theta empty)
  --max-degree N              the highest degree computed (default 3)
  --ring z|z2                 integral or mod-2 homology
commands, and the options each reads besides --format:"""


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, not {text!r}") from None


def _is_option(arg: str) -> bool:
    return arg[:1] == "-" and not arg[1:].isdigit()  # -1 is a value


def parse_job(argv: list[str]) -> JobSpec:
    """The job that ``COMMAND FAMILY RANK [OPTION ...]`` asks for, checked in
    the same pass.  ``-h`` or ``--help`` anywhere prints `USAGE`, and
    ``--version`` before the command the version; both exit 0.  Anything
    wrong raises ValueError with a one-line message."""
    if {"-h", "--h", "--he", "--hel", "--help"}.intersection(argv):
        print(USAGE)
        for name, (text, options) in COMMANDS.items():
            print(f"  {name:<14} {text}\n{'':17}{' '.join(options) or '-'}")
        raise SystemExit(0)
    words: list[str] = []
    given: dict[str, str] = {}
    args = iter(argv)
    for arg in args:
        if not _is_option(arg):
            if not words and arg not in COMMANDS:
                raise ValueError(f"unknown command {arg!r}, not one of {', '.join(COMMANDS)}")
            words.append(arg)
            continue
        name, eq, value = arg.partition("=")
        known = ("--format", *COMMANDS[words[0]][1]) if words else ("--version",)
        matches = [o for o in known if o.startswith(name) and len(name) > 2]
        if name in matches:
            matches = [name]
        if len(matches) != 1:
            raise ValueError(f"ambiguous option: {name} could match {', '.join(matches)}"
                             if matches else f"unrecognized arguments: {arg}")
        name = matches[0]
        if name == "--version":
            print(__version__)
            raise SystemExit(0)
        if not eq:
            value = next(args, "-")  # "-" reads as an option: the value is missing
            if _is_option(value):
                raise ValueError(f"{name} expects a value")
        given[name] = value
    if len(words) != 3:
        raise ValueError(f"unrecognized arguments: {' '.join(words[3:])}" if words[3:]
                         else "expected COMMAND FAMILY RANK")
    command, family, rank = words[0], words[1].upper(), _int(words[2], "rank")
    check_rank(family, rank)
    for name, choices in _CHOICES.items():
        if given.setdefault(name, choices[0]) not in choices:
            raise ValueError(f"{name} must be one of {', '.join(choices)}, not {given[name]!r}")
    if "--theta" in given and "--theta-complement" in given:
        raise ValueError("--theta and --theta-complement are mutually exclusive")
    listed = given.get("--theta", given.get("--theta-complement", ""))
    indices = frozenset(_int(i, "a theta index") - 1 for i in listed.split(",") if listed.strip())
    if not indices <= set(range(rank)):
        raise ValueError("theta indices must lie in [1, rank]")
    theta = frozenset(range(rank)) - indices if "--theta-complement" in given else indices
    ring, limited = given["--ring"], "--max-degree" in given
    if limited and ring == "z2":
        raise ValueError("--max-degree does not apply to --ring z2, which reports every degree")
    max_degree = _int(given.get("--max-degree", "3"), "max-degree")
    if max_degree < 0:
        raise ValueError("max-degree must be >= 0")
    # no cell lies above |Phi+|, and homology up to it reads one degree more
    top = POSITIVE_ROOT_COUNTS[family](rank) + 1
    if limited and max_degree > top:
        raise ValueError(f"max-degree must be <= {top}, the number of positive roots + 1")
    if command == "homology" and ring == "z" and max_degree < 1:
        raise ValueError("homology needs --max-degree >= 1")
    return JobSpec(command, family, rank, theta, max_degree, ring.upper(), given["--format"])


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
        "kappa": rep.kappa_height,
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
    groups = homology.homology_groups(complex_)
    closed = h1_h2_closed_form(job.rank + 1, job.theta) if job.family == "A" else {}
    for k, want in enumerate(closed.values(), start=1):
        if k < len(groups) and groups[k] != want:
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
    check_size(2**job.rank, "theta rows")
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
                for key, h in h1_h2_closed_form(n, theta).items():
                    row[f"{key.lower()}_torsion_rank"] = len(h.torsion)
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
    try:
        job = parse_job(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"flaghom: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    try:  # a lazy report is walked, and checked, as it is rendered
        body = REPORTERS[job.command](job)
        report = {"schema_version": SCHEMA_VERSION, "job": job.as_dict(), **body}
        text = render(report, job.output_format)
    except (GroupTooLargeError, SignIndeterminateError) as exc:
        print(f"flaghom: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
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
