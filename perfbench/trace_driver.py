"""Run one flaghom CLI job in-process with a span around each layer's entry points.

Usage: python trace_driver.py SPANS_JSON JOB_ID CLI_ARG...

The driver imports ``flaghom.cli``, replaces each traced function at every
name that refers to it in any ``flaghom`` module (``flaghom.coeffs.coefficient``
and ``flaghom.homology.coefficient`` alike, plus the ``cli.REPORTERS`` table),
then calls ``flaghom.cli.main``.  The report goes to stdout as without the
driver.  Spans stay in memory and are written to SPANS_JSON at exit as
``[name, start, end, parent_index, counts]`` rows; the parent of the root span
is -1.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name, fn, counts=None):
        """Wrap fn in a span; counts(args, result) adds counters to it."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counts is not None:
                record[4].update(counts(args, result))
            return result

        return wrapper

    def counter(self, key, fn):
        """Wrap fn so that each call adds 1 to `key` on the innermost open span."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tally = spans[stack[-1]][4]
            tally[key] = tally.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def _complex_counts(args, result):
    return {
        "cells": sum(len(cells) for cells in result.cells.values()),
        "zeroed": sum(len(rows) for rows in result.indeterminate_rows.values()),
    }


def _coefficient_counts(args, result):
    magnitude, sign = result
    return {"nonzero": int(magnitude != 0), "unknown": int(magnitude != 0 and sign is None)}


def _snf_counts(args, result):
    matrix = args[0]
    return {"entries": len(matrix) * (len(matrix[0]) if matrix else 0)}


# (module, attribute, span name, counts); "Class.method" patches the class.
SPANS = [
    ("flaghom.rootsys", "build_root_system", "rootsys.build", None),
    ("flaghom.weyl", "WeylGroup.__init__", "weyl.enumerate",
     lambda args, result: {"elements": len(args[0].elements)}),
    ("flaghom.weyl", "WeylGroup.bruhat_covers", "weyl.covers",
     lambda args, result: {"pairs": len(result)}),
    ("flaghom.weyl", "WeylGroup.minimal_representatives", "weyl.reps",
     lambda args, result: {"scanned": len(args[0].elements), "returned": len(result)}),
    ("flaghom.coeffs", "kappa_report", "coeffs.kappa_report", None),
    ("flaghom.coeffs", "coefficient", "coeffs.coefficient", _coefficient_counts),
    ("flaghom.homology", "build_complex", "homology.complex", _complex_counts),
    ("flaghom.homology", "smith_normal_form", "homology.snf", _snf_counts),
    ("flaghom.homology", "orientable_via_topcell", "homology.topcell", None),
    ("flaghom.homology", "poincare_mod2", "homology.poincare", None),
    ("flaghom.cli", "render", "cli.render",
     lambda args, result: {"bytes": len(result.encode()) + 1}),  # print adds "\n"
]

# Kappa routes are counted on the span that calls them, not timed.
ROUTES = [
    ("flaghom.coeffs", name)
    for name in ("kappa_via_height", "kappa_via_sigma", "kappa_via_phi",
                 "kappa_via_dual_height_remarks")
]


def _replace_everywhere(original, wrapper) -> list[str]:
    """Point every flaghom module name bound to `original` at `wrapper`."""
    sites = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "flaghom" or module_name.startswith("flaghom.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                sites.append(f"{module_name}.{attr}")
    return sites


def install(tracer: Tracer) -> tuple[dict[str, list[str]], list[str]]:
    """Wrap every traced entry point; return the patched sites and the targets
    this version of flaghom does not have (their metrics then read 0)."""
    import flaghom.cli

    sites: dict[str, list[str]] = {}
    missing: list[str] = []
    targets = [(m, a, lambda fn, n=n, c=c: tracer.span(n, fn, c)) for m, a, n, c in SPANS]
    targets += [(m, a, lambda fn: tracer.counter("routes", fn)) for m, a in ROUTES]
    for module_name, attr, wrap in targets:
        name = f"{module_name}.{attr}"
        owner = sys.modules[module_name]
        if "." in attr:
            class_name, attr = attr.split(".")
            owner = getattr(owner, class_name, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(name)
        elif isinstance(owner, type):
            setattr(owner, attr, wrap(original))
            sites[name] = [name]
        else:
            sites[name] = _replace_everywhere(original, wrap(original))
    reporters = flaghom.cli.REPORTERS
    for command, fn in reporters.items():
        reporters[command] = tracer.span("cli.report", fn)
    sites["flaghom.cli.REPORTERS"] = [f"REPORTERS[{c!r}]" for c in reporters]
    return sites, missing


def main(argv: list[str]) -> int:
    spans_path, job, *cli_argv = argv
    import flaghom.cli

    tracer = Tracer()
    sites, missing = install(tracer)
    try:
        return tracer.span("cli.main", flaghom.cli.main)(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"job": job, "sites": sites, "missing": missing,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
