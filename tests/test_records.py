"""The package's values are read-only `Record`s, and importing the CLI,
which every job's fresh interpreter does, stays small: a job runs only the
modules its command calls."""

import copy
import json
import pickle
import subprocess
import sys

import pytest

from flaghom import (
    CartanData,
    ChainComplex,
    CoveringPair,
    HomologyGroup,
    KappaReport,
    RootSystem,
    WeylGroup,
    build_complex,
    kappa_report,
    root_system,
)
from flaghom.cli import JobSpec
from flaghom.rootsys import Record
from flaghom.weyl import WeylElement

from conftest import CHILD_ENV, element_from_word, lifted_covers


def _pair():
    """A covering pair of A2 and its group: w = s_2 s_1 over w' = s_1."""
    g = WeylGroup(root_system("A", 2))
    w = element_from_word(g, (1, 0))
    return g, next(p for p in lifted_covers(g, w, frozenset()) if p.w_prime.word == (0,))


def _records():
    """One instance of each record class, built afresh on every call."""
    g, pair = _pair()
    system = root_system("A", 2)
    return [
        CartanData.for_family("B", 3),
        RootSystem(system.cartan, system.positive_roots, system.coroot_coeffs,
                   system.coroot_pairings, system.roots),
        pair.w,
        pair,
        kappa_report(g, pair),
        HomologyGroup(1, (2, 2)),
        build_complex(g, frozenset(), 3),
        JobSpec("homology", "A", 2, frozenset({0}), 3, "Z", "json"),
    ]


RECORD_CLASSES = [CartanData, RootSystem, WeylElement, CoveringPair, KappaReport,
                  HomologyGroup, ChainComplex, JobSpec]


def _record(cls):
    """A fresh instance of one record class."""
    return next(r for r in _records() if type(r) is cls)


def test_every_record_class_is_covered():
    assert [type(r) for r in _records()] == RECORD_CLASSES
    assert all(isinstance(r, Record) and not hasattr(r, "__dict__") for r in _records())


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_fields_are_read_only(cls):
    record = _record(cls)
    for name in type(record).__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_equal_fields_make_equal_records(cls):
    """Built twice from equal fields, a record is == and not != itself, and
    hashes alike where its fields hash (a root system and a complex hold dicts)."""
    first, second = _record(cls), _record(cls)
    assert first is not second
    assert first == second and not first != second
    if not isinstance(first, (RootSystem, ChainComplex)):
        assert hash(first) == hash(second)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_equal_records(cls):
    record = _record(cls)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record


def test_equality_needs_the_same_type_and_every_field():
    assert HomologyGroup(1, (2,)) != HomologyGroup(1, (2, 2))
    assert HomologyGroup(0, ()) != HomologyGroup(1, ())
    assert HomologyGroup(1, (2,)) != (1, (2,))
    _, pair = _pair()
    moved = CoveringPair(pair.w, pair.w_prime, pair.deleted_index, pair.gamma, pair.gamma)
    assert moved != pair and not moved == pair
    job = JobSpec("homology", "A", 2, frozenset({0}), 3, "Z", "json")
    assert job != JobSpec("homology", "A", 2, frozenset({0}), 3, "Z", "tsv")


def test_a_record_takes_exactly_its_fields():
    with pytest.raises(TypeError):
        HomologyGroup(1)
    with pytest.raises(TypeError):
        HomologyGroup(1, (), 3)


def test_weyl_elements_are_equal_by_matrix_alone():
    """One element built in two groups is == and not != (its tail is another
    object), as is a copy with another tail and phi: != must not compare them
    as a tuple's would.  Two different elements are != and not ==."""
    system = root_system("B", 3)
    a = element_from_word(WeylGroup(system), (0, 1, 2))
    b = element_from_word(WeylGroup(system), (0, 1, 2))
    assert a is not b and a.tail is not b.tail
    assert a == b and not a != b and hash(a) == hash(b)
    bare = WeylElement(a.word, a.matrix, a.inverse_matrix, None, (0, 0, 0))
    assert a == bare and not a != bare and hash(a) == hash(bare)
    c = element_from_word(WeylGroup(system), (0, 1))
    assert a != c and not a == c
    assert a.tail != a


#: MiB still allocated after `import flaghom.cli`, json imported first: 1.17
#: with dataclass records, 0.28 with every module run at import, 0.19 once
#: `weyl`, `coeffs` and `homology` ran on first use (argparse, which `cli`
#: imported then, imported first and not counted), and 0.196 now that no
#: argparse is imported at all
IMPORT_RETAINED_MIB = 0.20

_IMPORT_PROBE = """
import json, sys, tracemalloc
before = set(sys.modules)
tracemalloc.start()
import flaghom.cli
retained, _ = tracemalloc.get_traced_memory()
tracemalloc.stop()
print(json.dumps({"modules": sorted(set(sys.modules) - before), "retained": retained}))
"""


def test_importing_the_cli_stays_lean():
    """A fresh interpreter (-B: it writes no bytecode cache, whose writing
    allocates too) imports no code-generating module and keeps little."""
    proc = subprocess.run([sys.executable, "-B", "-c", _IMPORT_PROBE],
                          capture_output=True, env=CHILD_ENV, check=True)
    probe = json.loads(proc.stdout)
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "argparse"}
    assert heavy.isdisjoint(probe["modules"])
    assert probe["retained"] / 2**20 < IMPORT_RETAINED_MIB


_RUN_PROBE = """
import json, sys, types
import flaghom.cli
names = [f"flaghom.{m}" for m in ("rootsys", "weyl", "coeffs", "homology")]
registered = all(name in sys.modules for name in names)
try:
    code = flaghom.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
ran = [name[8:] for name in names if type(sys.modules[name]) is types.ModuleType]
parsers = [name for name in ("argparse", "gettext", "locale") if name in sys.modules]
print(json.dumps({"registered": registered, "code": code, "ran": ran, "parsers": parsers}))
"""


_JOBS = [  # job, exit code, the modules it runs
    ("roots A 3", 0, ["rootsys"]),
    ("homology B 3 --ring z2", 0, ["rootsys"]),
    ("orientability A 3", 0, ["rootsys"]),
    ("sweep A 3", 0, ["rootsys"]),
    ("weyl A 3", 0, ["rootsys", "weyl"]),
    ("coeffs A 3", 0, ["rootsys", "weyl", "coeffs"]),
    ("homology A 3", 0, ["rootsys", "weyl", "coeffs", "homology"]),
    # refused: a usage error, the sweep row cap, the Weyl size cap, the sign table
    ("homology A 3 --theta 1 --theta-complement 2", 2, ["rootsys"]),
    ("sweep A 20", 2, ["rootsys"]),
    ("weyl E 7", 2, ["rootsys", "weyl"]),
    ("homology D 4 --max-degree 5", 2, ["rootsys", "weyl", "coeffs", "homology"]),
]


@pytest.mark.parametrize("job, code, ran", _JOBS,
                         ids=[f"{job}-ran{i}" for i, (job, _, _) in enumerate(_JOBS)])
def test_a_job_runs_only_the_modules_its_command_calls(job, code, ran):
    """`import flaghom.cli` puts every module in ``sys.modules``, where the
    trace driver finds them; a module the job never read is still
    LazyLoader's module subclass, neither compiled nor run.  A refusal
    runs no module to catch its error, and no job imports argparse, or the
    gettext and locale that argparse brings."""
    proc = subprocess.run([sys.executable, "-B", "-c", _RUN_PROBE, *job.split()],
                          capture_output=True, env=CHILD_ENV, check=True)
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe == {"registered": True, "code": code, "ran": ran, "parsers": []}
