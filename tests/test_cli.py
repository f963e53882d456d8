import contextlib
import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import flaghom.cli
import flaghom.coeffs
from flaghom import HomologyGroup, WeylGroup, poincare_mod2, root_system
from flaghom.cli import COMMANDS, main

from conftest import CHILD_ENV, ORACLE_GROUPS, WEYL_GROUP_ORDERS, orientable_by_root_sum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_roots_json(capsys):
    code, out = run_cli(capsys, "roots", "B", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == "2"
    assert report["job"]["family"] == "B"
    coeffs = {tuple(r["coeffs"]) for r in report["roots"]}
    assert coeffs == {(1, 0), (0, 1), (1, 1), (1, 2)}
    long_root = next(r for r in report["roots"] if r["coeffs"] == [1, 2])
    assert long_root["coroot"] == [1, 1] and long_root["coroot_height"] == 2


@pytest.mark.parametrize("job", [
    "roots B 3",
    "weyl A 3 --theta 2",
    "coeffs A 3",
    "coeffs A 2 --max-degree 0",
    "coeffs A 4 --max-degree 10",  # 92 KiB, longer than one written slice
    "homology A 2",
    "homology B 3 --ring z2",
    "orientability A 4 --theta 1,3",
    "sweep A 3",
])
def test_json_round_trip_is_stable(capsys, job):
    """The report, encoded in batches of rows, is exactly ``json.dumps`` of itself."""
    _, out = run_cli(capsys, *job.split(), "--format", "json")
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def _row(n):
    return {"n": n, "w": [n, [n + 1]], "kappa": None if n % 3 else {"b": [None], "a": n}}


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("batches, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_json_batches_join_into_json_dumps(batches, extra, lazy):
    """A table of batches*B + extra rows, B the batch size, so on each side
    of a batch's edge, given as a list or as a lazy ``map``, is encoded into
    ``json.dumps`` byte for byte."""
    n = batches * flaghom.cli._BATCH + extra
    rows = [_row(k) for k in range(n)]
    report = {"z": [], "table": map(_row, range(n)) if lazy else rows, "a": {"x": None}}
    expected = json.dumps({**report, "table": rows}, sort_keys=True)
    assert flaghom.cli._render_json(report) == expected


@pytest.mark.parametrize("output_format, sep", [("text", "  "), ("tsv", "\t")])
def test_empty_table_prints_its_name(capsys, output_format, sep):
    code, out = run_cli(capsys, "coeffs", "A", "2", "--max-degree", "0",
                        "--format", output_format)
    assert code == 0
    assert out == f"covering_pairs{sep}\n"


def test_coeffs_prints_nothing_before_every_check_has_run(capsys, monkeypatch):
    """Rows are formatted as they are written, but every pair is checked
    first: a disagreement under the top cell, the last cell, prints no row."""
    sigma = flaghom.coeffs.kappa_via_sigma
    monkeypatch.setattr("flaghom.coeffs.kappa_via_sigma",
                        lambda group, pair: sigma(group, pair) + (pair.w.length == 6))
    assert main(["coeffs", "A", "3", "--max-degree", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "flaghom: cross-check failure: kappa routes disagree on "
        "w=[1, 2, 1, 3, 2, 1] w'=[2, 1, 3, 2, 1] I=1: [1, 2]\n"
    )


def test_sliced_tsv_is_the_rendered_report(monkeypatch):
    """`main` writes the report in slices; its stdout bytes are still the
    rendered report and one newline."""
    argv = ["coeffs", "A", "5", "--max-degree", "15", "--format", "tsv"]
    rendered = []
    render = flaghom.cli.render

    def recording_render(report, output_format):
        rendered.append(render(report, output_format))
        return rendered[-1]

    monkeypatch.setattr(flaghom.cli, "render", recording_render)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0
    proc = subprocess.run([sys.executable, "-m", "flaghom.cli", *argv],
                          capture_output=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert len(rendered[0]) > flaghom.cli._SLICE
    assert proc.stdout == (rendered[0] + "\n").encode()


def _traced_peak_mib(argv):
    """Traced peak of one run of the job in MiB.  An untraced run first pays
    the process's first-use costs (the cached root system among them), and a
    collection first makes the collector's timing in the traced run fixed."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main(argv)
        gc.collect()
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak / 2**20


@pytest.mark.parametrize("output_format, limit_mib", [("json", 2.0), ("tsv", 1.24)])
def test_coeffs_peak_traced_memory(output_format, limit_mib):
    """`coeffs A 5` up to degree 15 (an 862 KB JSON report): one batch of
    row dicts at a time, each pair dropped as its row is encoded, the
    system's own root tuples, and the report written in slices.  The peak
    was 7.33 MiB traced in JSON and 4.34 in TSV with every row a dict before
    the first was encoded, 2.85 and 2.32 with every pair kept and each root
    vector a fresh tuple, and 2.14 MiB in JSON with each row encoded into a
    string of its own; it is 1.93 and 1.11 now."""
    argv = ["coeffs", "A", "5", "--max-degree", "15", "--format", output_format]
    assert _traced_peak_mib(argv) < limit_mib


def test_orientability_peak_traced_memory():
    """The top cell of A20 has its covers read off the root system, with no
    Weyl element built: 0.065 MiB traced, against 0.79 MiB when the walk to
    the top cell stored its descent chain and tested its covers, 3.55 MiB
    when every cover in W^Theta was built and 11.1 MiB when each column was
    also a fresh tuple."""
    assert _traced_peak_mib(["orientability", "A", "20"]) < 0.072


def test_weyl_cell_counts(capsys):
    code, out = run_cli(capsys, "weyl", "A", "2", "--theta", "1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 6
    assert len(report["cells"]) == 3  # RP^2 has one cell per dimension


def test_coeffs_contains_known_entry(capsys):
    _, out = run_cli(capsys, "coeffs", "A", "3", "--format", "json")
    report = json.loads(out)
    # boundary of the cell with word s2 s1 hits s1 with coefficient -2
    entry = next(
        p
        for p in report["covering_pairs"]
        if p["w"] == [2, 1] and p["w_prime"] == [1]
    )
    assert entry["kappa"] == 2
    assert entry["magnitude"] == 2 and entry["sign"] == -1
    routes = set(entry["kappa_routes"].values()) - {None}
    assert routes == {entry["kappa"]}


def test_homology_example_a4_theta23(capsys):
    code, out = run_cli(
        capsys, "homology", "A", "4", "--theta", "2,3", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    by_degree = {h["degree"]: h for h in report["homology"]}
    assert by_degree[0] == {"degree": 0, "free_rank": 1, "torsion": []}
    assert by_degree[1]["torsion"] == [2, 2]
    assert by_degree[2]["torsion"] == [2]
    assert report["closed_form"]["H1"]["torsion"] == [2, 2]
    assert report["closed_form"]["H2"]["torsion"] == [2]


def test_homology_mod2(capsys):
    code, out = run_cli(capsys, "homology", "A", "2", "--ring", "z2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["mod2_betti"] == [1, 2, 2, 1]
    assert report["job"]["max_degree"] == 3  # the default echo, although z2 reads no degree


def test_orientability_example(capsys):
    code, out = run_cli(
        capsys, "orientability", "A", "5", "--theta-complement", "1", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["orientable"] == {"top_cell": True, "criterion": True, "agree": True}


def test_orientability_negative_case(capsys):
    _, out = run_cli(
        capsys, "orientability", "A", "4", "--theta-complement", "2", "--format", "json"
    )
    report = json.loads(out)
    assert report["orientable"]["top_cell"] is False


def test_sweep_a3(capsys):
    code, out = run_cli(capsys, "sweep", "A", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    rows = {tuple(r["theta"]): r for r in report["sweep"]}
    assert len(rows) == 8
    assert rows[()]["h1_torsion_rank"] == 3 and rows[()]["orientable"] is True
    assert rows[(2, 3)]["h1_torsion_rank"] == 1
    assert rows[(1, 2, 3)]["h1_torsion_rank"] == 0
    # sweep takes no theta, degree or ring; the job echoes their defaults
    assert report["job"] == {
        "command": "sweep", "family": "A", "rank": 3, "theta": [],
        "max_degree": 3, "ring": "Z", "format": "json",
    }


def test_text_and_json_agree(capsys):
    _, text = run_cli(capsys, "orientability", "A", "4")
    _, as_json = run_cli(capsys, "orientability", "A", "4", "--format", "json")
    report = json.loads(as_json)
    assert ("top_cell=yes" in text) == report["orientable"]["top_cell"]


def test_tsv_homology_has_matrix_rows(capsys):
    _, out = run_cli(capsys, "homology", "A", "2", "--format", "tsv")
    lines = out.splitlines()
    assert "d_2" in lines
    block = lines[lines.index("d_2") + 1 : lines.index("d_2") + 3]
    assert sorted(block) == ["-2\t0", "0\t-2"]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homology", "A", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["homology", "A", "3", "--theta", "5"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    for family, rank in [("D", "1"), ("E", "2"), ("G", "3")]:
        with pytest.raises(SystemExit) as exc:
            main(["roots", family, rank])
        assert exc.value.code == 2
        assert "out of range for family" in capsys.readouterr().err


#: the options each command takes besides --format, as the README's table lists them
README_OPTIONS = {
    "roots": set(),
    "weyl": {"--theta", "--theta-complement"},
    "coeffs": {"--theta", "--theta-complement", "--max-degree"},
    "homology": {"--theta", "--theta-complement", "--max-degree", "--ring"},
    "orientability": {"--theta", "--theta-complement"},
    "sweep": set(),
}


def test_each_subcommand_takes_only_the_options_it_reads(capsys):
    """An option is accepted where the README lists it, and refused with
    "unrecognized arguments" elsewhere; `--format` goes with every command."""
    for command, options in README_OPTIONS.items():
        for option, value in [("--theta", "1"), ("--theta-complement", "1"),
                              ("--max-degree", "2"), ("--ring", "z"), ("--format", "json")]:
            argv = [command, "A", "2", option, value]
            if option == "--format" or option in options:
                assert main(argv) == 0
                assert capsys.readouterr().err == ""
            else:
                err = _one_line_error(capsys, argv, 2)
                assert err == f"flaghom: error: unrecognized arguments: {option}\n"


@pytest.mark.parametrize("argv, message", [
    ([], "expected COMMAND FAMILY RANK"),
    (["roots", "A"], "expected COMMAND FAMILY RANK"),
    (["nonsense"], "unknown command 'nonsense', not one of "
                   "roots, weyl, coeffs, homology, orientability, sweep"),
    (["roots", "X", "2"], "unknown family 'X'"),
    (["roots", "AB", "2"], "unknown family 'AB'"),
    (["roots", "A", "two"], "rank must be an integer, not 'two'"),
    (["roots", "A", "2", "3"], "unrecognized arguments: 3"),
    (["homology", "A", "3", "--theta"], "--theta expects a value"),
    (["homology", "A", "3", "--max-degree", "--ring", "z"], "--max-degree expects a value"),
    (["homology", "A", "3", "--max-degree", "x"], "max-degree must be an integer, not 'x'"),
    (["homology", "A", "3", "--theta", "1,x"], "a theta index must be an integer, not 'x'"),
    (["homology", "A", "3", "--ring", "Z"], "--ring must be one of z, z2, not 'Z'"),
    (["roots", "A", "2", "--format", "yaml"], "--format must be one of text, json, tsv, not 'yaml'"),
    (["homology", "A", "3", "--theta", "1", "--theta-complement", "2"],
     "--theta and --theta-complement are mutually exclusive"),
    (["homology", "A", "3", "--th", "1"],
     "ambiguous option: --th could match --theta, --theta-complement"),
    (["sweep", "A", "3", "--theta", "1"], "unrecognized arguments: --theta"),
    (["roots", "A", "2", "-x"], "unrecognized arguments: -x"),
    (["--format", "json", "roots", "A", "2"], "unrecognized arguments: --format"),
    (["roots", "A", "2", "--version"], "unrecognized arguments: --version"),
    # a negative number is a value, not an option
    (["homology", "A", "3", "--max-degree", "-1"], "max-degree must be >= 0"),
    (["roots", "A", "-1"], "rank -1 out of range for family A"),
])
def test_every_usage_error_is_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"flaghom: error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"], ["homology", "-h"], ["sweep", "A", "3", "--help"],
    ["nonsense", "-h"], ["homology", "A", "3", "--theta", "--help"],
])
def test_help_anywhere_names_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: flaghom COMMAND FAMILY RANK")
    assert all(f"\n  {name} " in out for name in COMMANDS)


@pytest.mark.parametrize("argv", ["--version", "--vers"])
def test_version_before_the_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv])
    assert exc.value.code == 0
    assert capsys.readouterr() == ("0.1.0\n", "")


@pytest.mark.parametrize("job", [
    "homology a 4 --theta=2,3 --max-degree=2 --format=json",
    "homology A 4 --theta 2,3 --max 2 --r z --form json",
    "homology A 4 --theta-c 1,4 --max-degree 2 --format json",
    "homology --format json A --theta 2,3 4 --max-degree 2",
    "homology A 4 --theta 1 --theta 2,3 --max-degree 9 --max-degree 2 --format tsv --format json",
])
def test_option_spellings_give_the_same_report(capsys, job):
    """The `=` form, unique prefixes, a lowercase family, options before and
    between the positionals, and a repeated option (the last wins) all read
    as the spelled-out job."""
    _, expected = run_cli(capsys, *"homology A 4 --theta 2,3 --max-degree 2 --format json".split())
    assert run_cli(capsys, *job.split()) == (0, expected)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "A", "3", "--theta", "1"],
        ["roots", "B", "2", "--ring", "z2"],
        ["weyl", "A", "2", "--max-degree", "2"],
    ],
)
def test_unread_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_theta_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homology", "A", "3", "--theta", "1", "--theta-complement", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command", ["roots", "weyl", "coeffs", "homology", "orientability", "sweep"]
)
def test_every_command_family_and_format(capsys, command):
    for family, rank in [("A", "2"), ("B", "2"), ("C", "3"), ("D", "4"), ("G", "2")]:
        for output_format in ("text", "json", "tsv"):
            assert main([command, family, rank, "--format", output_format]) == 0
    capsys.readouterr()


def _one_line_error(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    return err


@pytest.mark.parametrize(
    "max_degree, message",
    [("0", "homology needs --max-degree >= 1"), ("5", "cannot compute H_3")],
)
def test_homology_degree_limits_exit_2(capsys, max_degree, message):
    err = _one_line_error(capsys, ["homology", "A", "4", "--max-degree", max_degree], 2)
    assert err.startswith("flaghom: error: ") and message in err


@pytest.mark.parametrize("command", ["coeffs", "homology"])  # coeffs first: it fails fast
def test_huge_max_degree_exits_2(capsys, command):
    # the complex keeps one list per degree, so no bound would exhaust memory
    err = _one_line_error(capsys, [command, "A", "2", "--max-degree", "100000000"], 2)
    assert err == "flaghom: error: max-degree must be <= 4, the number of positive roots + 1\n"
    assert main(["coeffs", "A", "2", "--max-degree", "4"]) == 0
    assert main(["homology", "A", "2", "--max-degree", "4"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("max_degree", ["1", "0"])
def test_z2_homology_refuses_max_degree(capsys, max_degree):
    # z2 reports every degree, so a degree limit would be silently ignored
    argv = ["homology", "A", "2", "--ring", "z2", "--max-degree", max_degree]
    err = _one_line_error(capsys, argv, 2)
    assert err == (
        "flaghom: error: --max-degree does not apply to --ring z2, which reports every degree\n"
    )


@pytest.mark.parametrize("index", ["7", "0"])
def test_theta_complement_out_of_range_exits_2(capsys, index):
    err = _one_line_error(capsys, ["orientability", "A", "3", "--theta-complement", index], 2)
    assert err == "flaghom: error: theta indices must lie in [1, rank]\n"


_UNSIGNED_3 = "cannot compute H_3: degree 3 has sign-indeterminate rows"


def _uncertified(k):
    return (f"cannot certify homology in degree {k}: "
            "image of the determined boundary rows is not twice the kernel")


@pytest.mark.parametrize("argv,message", [
    pytest.param("D 4 --max-degree 5", _UNSIGNED_3, id="D-5"),
    pytest.param("F 4 --max-degree 5", _UNSIGNED_3, id="F-5"),
    pytest.param("A 4 --max-degree 8", _UNSIGNED_3, id="A-8"),
    pytest.param("B 4 --max-degree 7", _UNSIGNED_3, id="B-7"),
    # the certificate of degree k - 1 is read before H_k is refused
    pytest.param("A 4 --theta 3,4 --max-degree 6", _uncertified(3), id="A-theta-3,4-6"),
    pytest.param("D 4 --theta 1,4 --max-degree 6", _uncertified(4), id="D-theta-1,4-6"),
])
def test_homology_above_sign_table_exits_2(capsys, argv, message):
    err = _one_line_error(capsys, ["homology", *argv.split()], 2)
    assert err == f"flaghom: error: {message}\n"


def test_homology_g2_to_the_top_cell(capsys):
    code, out = run_cli(capsys, "homology", "G", "2", "--max-degree", "6", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["homology"]) == 6


def test_group_too_large_exits_2(capsys, monkeypatch):
    """`rootsys.DEFAULT_SIZE_CAP` is the one setting of the cap: it bounds the
    elements a Weyl group query stores and the theta rows a sweep tabulates."""
    monkeypatch.setattr("flaghom.rootsys.DEFAULT_SIZE_CAP", 50)
    err = _one_line_error(capsys, ["weyl", "A", "4"], 2)
    assert err == "flaghom: error: too large: 120 elements, more than 50\n"
    err = _one_line_error(capsys, ["sweep", "A", "6"], 2)
    assert err == "flaghom: error: too large: 64 theta rows, more than 50\n"


@pytest.mark.parametrize("command", ["weyl"])
def test_e7_refused_before_enumeration(capsys, monkeypatch, command):
    def refuse(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(WeylGroup, "_right_mult", refuse)
    err = _one_line_error(capsys, [command, "E", "7"], 2)
    assert err == "flaghom: error: too large: 2903040 elements, more than 1000000\n"


def test_weyl_order_is_macdonalds_count(capsys, monkeypatch):
    """`weyl` walks W^Theta alone and reads the order off Macdonald's count."""
    walked = []
    walk = WeylGroup.minimal_representatives

    def recorded(group, theta, max_length=None):
        walked.append(theta)
        return walk(group, theta, max_length)

    monkeypatch.setattr(WeylGroup, "minimal_representatives", recorded)
    for family, rank in ORACLE_GROUPS:
        code, out = run_cli(capsys, "weyl", family, str(rank), "--theta", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["order"] == WEYL_GROUP_ORDERS[family](rank)
    assert walked == [frozenset({0})] * len(ORACLE_GROUPS)


def test_weyl_e7_partial_flag_answers(capsys):
    # W^Theta has 56 elements, though W(E7), the W^Theta of `weyl E 7`, is above the cap
    code, out = run_cli(capsys, "weyl", "E", "7", "--theta", "1,2,3,4,5,6", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 2903040
    assert len(report["cells"]) == 56 and report["cells"][-1]["length"] == 27
    err = _one_line_error(capsys, ["weyl", "E", "7"], 2)
    assert err == "flaghom: error: too large: 2903040 elements, more than 1000000\n"


def test_e8_query_refused_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("an element was built")

    monkeypatch.setattr(WeylGroup, "_step", refuse)
    monkeypatch.setattr(WeylGroup, "_left_mult", refuse)
    err = _one_line_error(capsys, ["coeffs", "E", "8", "--max-degree", "19"], 2)
    assert err == "flaghom: error: too large: 1080949 elements, more than 1000000\n"


def test_e7_partial_flag_to_the_top_cell(capsys):
    # W^Theta has 56 elements, far below the cap, though W(E7) is above it
    code, out = run_cli(
        capsys, "coeffs", "E", "7", "--theta", "1,2,3,4,5,6", "--max-degree", "63",
        "--format", "json",
    )
    assert code == 0
    pairs = json.loads(out)["covering_pairs"]
    assert max(len(p["w"]) for p in pairs) == 27


def test_walk_disagreeing_with_count_exits_1(capsys, monkeypatch):
    # W^Theta of A2 has level sizes [1, 2, 2, 1]
    monkeypatch.setattr("flaghom.weyl.poincare_mod2", lambda system, theta: [1, 2, 1, 1])
    assert main(["coeffs", "A", "2"]) == 1
    assert capsys.readouterr().err == (
        "flaghom: cross-check failure: walk of W^Theta finds [1, 2, 2, 1] elements "
        "by length, Macdonald's count [1, 2, 1, 1]\n"
    )


def test_sweep_e7_enumerates_nothing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sweep walked W^Theta")

    monkeypatch.setattr(WeylGroup, "minimal_representatives", refuse)
    code, out = run_cli(capsys, "sweep", "E", "7", "--format", "json")
    assert code == 0
    rows = json.loads(out)["sweep"]
    assert len(rows) == 128
    assert rows[0]["mod2_betti"][:2] == [1, 7] and sum(rows[0]["mod2_betti"]) == 2903040


def test_sweep_rows_bounded_up_front(capsys, monkeypatch):
    """2^20 theta rows exceed the cap: refused before any theta is tried."""
    def refuse(*args, **kwargs):
        raise AssertionError("a theta was tried")

    monkeypatch.setattr("flaghom.cli.orientable_via_topcell", refuse)
    start = time.monotonic()
    err = _one_line_error(capsys, ["sweep", "A", "20"], 2)
    assert time.monotonic() - start < 1
    assert err == "flaghom: error: too large: 1048576 theta rows, more than 1000000\n"
    monkeypatch.undo()
    code, out = run_cli(capsys, "sweep", "E", "8", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["sweep"]) == 256


def test_rank_above_the_root_cap_refused_up_front(capsys, monkeypatch):
    """A200 has 20,100 positive roots, more than `MAX_POSITIVE_ROOTS`: refused
    before any root is closed, where the closure would run for minutes."""
    def refuse(*args, **kwargs):
        raise AssertionError("a root system was built")

    monkeypatch.setattr("flaghom.rootsys.build_root_system", refuse)
    start = time.monotonic()
    err = _one_line_error(capsys, ["roots", "A", "200"], 2)
    assert time.monotonic() - start < 1
    assert err == "flaghom: error: rank 200 out of range for family A\n"


def test_homology_e8_mod2_builds_no_group(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Weyl group was built")

    monkeypatch.setattr(WeylGroup, "__init__", refuse)
    code, out = run_cli(capsys, "homology", "E", "8", "--ring", "z2", "--format", "json")
    assert code == 0
    betti = json.loads(out)["mod2_betti"]
    assert len(betti) == 121 and sum(betti) == 696729600


def test_orientability_and_sweep_build_no_group(capsys, monkeypatch):
    """Both read the top cell's covers off the root system: no `WeylGroup`."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Weyl group was built")

    monkeypatch.setattr(WeylGroup, "__init__", refuse)
    code, out = run_cli(capsys, "orientability", "E", "8", "--format", "json")
    assert code == 0
    assert json.loads(out)["orientable"] == {"top_cell": True}
    code, out = run_cli(capsys, "orientability", "A", "60", "--format", "json")
    assert code == 0
    assert json.loads(out)["orientable"] == {"top_cell": True, "criterion": True, "agree": True}
    code, out = run_cli(capsys, "sweep", "E", "8", "--format", "json")
    assert code == 0
    rows = json.loads(out)["sweep"]
    system = root_system("E", 8)
    assert len(rows) == 256 and sum(row["orientable"] for row in rows) == 36
    for row in rows:
        theta = frozenset(i - 1 for i in row["theta"])
        assert row["orientable"] == orientable_by_root_sum(system, theta)
        assert row["mod2_betti"] == poincare_mod2(system, theta)


def test_homology_e6_and_orientability_e8(capsys):
    code, out = run_cli(capsys, "homology", "E", "6", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert [h["degree"] for h in report["homology"]] == [0, 1, 2]
    assert report["homology"][0] == {"degree": 0, "free_rank": 1, "torsion": []}
    code, out = run_cli(capsys, "orientability", "E", "8", "--format", "json")
    assert code == 0
    # maximal flag manifolds are orientable
    assert json.loads(out)["orientable"] == {"top_cell": True}


def test_route_disagreement_exits_1_naming_the_pair(capsys, monkeypatch):
    monkeypatch.setattr("flaghom.coeffs.kappa_via_sigma", lambda group, pair: -1)
    assert main(["coeffs", "A", "2"]) == 1
    assert capsys.readouterr().err == (
        "flaghom: cross-check failure: kappa routes disagree on "
        "w=[1] w'=[] I=1: [-1, 1]\n"
    )


def test_inexact_macdonald_product_exits_1(capsys, monkeypatch):
    # heights shifted by one give [3]_q [4]_q / [2]_q^2 on A2, not a polynomial
    monkeypatch.setattr("flaghom.rootsys.height", lambda root: sum(root) + 1)
    assert main(["homology", "A", "2", "--ring", "z2"]) == 1
    assert capsys.readouterr().err == (
        "flaghom: cross-check failure: Macdonald product does not divide exactly\n"
    )


def test_orientability_disagreement_names_theta_1_based(capsys, monkeypatch):
    monkeypatch.setattr("flaghom.cli.orientable_typeA", lambda n, theta: None)
    assert main(["orientability", "A", "3", "--theta", "1,3"]) == 1
    assert capsys.readouterr().err == (
        "flaghom: cross-check failure: orientability criteria disagree for "
        "theta=[1, 3]\n"
    )


def test_closed_form_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("flaghom.cli.h1_h2_closed_form",
                        lambda n, theta: {"H1": HomologyGroup(1, ())})
    assert main(["homology", "A", "2"]) == 1
    assert capsys.readouterr().err == (
        "flaghom: cross-check failure: H1 mismatch: complex "
        "{'free_rank': 0, 'torsion': [2, 2]} vs closed form {'free_rank': 1, 'torsion': []}\n"
    )


def test_a1_has_an_empty_closed_form(capsys):
    code, out = run_cli(capsys, "homology", "A", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["closed_form"] == {}


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "flaghom.cli", "--version"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_closed_stdout_exits_141_without_traceback():
    # the JSON report (about 92 KiB) is above the 64 KiB pipe buffer,
    # and the read end of its pipe is closed before the job starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flaghom.cli", "coeffs", "A", "4", "--max-degree", "10",
             "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=CHILD_ENV,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


class _ProcessEnded(Exception):
    """Raised by the stand-in for ``os._exit``, which does not return."""


def _recording_run(monkeypatch, code, events):
    """Runs `cli.run` over a `main` that writes, unflushed, to stdout and
    stderr and returns ``code``; flushes and ``os._exit`` land in ``events``."""

    class Stream:
        def __init__(self, name):
            self.name = name

        def write(self, text):
            events.append((self.name, "write"))
            return len(text)

        def flush(self):
            events.append((self.name, "flush"))

    def fake_main():
        print("report", file=sys.stdout)
        print("warning", file=sys.stderr)
        return code

    monkeypatch.setattr(sys, "stdout", Stream("stdout"))
    monkeypatch.setattr(sys, "stderr", Stream("stderr"))
    monkeypatch.setattr(flaghom.cli, "main", fake_main)

    def fake_exit(status):
        events.append(("_exit", status))
        raise _ProcessEnded

    monkeypatch.setattr(os, "_exit", fake_exit)
    flaghom.cli.run()


class _Monitoring:
    """A stand-in for ``sys.monitoring`` (Python 3.12 on) with one tool
    registered, as cProfile registers itself under ``PROFILER_ID``, 2."""

    def __init__(self, tool_id):
        self.tool_id = tool_id

    def get_tool(self, tool_id):
        return "cProfile" if tool_id == self.tool_id else None


def _set_hooks(monkeypatch, monitoring_tool=None):
    """No trace or profile hook, as `run` sees them, whatever runs the
    tests (coverage, a profiler); with ``monitoring_tool``, a
    ``sys.monitoring`` with that tool id in use."""
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.setattr(sys, "monitoring", _Monitoring(monitoring_tool), raising=False)


@pytest.mark.parametrize("code", [0, 1, 141])
def test_run_ends_with_os_exit_after_flushing(monkeypatch, code):
    _set_hooks(monkeypatch)
    events = []
    with pytest.raises(_ProcessEnded):
        _recording_run(monkeypatch, code, events)
    assert events[-3:] == [("stdout", "flush"), ("stderr", "flush"), ("_exit", code)]


@pytest.mark.parametrize("code", [0, 1, 141])
def test_run_exits_normally_under_a_profile_hook(monkeypatch, code):
    events = []
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: None)
    try:
        with pytest.raises(SystemExit) as exc:
            _recording_run(monkeypatch, code, events)
    finally:
        sys.setprofile(previous)
    assert exc.value.code == code
    assert events[-2:] == [("stdout", "flush"), ("stderr", "flush")]
    assert ("_exit", code) not in events


@pytest.mark.parametrize("tool_id", [0, 1, 2, 5])
def test_run_exits_normally_under_a_monitoring_tool(monkeypatch, tool_id):
    """From Python 3.12 on cProfile, and coverage's ``sysmon`` core, hook
    in through ``sys.monitoring`` and leave ``sys.getprofile()`` and
    ``sys.gettrace()`` None; a tool under any id keeps the normal exit."""
    _set_hooks(monkeypatch, monitoring_tool=tool_id)
    events = []
    with pytest.raises(SystemExit) as exc:
        _recording_run(monkeypatch, 141, events)
    assert exc.value.code == 141
    assert events[-2:] == [("stdout", "flush"), ("stderr", "flush")]
    assert ("_exit", 141) not in events


def test_run_lets_main_raise_system_exit(monkeypatch):
    monkeypatch.setattr(os, "_exit", lambda status: pytest.fail("os._exit was called"))
    monkeypatch.setattr(sys, "argv", ["flaghom", "roots", "A", "0"])
    with pytest.raises(SystemExit) as exc:
        flaghom.cli.run()
    assert exc.value.code == 2


def test_cprofile_still_prints_its_statistics():
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "flaghom.cli", "roots", "A", "2"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# roots\ncoeffs  height  coroot  coroot_height\n")
    assert "function calls" in proc.stdout and "Ordered by:" in proc.stdout


@pytest.mark.parametrize("output_format", ["text", "json", "tsv"])
@pytest.mark.parametrize("job", [
    "roots B 3",
    "weyl A 3 --theta 2",
    "coeffs A 4 --max-degree 10",  # 92 KiB in JSON, longer than one written slice
    "homology A 3",
    "orientability A 4 --theta 1,3",
    "sweep A 3",
    "homology D 4 --max-degree 5",  # refused: exit 2
])
def test_process_output_is_the_in_process_output(capsys, job, output_format):
    """`python -m flaghom.cli`, which ends through `run`, writes the bytes
    and exit code that `main` gives in-process."""
    argv = [*job.split(), "--format", output_format]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "flaghom.cli", *argv],
                          capture_output=True, env=CHILD_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, captured.out.encode(), captured.err.encode())
    assert code == (2 if "D 4" in job else 0)


def test_installed_script_ends_through_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"flaghom": "flaghom.cli:run"}
