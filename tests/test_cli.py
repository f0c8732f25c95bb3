import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twodist import designs
from twodist.cli import COMMANDS, GOLDEN_GRAM, GOLDEN_R2, dispatch
from twodist.designs import load_design
from twodist.errors import DesignError, InternalConsistencyError
from twodist.exactnum import format_scalar, parse_scalar

from oracles import derived_design

ROOT = Path(__file__).parent.parent
DATA_DIR = ROOT / "tests" / "data"


def run(argv, capsys):
    code, report = dispatch(argv)
    out = capsys.readouterr().out
    return code, report, out


def test_verify_lisonek_exit_zero(capsys):
    code, report, out = run(["verify", "lisonek"], capsys)
    assert code == 0
    assert report.status == "ok"
    assert "45" in out and "1/3*sqrt(14)" in out


def test_verify_goldens_are_canonical():
    # verify compares rendered text: for a canonical golden, equal text is equal value
    for text in (*GOLDEN_GRAM.values(), GOLDEN_R2):
        assert format_scalar(parse_scalar(text)) == text


def counting(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_verify_lisonek_counts_point_pairs_once(monkeypatch, capsys):
    # the design row and verify_axioms read the one pair count of the configuration
    calls = counting(monkeypatch, designs, "pair_counts")
    code, report, _ = run(["verify", "lisonek"], capsys)
    rows = dict(next(rows for title, rows in report.sections if title == "design"))
    assert code == 0 and (rows["2-design"], rows["Lambda"]) == ("True", "1")
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "lisonek"],
    ["embed", str(DATA_DIR / "lisonek_complement.json")],
    ["embed", str(DATA_DIR / "witt_4_23_7_1.json")],
])
def test_one_coverage_check_and_one_packing_each_way(argv, monkeypatch, capsys):
    # the points' rows over the blocks, then the blocks' rows over the points
    checks = counting(monkeypatch, designs, "require_every_point")
    packs = counting(monkeypatch, designs, "pack")
    code, _, _ = run(argv, capsys)
    assert code == 0 and len(checks) == 1
    (design,), = checks
    assert [count for _, count, _ in packs] == [design.block_count, design.m]


def test_verify_lisonek_counts_block_intersections_once(monkeypatch, capsys):
    # the design row reads alpha and beta off the configuration the projector uses
    calls = counting(monkeypatch, designs, "intersection_numbers")
    code, _, out = run(["verify", "lisonek"], capsys)
    assert code == 0 and "alpha=1, beta=0" in out
    assert len(calls) == 1


def test_params_command(capsys):
    code, report, out = run(["params", "9", "2", "1", "0"], capsys)
    assert code == 0
    rows = dict(report.sections[0][1])
    assert rows == {
        "m": "9", "S": "2", "alpha": "1", "beta": "0", "Lambda": "1", "T": "8",
        "N": "7", "P": "2", "n": "36", "k": "14", "r": "5", "s": "-2",
    }
    assert ("integrality gate", "pass") in report.sections[2][1]


def test_params_gate_failure_reported(capsys):
    code, report, out = run(["params", "54", "15", "6", "3"], capsys)
    assert code == 0
    gate_rows = dict(report.sections[2][1])
    assert gate_rows["integrality gate"] == "fail"
    assert "795/2" in out


def test_params_rejects_bad_ordering(capsys):
    code, _, _ = run(["params", "2", "9", "1", "0"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["params", "27", "7", "3", "1"],
    ["solve", "--smax", "5", "--mmax", "20"],
    ["identities"],
    ["classify", "--zmax", "2"],
])
def test_json_and_text_agree(argv, capsys):
    code, report, text_out = run(argv, capsys)
    code2, report2, json_out = run(argv + ["--json"], capsys)
    assert code == code2
    data = json.loads(json_out)
    assert len(data["sections"]) == len(report.sections)
    for (title, rows), section in zip(report.sections, data["sections"]):
        assert section["title"] == title
        assert [(r["name"], r["value"]) for r in section["rows"]] == rows
    for _, rows in report.sections:
        for name, value in rows:
            assert value in text_out


def test_embed_round_trip(lisonek_design_file, capsys):
    code, report, _ = run(["embed", str(lisonek_design_file)], capsys)
    assert code == 0
    classification = dict(report.sections[-1][1])
    assert classification["two-distance"] == "True"
    assert classification["case"] == "A"


def test_embed_with_explicit_radius(lisonek_design_file, capsys):
    code, report, _ = run(
        ["embed", str(lisonek_design_file), "--r2", "1/3*sqrt(14)"], capsys)
    assert code == 0
    spectrum = dict(report.sections[2][1])
    assert spectrum["d3^2"] == "4"


def test_embed_golden_gram_dump(capsys):
    code, _, out = run(
        ["embed", str(DATA_DIR / "lisonek_design.json"), "--dump-gram", "--json"],
        capsys)
    assert code == 0
    expected = json.loads((DATA_DIR / "lisonek_gram_golden.json").read_text())
    produced = json.loads(out)
    produced["command"] = produced["command"].replace(
        str(DATA_DIR / "lisonek_design.json"), "tests/data/lisonek_design.json")
    expected["command"] = "embed tests/data/lisonek_design.json"
    assert produced == expected


def test_embed_missing_file(capsys):
    code, _, _ = run(["embed", "/nonexistent/design.json"], capsys)
    assert code == 2


def test_embed_rejects_a_zero_denominator_radius(lisonek_design_file, capsys):
    code, report = dispatch(["embed", str(lisonek_design_file), "--r2", "1/0"])
    captured = capsys.readouterr()
    assert code == 2 and report is None and captured.out == ""
    assert captured.err == "error: zero denominator in '1/0'\n"


def test_embed_rejects_invalid_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 4, "blocks": [[1, 0]]}))
    code, report = dispatch(["embed", str(bad)])
    assert code == 2 and report is None
    assert capsys.readouterr().err == f"error: {bad}: block 0 is not strictly ascending: (1, 0)\n"


def test_embed_witt_design(capsys):
    code, report, _ = run(["embed", str(DATA_DIR / "witt_4_23_7_1.json")], capsys)
    assert code == 0
    params = dict(report.sections[0][1])
    assert params["Lambda"] == "21" and params["n"] == "253"


@pytest.mark.parametrize("name", [
    "lisonek_design.json", "lisonek_complement.json", "witt_4_23_7_1.json"])
def test_embed_lt2_spectrum_is_the_closed_form(name, capsys):
    """--branch lt2 takes the lt2 radius and the antipodal orientation together."""
    from twodist.geometry import theoretical_spectrum

    code, report, _ = run(["embed", str(DATA_DIR / name), "--branch", "lt2"], capsys)
    assert code == 0
    sections = dict(report.sections)
    params = dict(sections["parameters"])
    closed = theoretical_spectrum(*(int(params[k]) for k in ("S", "m", "alpha", "beta")), "lt2")
    assert dict(sections["spectrum"]) == closed.as_strings()
    assert dict(sections["classification"]) == {"two-distance": "False"}


def test_embed_witt_gram_dump(witt_design, capsys):
    """Every entry of the 276 x 276 dump is the Gram value of its pair's relation."""
    from twodist.coherent import GRAM_CLASS_OF_RELATION, from_design, projector_and_gram
    from twodist.exactnum import parse_scalar

    from oracles import label_matrix

    code, _, out = run(
        ["embed", str(DATA_DIR / "witt_4_23_7_1.json"), "--dump-gram", "--json"], capsys)
    assert code == 0
    sections = {s["title"]: s["rows"] for s in json.loads(out)["sections"]}
    dump = [row["value"].split(" | ") for row in sections["projector matrix"]]
    assert [row["name"] for row in sections["projector matrix"]] == [
        f"row {i}" for i in range(276)]
    assert all(len(row) == 276 for row in dump)
    cc = from_design(witt_design)
    gram = projector_and_gram(cc).gram
    values = {text: parse_scalar(text) for row in dump for text in set(row)}
    for a, row in enumerate(label_matrix(cc).tolist()):
        for b, k in enumerate(row):
            assert values[dump[a][b]] == gram[GRAM_CLASS_OF_RELATION[k]], (a, b, k)


def test_solve_command(capsys):
    code, report, _ = run(["solve", "--smax", "8", "--mmax", "50"], capsys)
    assert code == 0
    summary = dict(report.sections[0][1])
    assert summary["accepted"] == "2"
    accepted_titles = [t for t, rows in report.sections
                       if "certificate" in t and dict(rows)["verdict"] == "accepted"]
    assert accepted_titles == [
        "certificate (S,m,x,y,z) = (2, 9, 1, 0, 1)",
        "certificate (S,m,x,y,z) = (7, 27, 3, 1, 2)",
    ]


def test_classify_command(capsys):
    code, report, _ = run(["classify", "--zmax", "4"], capsys)
    assert code == 0
    assert dict(report.sections[0][1])["accepted"] == "1"


def test_regions_small_box(capsys):
    code, report, _ = run(
        ["regions", "--which", "g1", "--zmin", "-8", "--zmax", "8", "--xmax", "60"],
        capsys)
    assert code == 0
    strip = dict(report.sections[2][1])
    assert strip["discriminant"] == "41"
    code2, report2, _ = run(
        ["regions", "--which", "g2", "--zmin", "-16", "--zmax", "11", "--xmax", "60"],
        capsys)
    assert code2 == 0
    values = dict(report2.sections[2][1])
    assert values["g2(1, -1)"] == "136"
    assert values["g2(1, 0)"] == "0" and values["g2(2, 0)"] == "0"


def test_identities_command(capsys):
    code, report, _ = run(["identities"], capsys)
    assert code == 0
    assert all(value == "zero polynomial" for _, value in report.sections[0][1])


def test_usage_errors(capsys):
    assert dispatch(["unknown-command"])[0] == 2
    assert dispatch([])[0] == 2
    assert dispatch(["regions"])[0] == 2  # --which is required


@pytest.mark.parametrize("box", [
    ["--which", "g1", "--zmin", "5", "--zmax", "-5"],
    ["--which", "g2", "--xmax", "0"],
    ["--which", "g1", "--zmin", "-1", "--zmax", "0"],
])
def test_regions_vacuous_box_exits_two(box, capsys):
    code, report, out = run(["regions", *box], capsys)
    assert code == 2
    assert report is None and out == ""


def test_solve_box_without_an_s_m_pair_exits_two(capsys):
    code, report, out = run(["solve", "--mmax", "2"], capsys)
    assert code == 2
    assert report is None and out == ""


def _wrong_golden_gram(monkeypatch):
    from twodist import cli

    monkeypatch.setitem(cli.GOLDEN_GRAM, "V_diag", "1/2")
    return "projector"


def _tight_design_admitting_z2(monkeypatch):
    # family (i) at z = 2 is (S, m) = (7, 27): a filter that admits it accepts a second z
    from twodist import dioph

    monkeypatch.setattr(dioph, "TIGHT_DESIGN", (27, 7, 1))
    return "z = 2: (S,m,x,y) = (7, 27, 3, 1)"


def _nonzero_residue(monkeypatch):
    from twodist import dioph

    monkeypatch.setattr(dioph, "P1", dioph.P1 + 1)
    return "identities"


def _wrong_g1_region(monkeypatch):
    from twodist import regions

    region3 = ("region3", 0, 1, 1, (1, 1, 0), (3, 1, 1), "D given the wrong sign")
    monkeypatch.setattr(regions, "_G1_PROOF", (*regions._G1_PROOF[:-1], region3))
    return "violations"


MATH_FAILURES = [
    (["verify", "lisonek"], _wrong_golden_gram, lambda rows: rows["check"] == "FAIL"),
    (["classify", "--zmax", "3"], _tight_design_admitting_z2,
     lambda rows: rows["verdict"] == "accepted"),
    # every identity is still reported; the two that read P1 show their residue
    (["identities"], _nonzero_residue,
     lambda rows: len(rows) == 7 and rows["p1 on the y1 branch"] == "Poly(1*x^2)"
     and rows["p1 on family (i)"] == "Poly(256)"
     and sum(v == "zero polynomial" for v in rows.values()) == 5),
    (["regions", "--which", "g1", "--zmin", "-2", "--zmax", "2", "--xmax", "5"],
     _wrong_g1_region,
     lambda rows: rows["count"] == "2" and "region3: N, x = 1 + u, t = 3 + u + w" in rows),
]


def test_math_failure_exits_one(monkeypatch, capsys):
    # a failed expectation must flip the report to failure, print it and exit 1
    for argv, inject, check in MATH_FAILURES:
        with monkeypatch.context() as patch:
            title = inject(patch)
            code, report, out = run(argv, capsys)
        assert code == 1, argv
        assert report.status == "failure"
        assert out == report.to_text() and out.splitlines()[1] == "status: failure"
        assert check(dict(next(rows for t, rows in report.sections if t == title))), argv


# ----- exit-code contract ---------------------------------------------------

LISONEK_FILE = str(DATA_DIR / "lisonek_design.json")
OVER_DIGIT_LIMIT = "7" * 5000   # Python converts at most 4,300 digits between int and str
TWICE_DERIVED = derived_design(derived_design(load_design(DATA_DIR / "witt_4_23_7_1.json"), 0), 0)
# written into the test's tmp directory, which "{tmp}" in an argv names
CONTRACT_FILES = {
    "latin1.json": b'{"m": 3, "blocks": [[0, 1], [1, 2]], "name": "\xe9"}',
    "big_int.json": b'{"m": ' + OVER_DIGIT_LIMIT.encode() + b', "blocks": [[0, 1]]}',
    "not_qs.json": b'{"m": 4, "blocks": [[0, 1], [2, 3]]}',
    "axioms_fail.json": b'{"m": 4, "blocks": [[0, 1], [2, 3], [0, 2]]}',
    # 2-(6,3,2) with {2, 3, 4} swapped for {0, 1, 5}: n and {1, 2} stand, (0, 1) lies in 3 blocks
    "not_2_design.json": b'{"m": 6, "blocks": [[0, 1, 2], [0, 1, 3], [0, 1, 5], [0, 2, 4],'
                         b' [0, 3, 5], [0, 4, 5], [1, 2, 5], [1, 3, 4], [1, 4, 5], [2, 3, 5]]}',
    "huge_m.json": b'{"m": 1' + b"0" * 200 + b', "blocks": [[0, 1], [0, 2], [1, 3]]}',
    # 10^10 points would take 28 GiB as an incidence matrix; point 3 lies in no block
    "uncovered.json": b'{"m": 10000000000, "blocks": [[0, 1], [1, 2], [0, 2]]}',
    # any two lines meet in one point: one intersection value, so not quasi-symmetric
    "fano.json": b'{"m": 7, "blocks": [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6],'
                 b' [2, 3, 6], [2, 4, 5]]}',
    # Witt's 4-(23,7,1) derived twice, a 2-(21,5,1): again any two blocks share one point
    "twice_derived.json": json.dumps(
        {"m": TWICE_DERIVED.m, "blocks": TWICE_DERIVED.blocks}).encode(),
}


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


# (argv, exit code, exception injected into derive_parameters or None)
EXIT_CODE_CONTRACT = [
    pytest.param(["verify", "lisonek"], 0, None, id="verify"),
    pytest.param(["params", "9", "2", "1", "0"], 1,
                 InternalConsistencyError("injected"), id="consistency-failure"),
    pytest.param(["params", "5", "2", "3", "0"], 2, None, id="params-ordering"),
    # a negative integer is a positional, so the ordering check, not the parser, rejects it
    pytest.param(["params", "-9", "2", "1", "0"], 2, None, id="params-negative-m"),
    pytest.param(["params", "5", "3", "2", "0"], 2, None, id="params-degenerate"),
    pytest.param(["params", "1" + "0" * 1500, "1" + "0" * 1400, "2", "1"], 2, None,
                 id="params-output-over-digit-limit"),
    # the antipodal orientation puts the in-block distance below the out-block one
    pytest.param(["embed", LISONEK_FILE, "--branch", "lt2"], 0, None, id="branch-lt2"),
    pytest.param(["embed", LISONEK_FILE, "--r2", "-1"], 2, None, id="r2-negative"),
    pytest.param(["embed", LISONEK_FILE, "--r2="], 2, None, id="r2-empty"),
    pytest.param(["embed", LISONEK_FILE, "--r2", "1/0"], 2, None, id="r2-zero-denominator"),
    pytest.param(["embed", LISONEK_FILE, "--r2", "sqrt(2)+sqrt(3)+sqrt(5)"], 2, None,
                 id="r2-three-radicands"),
    pytest.param(["embed", LISONEK_FILE, "--r2", "sqrt(0)"], 2, None, id="r2-zero-radicand"),
    # radii of two and three terms reach both levels of quadext_sign's recursion: a
    # two-term radius splits once into rationals, and a - sqrt(2) - sqrt(7) splits into
    # u = a - sqrt(7), v = -1 in Q(sqrt(7)), where u's sign and u^2 - 2's each split
    # again; 4059965/1000000 - sqrt(2) - sqrt(7) is about 1.3e-7
    pytest.param(["embed", LISONEK_FILE, "--r2", "2 - sqrt(2)"], 0, None, id="r2-two-terms"),
    pytest.param(["embed", LISONEK_FILE, "--r2", "1 - sqrt(2)"], 2, None,
                 id="r2-two-terms-negative"),
    pytest.param(["embed", LISONEK_FILE, "--r2", "5 - sqrt(2) - sqrt(7)"], 0, None,
                 id="r2-three-terms"),
    pytest.param(["embed", LISONEK_FILE, "--r2", "4 - sqrt(2) - sqrt(7)"], 2, None,
                 id="r2-three-terms-negative"),
    pytest.param(["embed", LISONEK_FILE, "--r2", "4059965/1000000 - sqrt(2) - sqrt(7)"], 0, None,
                 id="r2-three-terms-near-zero"),
    pytest.param(["embed", LISONEK_FILE, "--r2", "1 2"], 2, None, id="r2-syntax"),
    pytest.param(["embed", LISONEK_FILE, "--r2", OVER_DIGIT_LIMIT], 2, None,
                 id="r2-coefficient-over-digit-limit"),
    pytest.param(["embed", LISONEK_FILE, "--r2", f"sqrt({OVER_DIGIT_LIMIT})"], 2, None,
                 id="r2-radicand-over-digit-limit"),
    pytest.param(["embed", LISONEK_FILE, "--r2", "7" * 3000], 2, None,
                 id="r2-output-over-digit-limit"),
    pytest.param(["embed", LISONEK_FILE, "--r2", "sqrt(1000000000000000003)"], 2, None,
                 id="r2-radicand-too-large-to-factor"),
    pytest.param(["embed", "{tmp}/missing.json"], 2, None, id="design-missing"),
    pytest.param(["embed", "{tmp}"], 2, None, id="design-directory"),
    pytest.param(["embed", "{tmp}/latin1.json"], 2, None, id="design-not-utf8"),
    pytest.param(["embed", "{tmp}/big_int.json"], 2, None, id="design-int-over-digit-limit"),
    pytest.param(["embed", "{tmp}/not_qs.json"], 2, None, id="design-not-quasi-symmetric"),
    pytest.param(["embed", "{tmp}/fano.json"], 2, None, id="design-fano-plane"),
    pytest.param(["embed", "{tmp}/twice_derived.json"], 2, None, id="design-witt-twice-derived"),
    pytest.param(["embed", "{tmp}/axioms_fail.json"], 2, None, id="design-axioms-fail"),
    pytest.param(["embed", "{tmp}/not_2_design.json"], 2, None, id="design-not-a-2-design"),
    pytest.param(["embed", "{tmp}/huge_m.json"], 2, None,
                 id="design-huge-m-point-in-no-block"),
    pytest.param(["embed", "{tmp}/uncovered.json"], 2, None, id="design-point-in-no-block"),
]


def write_contract_files(directory: Path) -> None:
    for name, content in CONTRACT_FILES.items():
        (directory / name).write_bytes(content)


@pytest.mark.parametrize("argv, code, injected", EXIT_CODE_CONTRACT)
def test_exit_code_contract(argv, code, injected, tmp_path, monkeypatch, capsys):
    from twodist import cli

    write_contract_files(tmp_path)
    if injected is not None:
        monkeypatch.setattr(cli.designs, "derive_parameters", _raise(injected))
    got, report = dispatch([a.replace("{tmp}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert got == code
    if code == 0:
        assert report is not None and report.status == "ok" and captured.err == ""
    else:
        assert report is None and captured.out == ""
        prefix = "error: " if code == 2 else "consistency failure: "
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1


@pytest.mark.parametrize("name", ["fano.json", "twice_derived.json"])
def test_one_intersection_value_is_named(name, tmp_path, capsys):
    write_contract_files(tmp_path)
    assert dispatch(["embed", str(tmp_path / name)]) == (2, None)
    assert capsys.readouterr().err == (
        "error: design is not quasi-symmetric: intersection values (1,)\n")


@pytest.mark.parametrize("exc", [ValueError("a bug"), KeyError("a bug"), AssertionError("a bug")])
def test_other_exceptions_propagate(exc, monkeypatch, capsys):
    # only the classes in twodist.errors (and OSError) map to an exit code
    from twodist import cli

    monkeypatch.setattr(cli.designs, "derive_parameters", _raise(exc))
    with pytest.raises(type(exc)):
        dispatch(["params", "9", "2", "1", "0"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name, prefix", [
    ("latin1.json", "'utf-8' codec can't decode"),
    ("big_int.json", "Exceeds the limit (4300 digits)"),
])
def test_load_design_names_the_file(name, prefix, tmp_path):
    from twodist.designs import load_design

    path = tmp_path / name
    path.write_bytes(CONTRACT_FILES[name])
    with pytest.raises(DesignError) as err:
        load_design(path)
    assert str(err.value).startswith(f"{path}: {prefix}")


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "twodist.cli", "params", "9", "2", "1", "0"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "Lambda" in result.stdout


# ----- command line: the usage contract ---------------------------------------

USAGE_ERRORS = [
    ([], "command"),
    (["--json"], "command"),
    (["bogus"], "'bogus'"),
    (["params", "1", "2"], "alpha, beta"),
    (["params", "1", "2", "3", "4", "--bogus"], "--bogus"),
    (["verify", "other"], "'other'"),
    (["regions"], "--which"),
    (["regions", "--which", "g3"], "'g3'"),
    (["regions", "--which", "g1", "--zmin"], "--zmin"),
    (["classify", "--zmax", "x"], "'x'"),
    (["classify", "--zm", "3"], "--zm"),  # no prefix matching
    (["embed"], "design"),
    (["solve", "-x"], "-x"),
    (["embed", "tests/data/lisonek_design.json", "--dump-gram=1"], "--dump-gram=1"),  # a flag takes no value
    (["solve", "--no-gate"], "unrecognized arguments: --no-gate"),  # solve gates every candidate
]


@pytest.mark.parametrize("argv, offending", USAGE_ERRORS,
                         ids=[" ".join(argv) or "<none>" for argv, _ in USAGE_ERRORS])
def test_usage_error_contract(argv, offending, capsys):
    """Exit 2 with no report, a usage line and one error line naming the argument."""
    assert dispatch(argv) == (2, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: twodist ")
    assert error.startswith("twodist") and ": error: " in error and offending in error


@pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in COMMANDS)],
                         ids=" ".join)
def test_help_names_every_option(argv, capsys):
    from twodist.cli import JSON_OPTION

    assert dispatch(argv) == (0, None)
    captured = capsys.readouterr()
    assert captured.err == ""
    for name in COMMANDS if argv == ["--help"] else argv[:1]:
        assert f"twodist {name}" in captured.out
        for flag, *_ in COMMANDS[name][3] + [JSON_OPTION]:
            assert f"[{flag}" in captured.out or f" {flag} " in captured.out, flag


@pytest.mark.parametrize("first, second", [
    (["regions", "--which", "g1", "--zmin=-5", "--zmax", "8", "--xmax", "40"],
     ["regions", "--which", "g1", "--zmin", "-5", "--zmax", "8", "--xmax", "40"]),
    (["params", "9", "2", "1", "0", "--json"], ["params", "--json", "9", "2", "1", "0"]),
])
def test_spellings_give_the_same_report(first, second, capsys):
    code, _, out = run(first, capsys)
    code2, _, out2 = run(second, capsys)
    assert code == code2 == 0 and out == out2


def test_dispatch_imports_no_argparse():
    probe = ("import sys; from twodist.cli import dispatch; "
             "dispatch(['params', '9', '2', '1', '0']); dispatch(['identities']); "
             "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_geometry_imports_no_dioph():
    probe = "import sys, twodist.geometry; print('twodist.dioph' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_no_command_imports_numpy():
    # every golden command line, then the benchmark's library entry
    from test_cli_golden import CASES

    probe = ("import contextlib, io, json, sys\n"
             "from twodist.cli import dispatch\n"
             "from twodist import dioph\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    for argv in json.loads(sys.argv[1]):\n"
             "        dispatch(argv)\n"
             "    dioph.y2_curve_search(3, 40, -5, 5)\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    result = subprocess.run([sys.executable, "-c", probe, json.dumps(CASES)], cwd=ROOT,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_no_module_under_src_imports_numpy():
    import ast

    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(n.split(".")[0] == "numpy" for n in names), (
                f"{path.relative_to(ROOT)}:{node.lineno} imports numpy")


def test_readme_lists_the_commands_as_help_does(capsys):
    """README's "Command line" block is the command listing `twodist --help` prints."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    dispatch(["--help"])
    assert capsys.readouterr().out.split("\n\n")[-1] == block


# ----- command line: the table parser against an argparse reference -------------

PARSER_CASES = [
    ["--help"], [], ["--json"], ["bogus"],
    *([name, "--help"] for name in COMMANDS),
    ["params", "1", "2"], ["params", "1", "2", "3", "4", "--bogus"],
    ["verify", "other"], ["regions"], ["regions", "--which", "g3"],
    ["classify", "--zm", "3"],
]


def _argparse_reference():
    """An argparse parser holding every command of COMMANDS, without prefix matching."""
    import argparse

    from twodist.cli import JSON_OPTION

    parser = argparse.ArgumentParser(prog="twodist")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        for pos, kind, choices in positionals:
            p.add_argument(pos, type=kind, choices=choices)
        for flag, kind, default, choices, required in options + [JSON_OPTION]:
            if kind is None:
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(flag, type=kind, default=default, choices=choices,
                               required=required)
    return parser


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "<none>")
def test_narrowed_parser_matches_the_full_parser(argv, capsys):
    """The table parser, which reads only the named command's row, ends as argparse does.

    Exit code and error message (or the parsed arguments) equal those of an
    argparse parser holding every command.  The program named before the message
    may differ: argparse reports unrecognized arguments as `twodist`, the table
    parser as `twodist <cmd>`.  Help text is built from the table, so only its
    exit code and an empty stderr are compared.
    """
    from twodist import cli

    def parse(parser):
        try:
            outcome = vars(parser(argv))
            outcome.pop("command", None)
        except SystemExit as exc:
            outcome = exc.code
        captured = capsys.readouterr()
        return outcome, bool(captured.out), [
            line.partition(": error: ")[2] for line in captured.err.splitlines()[-1:]]

    assert parse(cli._parse) == parse(_argparse_reference().parse_args)


def test_dispatch_builds_only_the_named_subcommand(monkeypatch, capsys):
    """dispatch reads the row of the command it runs and no other."""
    from twodist import cli

    read = []

    class Recording(dict):
        def __getitem__(self, name):
            read.append(name)
            return super().__getitem__(name)

    monkeypatch.setattr(cli, "COMMANDS", Recording(COMMANDS))
    assert dispatch(["params", "9", "2", "1", "0"])[0] == 0
    assert set(read) == {"params"}
    read.clear()
    assert dispatch(["bogus"]) == (2, None)
    assert read == []
    assert "argument command: invalid choice: 'bogus'" in capsys.readouterr().err
