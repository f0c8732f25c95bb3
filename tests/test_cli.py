import json
import subprocess
import sys
from pathlib import Path

import pytest

from twodist.cli import dispatch

DATA_DIR = Path(__file__).parent / "data"


def run(argv, capsys):
    code, report = dispatch(argv)
    out = capsys.readouterr().out
    return code, report, out


def test_verify_lisonek_exit_zero(capsys):
    code, report, out = run(["verify", "lisonek"], capsys)
    assert code == 0
    assert report.status == "ok"
    assert "45" in out and "1/3*sqrt(14)" in out


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


def test_embed_rejects_invalid_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 4, "blocks": [[1, 0]]}))
    code, _, _ = run(["embed", str(bad)], capsys)
    assert code == 2


def test_embed_witt_design(capsys):
    code, report, _ = run(["embed", str(DATA_DIR / "witt_4_23_7_1.json")], capsys)
    assert code == 0
    params = dict(report.sections[0][1])
    assert params["Lambda"] == "21" and params["n"] == "253"


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


def test_math_failure_exits_one(monkeypatch, capsys):
    # a violated bound must flip the report to failure and exit 1
    from twodist import cli, dioph

    def broken_scan(which, zmin=-100, zmax=100, xmax=10_000):
        report = dioph.RegionScanReport(which, zmin, zmax, xmax)
        report.notes["strip_equation"] = dioph.solve_strip_equation()
        report.violations.append(dioph.RegionViolation("region1", 5, 3, "7/2"))
        return report

    monkeypatch.setattr(cli.dioph, "region_scan", broken_scan)
    code, report, _ = run(
        ["regions", "--which", "g1", "--zmin", "-2", "--zmax", "2", "--xmax", "5"],
        capsys)
    assert code == 1
    assert report.status == "failure"


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "twodist.cli", "params", "9", "2", "1", "0"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "Lambda" in result.stdout
