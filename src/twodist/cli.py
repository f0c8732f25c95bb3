"""Command-line interface: exact reports, JSON mirrors, exit-code contract.

Exit codes: 0 when every expectation of the command holds, 1 when a
mathematical expectation fails, 2 for usage or input errors.  Every scalar in
a report is rendered through the exact textual grammar; the JSON form carries
exactly the same strings as the text form.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import coherent, designs, dioph, geometry
from .errors import DegeneracyError, DesignError, InternalConsistencyError
from .exactnum import QuadExt, format_scalar, parse_scalar

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


class CommandReport:
    __slots__ = ("command", "status", "sections")

    def __init__(self, command: str):
        self.command, self.status, self.sections = command, "ok", []

    def add(self, title: str, rows) -> None:
        self.sections.append((title, [(str(k), str(v)) for k, v in rows]))

    def fail(self) -> None:
        self.status = "failure"

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "status": self.status,
            "sections": [
                {"title": title, "rows": [{"name": n, "value": v} for n, v in rows]}
                for title, rows in self.sections
            ],
        }

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"status: {self.status}"]
        for title, rows in self.sections:
            lines.append("")
            lines.append(f"[{title}]")
            width = max((len(n) for n, _ in rows), default=0)
            for name, value in rows:
                lines.append(f"  {name.ljust(width)}  {value}")
        return "\n".join(lines) + "\n"


def _emit(report: CommandReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.to_text(), end="")


# ----- verify ---------------------------------------------------------------

GOLDEN_GRAM = {
    "V_diag": "4/9", "V_off": "-1/18", "VB_in": "-1/18*sqrt(7)",
    "VB_out": "1/63*sqrt(7)", "B_diag": "1/9", "B_alpha": "5/126", "B_beta": "-2/63",
}


def _verify_lisonek(report: CommandReport) -> bool:
    ok = True

    def expect(section, rows, condition):
        nonlocal ok
        if not condition:
            ok = False
        report.add(section, rows + [("check", "pass" if condition else "FAIL")])

    config = geometry.lisonek_coordinates()
    classes = geometry.configuration_distance_classes(config)
    distance_sq = {str(v) for v in classes.values()}
    origin_r = {
        "simplex": {geometry.origin_norm_sq(p) for p in config.simplex_points},
        "blocks": {geometry.origin_norm_sq(p) for p in config.block_points},
    }
    expect("point configuration", [
        ("points", len(config.all_points)),
        ("squared distances", ", ".join(sorted(distance_sq))),
        ("distance set", "sqrt(2), 2"),
        ("origin radius^2 (simplex)", format_scalar(next(iter(origin_r["simplex"])))),
        ("origin radius^2 (blocks)", format_scalar(next(iter(origin_r["blocks"])))),
    ], len(config.all_points) == 45
       and distance_sq == {"2", "4"}
       and origin_r["simplex"] == {Fraction(4, 3)}
       and origin_r["blocks"] == {Fraction(2)})

    design = designs.lisonek_design()
    tres = designs.verify_t_design(design, 2)
    profile = designs.intersection_numbers(design)
    expect("design", [
        ("blocks", design.block_count),
        ("2-design", tres.is_t_design),
        ("Lambda", tres.Lambda),
        ("intersection numbers", f"alpha={profile.alpha}, beta={profile.beta}"),
    ], tres.is_t_design and tres.Lambda == 1 and (profile.alpha, profile.beta) == (1, 0))

    params = designs.derive_parameters(9, 2, 1, 0)
    gate = designs.integrality_gate(params)
    expect("parameters", list(params.as_dict().items()),
           (params.Lambda, params.T, params.N, params.P, params.r,
            params.k, params.n, params.s) == (1, 8, 7, 2, 5, 14, 36, -2)
           and gate.passed)

    cc = coherent.from_design(design)
    result = coherent.projector_and_gram(cc)
    axioms = result.axioms
    gram_ok = axioms.ok and all(
        result.gram[k] == parse_scalar(v) for k, v in GOLDEN_GRAM.items())
    expect("projector", [
        ("axioms", "ok" if axioms.ok else axioms.violation),
        ("trace(E)", "8"),
        ("E^2 = E, E^T = E", "verified"),
        *result.gram.as_strings().items(),
    ], gram_ok)

    spec = geometry.theoretical_spectrum(2, 9, 1, 0, "gt2")
    gram_spec = geometry.spectrum_from_gram(result.gram, spec.r2)
    spectra_ok = (
        spec.classes == gram_spec.classes
        and spec.classes == classes
        and spec.r2 == parse_scalar("1/3*sqrt(14)")
    )
    expect("spectrum", list(spec.as_strings().items()), spectra_ok)

    verdict = geometry.two_distance_classify(spec)
    residuals = geometry.p_residuals(2, 9, 1, 0)
    expect("classification", [
        ("two-distance", verdict.is_two_distance),
        ("gamma (squared distance)", format_scalar(verdict.gamma_sq)),
        ("case", verdict.case.letter if verdict.case else "-"),
        ("complement case", verdict.case.complement_letter if verdict.case else "-"),
        ("p residuals (gamma > 2)", str(residuals.gt2)),
    ], verdict.is_two_distance and verdict.gamma_sq == QuadExt(4)
       and verdict.case is not None and verdict.case.letter == "A"
       and residuals.gt2 == (0, 0, 0))
    return ok


def cmd_verify(args) -> tuple[int, CommandReport]:
    report = CommandReport("verify lisonek")
    if not _verify_lisonek(report):
        report.fail()
        return EXIT_MATH, report
    return EXIT_OK, report


# ----- params ----------------------------------------------------------------


def cmd_params(args) -> tuple[int, CommandReport]:
    params = designs.derive_parameters(args.m, args.S, args.alpha, args.beta)
    gate = designs.integrality_gate(params)
    report = CommandReport(f"params {args.m} {args.S} {args.alpha} {args.beta}")
    report.add("parameters", list(params.as_dict().items()))
    report.add("block graph", [
        ("lambda", format_scalar(params.lambda_graph)),
        ("mu", format_scalar(params.mu_graph)),
    ])
    gate_rows = [("integrality gate", "pass" if gate.passed else "fail")]
    gate_rows += [("violation", v) for v in gate.violations]
    report.add("integrality", gate_rows)
    return EXIT_OK, report


# ----- embed -------------------------------------------------------------------


def cmd_embed(args) -> tuple[int, CommandReport]:
    design = designs.load_design(args.design)
    cc = coherent.from_design(design)
    result = coherent.projector_and_gram(cc)
    p = cc.params
    if args.r2:
        r2 = parse_scalar(args.r2)
    else:
        r2 = geometry.theoretical_spectrum(p.S, p.m, p.alpha, p.beta, args.branch).r2
    spec = geometry.spectrum_from_gram(result.gram, r2, 1 if args.branch == "gt2" else -1)
    report = CommandReport(f"embed {args.design}")
    report.add("parameters", list(p.as_dict().items()))
    report.add("gram classes", list(result.gram.as_strings().items()))
    report.add("spectrum", list(spec.as_strings().items()))
    try:
        verdict = geometry.two_distance_classify(spec)
        rows = [("two-distance", verdict.is_two_distance)]
        if verdict.is_two_distance:
            if verdict.case is None:
                raise InternalConsistencyError("a two-distance verdict without a case label")
            rows += [
                ("gamma (squared distance)", format_scalar(verdict.gamma_sq)),
                ("case", verdict.case.letter),
                ("complement case", verdict.case.complement_letter),
            ]
    except DegeneracyError as exc:
        rows = [("two-distance", f"degenerate: {exc}")]
    report.add("classification", rows)
    if args.dump_gram:
        # entry (a, b) of E is the coefficient of the relation holding (a, b)
        values = [str(v) for v in result.coefficients]
        report.add("projector matrix", [
            (f"row {i}", " | ".join(values[k] for k in row))
            for i, row in enumerate((cc.relation_index_matrix() - 1).tolist())
        ])
    return EXIT_OK, report


# ----- solve / classify / regions / identities ---------------------------------


def _certificate_rows(cert: dioph.SolutionCertificate) -> list:
    rows = [(g.name, f"{'pass' if g.passed else 'fail'}: {g.witness}") for g in cert.gates]
    return rows + [("verdict", cert.verdict)]


def cmd_solve(args) -> tuple[int, CommandReport]:
    certs = dioph.brute_solver(args.smax, args.mmax, enforce_gate=not args.no_gate)
    report = CommandReport(f"solve --smax {args.smax} --mmax {args.mmax}")
    accepted = [c for c in certs if c.accepted]
    report.add("summary", [
        ("candidates with p1 = p2 = p3 = 0", len(certs)),
        ("accepted", len(accepted)),
        ("gate", "off" if args.no_gate else "on"),
    ])
    for cert in certs:
        report.add(f"certificate (S,m,x,y,z) = {cert.candidate}", _certificate_rows(cert))
    return EXIT_OK, report


def cmd_classify(args) -> tuple[int, CommandReport]:
    result = dioph.classify(args.zmax)
    report = CommandReport(f"classify --zmax {args.zmax}")
    report.add("summary", [
        ("z range", f"1..{args.zmax}"),
        ("accepted", len(result.accepted)),
        *[("note", n) for n in result.family_notes],
    ])
    for cert in result.certificates:
        report.add(f"z = {cert.candidate[4]}: (S,m,x,y) = {cert.smxy}", _certificate_rows(cert))
    expected = len(result.accepted) == 1 and result.accepted[0].candidate[4] == 1
    if not expected:
        report.fail()
        return EXIT_MATH, report
    return EXIT_OK, report


def cmd_regions(args) -> tuple[int, CommandReport]:
    scan = dioph.region_scan(args.which, zmin=args.zmin, zmax=args.zmax, xmax=args.xmax)
    report = CommandReport(f"regions --which {args.which}")
    report.add("box", [
        ("z", f"[{args.zmin}, {args.zmax}]"), ("x", f"<= {args.xmax}")])
    report.add("points checked", list(scan.points_checked.items()))
    if args.which == "g1":
        strip = scan.notes["strip_equation"]
        report.add("strip equation g1 = 1", [
            ("reduced quadratic", dioph.format_quadratic(strip.quadratic)),
            ("discriminant", strip.discriminant),
            ("roots", ", ".join(str(r) for r in strip.roots)),
            ("integer roots", strip.integer_roots or "none"),
        ])
    else:
        values = scan.notes["integer_values"]
        small_lo, small_hi = dioph.G2_SMALL_Z
        report.add(f"integral g2 values for x in {{1,2}}, z in [{small_lo}, {small_hi}]", [
            (f"g2({x}, {z})", v) for (x, z), v in sorted(values.items())
        ])
    report.add("violations", [
        ("count", len(scan.violations)),
        *[(f"({v.x}, {v.z}) in {v.region}", v.value) for v in scan.violations[:20]],
    ])
    if not scan.ok:
        report.fail()
        return EXIT_MATH, report
    return EXIT_OK, report


def cmd_identities(args) -> tuple[int, CommandReport]:
    report = CommandReport("identities")
    try:
        result = dioph.verify_identities()
    except InternalConsistencyError as exc:
        report.add("identities", [("failure", str(exc))])
        report.fail()
        return EXIT_MATH, report
    report.add("identities", [(name, "zero polynomial") for name in result.names])
    return EXIT_OK, report


# ----- dispatch ------------------------------------------------------------------


COMMANDS = ("verify", "params", "embed", "solve", "classify", "regions", "identities")


def _build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The twodist parser, with every subcommand or with the one named `only`.

    Help and usage text are the same either way: with `only`, the command
    metavar lists every name in COMMANDS.  An unknown command's error still
    names `argument command` only in the full parser, which `dispatch` builds
    for any argv that does not start with a command name.
    """
    parser = argparse.ArgumentParser(
        prog="twodist",
        description="Exact two-distance embeddings of quasi-symmetric designs.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if only is None else "{" + ",".join(COMMANDS) + "}")

    def command(name, summary, func):
        if only not in (None, name):
            return None
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    if p := command("verify", "run the 45-point golden verification", cmd_verify):
        p.add_argument("target", choices=["lisonek"])

    if p := command("params", "derived design parameters for (m, S, alpha, beta)", cmd_params):
        p.add_argument("m", type=int)
        p.add_argument("S", type=int)
        p.add_argument("alpha", type=int)
        p.add_argument("beta", type=int)

    if p := command("embed", "embed a design file and report its spectrum", cmd_embed):
        p.add_argument("design")
        p.add_argument("--r2", help="second radius in the exact scalar grammar")
        p.add_argument("--branch", choices=["gt2", "lt2"], default="gt2")
        p.add_argument("--dump-gram", action="store_true")

    if p := command("solve", "brute-force the polynomial system on a box", cmd_solve):
        p.add_argument("--smax", type=int, default=30)
        p.add_argument("--mmax", type=int, default=400)
        p.add_argument("--no-gate", action="store_true")

    if p := command("classify", "walk the solution family and apply all gates", cmd_classify):
        p.add_argument("--zmax", type=int, default=10)

    if p := command("regions", "certify auxiliary-function bounds on a box", cmd_regions):
        p.add_argument("--which", choices=["g1", "g2"], required=True)
        p.add_argument("--zmin", type=int, default=-100)
        p.add_argument("--zmax", type=int, default=100)
        p.add_argument("--xmax", type=int, default=10_000)

    command("identities", "verify the parametrization identities", cmd_identities)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="emit the JSON report")
    return parser


def _parser_for(argv: Sequence[str]) -> argparse.ArgumentParser:
    """Only the named subcommand's parser when argv starts with one, else the full parser."""
    return _build_parser(argv[0] if argv and argv[0] in COMMANDS else None)


def dispatch(argv: Sequence[str]) -> tuple[int, Optional[CommandReport]]:
    """Route a command line; returns (exit code, report); errors exit as `twodist.errors` says."""
    try:
        args = _parser_for(argv).parse_args(argv)
    except SystemExit as exc:
        return (int(exc.code) if exc.code else EXIT_OK), None
    try:
        code, report = args.func(args)
    except (DesignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE, None
    except InternalConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_MATH, None
    _emit(report, args.json)
    return code, report


def main() -> None:
    sys.exit(dispatch(sys.argv[1:])[0])


if __name__ == "__main__":
    main()
