"""Command-line interface: exact reports, JSON mirrors, exit-code contract.

Exit codes: 0 when every expectation of the command holds, 1 when a
mathematical expectation fails, 2 for usage or input errors.  Every scalar in
a report is rendered through the exact textual grammar; the JSON form carries
exactly the same strings as the text form.

One table, `COMMANDS`, declares every command's arguments; `_parse` reads
argv by it, without argparse, and builds the help and usage text from it.
Options are spelled in full: prefix matching (`--zm` for `--zmax`) would make
every new option a breaking change for the abbreviations it makes ambiguous.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import NoReturn, Optional, Sequence

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
GOLDEN_R2 = "1/3*sqrt(14)"  # the block sphere's radius; goldens are compared as rendered text


def cmd_verify(args) -> CommandReport:
    report = CommandReport("verify lisonek")

    def expect(section, rows, condition):
        if not condition:
            report.fail()
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
    cc = coherent.from_design(design)
    params = cc.params
    alpha, beta, lam = params.alpha, params.beta, params.Lambda
    expect("design", [
        ("blocks", design.block_count),
        ("2-design", True),  # from_design refuses any other design
        ("Lambda", lam),
        ("intersection numbers", f"alpha={alpha}, beta={beta}"),
    ], lam == 1 and (alpha, beta) == (1, 0))

    expect("parameters", list(params.as_dict().items()),
           (params.Lambda, params.T, params.N, params.P, params.r,
            params.k, params.n, params.s) == (1, 8, 7, 2, 5, 14, 36, -2)
           and next(designs.integrality_violations(params), None) is None)

    # projector_and_gram raises unless E is verified
    result = coherent.projector_and_gram(cc)
    expect("projector", [
        ("axioms", "ok"),
        ("trace(E)", "8"),
        ("E^2 = E, E^T = E", "verified"),
        *result.gram.items(),
    ], all(format_scalar(result.gram[k]) == v for k, v in GOLDEN_GRAM.items()))

    spec = geometry.theoretical_spectrum(2, 9, 1, 0, "gt2")
    gram_spec = geometry.spectrum_from_gram(result.gram, spec.r2)
    spectra_ok = (
        spec.classes == gram_spec.classes
        and spec.classes == classes
        and format_scalar(spec.r2) == GOLDEN_R2
    )
    expect("spectrum", list(spec.as_strings().items()), spectra_ok)

    verdict = geometry.two_distance_classify(spec)
    residuals = dioph.p_residuals(2, 9, 1, 0)
    expect("classification", [
        ("two-distance", verdict.is_two_distance),
        ("gamma (squared distance)", format_scalar(verdict.gamma_sq)),
        ("case", verdict.letter or "-"),
        ("complement case", verdict.complement_letter or "-"),
        ("p residuals (gamma > 2)", str(residuals)),
    ], verdict.letter == "A" and verdict.gamma_sq == QuadExt(4) and residuals == (0, 0, 0))
    return report


# ----- params ----------------------------------------------------------------


def cmd_params(args) -> CommandReport:
    params = designs.derive_parameters(args.m, args.S, args.alpha, args.beta)
    violations = list(designs.integrality_violations(params))
    report = CommandReport(f"params {args.m} {args.S} {args.alpha} {args.beta}")
    report.add("parameters", list(params.as_dict().items()))
    report.add("block graph", [
        ("lambda", format_scalar(params.lambda_graph)),
        ("mu", format_scalar(params.mu_graph)),
    ])
    report.add("integrality", [("integrality gate", "fail" if violations else "pass"),
                               *[("violation", v) for v in violations]])
    return report


# ----- embed -------------------------------------------------------------------


def cmd_embed(args) -> CommandReport:
    design = designs.load_design(args.design)
    cc = coherent.from_design(design)
    result = coherent.projector_and_gram(cc)
    p = cc.params
    if args.r2 is not None:
        r2 = parse_scalar(args.r2)
    else:
        r2 = geometry.theoretical_spectrum(p.S, p.m, p.alpha, p.beta, args.branch).r2
    spec = geometry.spectrum_from_gram(result.gram, r2, args.branch)
    report = CommandReport(f"embed {args.design}")
    report.add("parameters", list(p.as_dict().items()))
    report.add("gram classes", list(result.gram.items()))
    report.add("spectrum", list(spec.as_strings().items()))
    try:
        verdict = geometry.two_distance_classify(spec)
        rows = [("two-distance", verdict.is_two_distance)]
        if verdict.is_two_distance:
            rows += [
                ("gamma (squared distance)", format_scalar(verdict.gamma_sq)),
                ("case", verdict.letter),
                ("complement case", verdict.complement_letter),
            ]
    except DegeneracyError as exc:
        rows = [("two-distance", f"degenerate: {exc}")]
    report.add("classification", rows)
    if args.dump_gram:
        # entry (a, b) of E is the coefficient of the relation holding (a, b)
        values = [str(v) for v in result.coefficients]
        report.add("projector matrix", [
            (f"row {u}", " | ".join(values[k] for k in coherent.relation_row(cc, u)))
            for u in range(cc.size)
        ])
    return report


# ----- solve / classify / regions / identities ---------------------------------


def _certificate_rows(cert: dioph.SolutionCertificate) -> list:
    rows = [(g.claim, f"{'pass' if g.passed else 'fail'}: {g.witness}") for g in cert.gates]
    return rows + [("verdict", cert.verdict)]


def cmd_solve(args) -> CommandReport:
    certs = dioph.brute_solver(args.smax, args.mmax)
    report = CommandReport(f"solve --smax {args.smax} --mmax {args.mmax}")
    accepted = [c for c in certs if c.accepted]
    report.add("summary", [
        ("candidates with p1 = p2 = p3 = 0", len(certs)),
        ("accepted", len(accepted)),
    ])
    for cert in certs:
        report.add(f"certificate (S,m,x,y,z) = {cert.candidate}", _certificate_rows(cert))
    return report


def cmd_classify(args) -> CommandReport:
    certs = dioph.classify(args.zmax)
    accepted = [c for c in certs if c.accepted]
    report = CommandReport(f"classify --zmax {args.zmax}")
    report.add("summary", [
        ("z range", f"1..{args.zmax}"),
        ("accepted", len(accepted)),
        *[("note", n) for n in dioph.FAMILY_NOTES],
    ])
    for cert in certs:
        report.add(f"z = {cert.candidate[4]}: (S,m,x,y) = {cert.smxy}", _certificate_rows(cert))
    if not (len(accepted) == 1 and accepted[0].candidate[4] == 1):
        report.fail()
    return report


def cmd_regions(args) -> CommandReport:
    scan = dioph.region_scan(args.which, zmin=args.zmin, zmax=args.zmax, xmax=args.xmax)
    report = CommandReport(f"regions --which {args.which}")
    report.add("box", [
        ("z", f"[{args.zmin}, {args.zmax}]"), ("x", f"<= {args.xmax}")])
    report.add("points checked", list(scan.points_checked.items()))
    if args.which == "g1":
        strip = dioph.solve_strip_equation()
        report.add("strip equation g1 = 1", [
            ("reduced quadratic", dioph.format_quadratic(strip.quadratic)),
            ("discriminant", strip.discriminant),
            ("roots", ", ".join(str(r) for r in strip.roots)),
            ("integer roots", strip.integer_roots or "none"),
        ])
    else:
        values = dioph.g2_integer_values()
        small_lo, small_hi = dioph.G2_SMALL_Z
        report.add(f"integral g2 values for x in {{1,2}}, z in [{small_lo}, {small_hi}]", [
            (f"g2({x}, {z})", v) for (x, z), v in sorted(values.items())
        ])
    report.add("violations", [
        ("count", len(scan.violations)),
        *[(s.claim, s.witness) for s in scan.violations[:20]],
    ])
    if not scan.ok:
        report.fail()
    return report


def cmd_identities(args) -> CommandReport:
    steps = dioph.verify_identities()
    report = CommandReport("identities")
    report.add("identities", [(s.claim, s.witness) for s in steps])
    if not all(s.passed for s in steps):
        report.fail()
    return report


# ----- command line -------------------------------------------------------------

# name -> (summary, handler, positionals, options).  A positional is
# (name, type, choices); an option is (flag, type, default, choices, required),
# with type None for a flag that stores True.  Every command also takes --json.
COMMANDS = {
    "verify": ("run the 45-point golden verification", cmd_verify,
               [("target", str, ("lisonek",))], []),
    "params": ("derived design parameters for (m, S, alpha, beta)", cmd_params,
               [("m", int, None), ("S", int, None), ("alpha", int, None), ("beta", int, None)], []),
    "embed": ("embed a design file and report its spectrum; R2 in the exact scalar grammar",
              cmd_embed, [("design", str, None)],
              [("--r2", str, None, None, False), ("--branch", str, "gt2", ("gt2", "lt2"), False),
               ("--dump-gram", None, False, None, False)]),
    "solve": ("brute-force the polynomial system on a box", cmd_solve, [],
              [("--smax", int, 30, None, False), ("--mmax", int, 400, None, False)]),
    "classify": ("walk the solution family and apply all gates", cmd_classify, [],
                 [("--zmax", int, 10, None, False)]),
    "regions": ("prove auxiliary-function bounds for every integer z", cmd_regions, [],
                [("--which", str, None, ("g1", "g2"), True), ("--zmin", int, -100, None, False),
                 ("--zmax", int, 100, None, False), ("--xmax", int, 10_000, None, False)]),
    "identities": ("verify the parametrization identities", cmd_identities, [], []),
}
JSON_OPTION = ("--json", None, False, None, False)
HELP_FLAGS = ("-h", "--help")
TOP_USAGE = "twodist {" + ",".join(COMMANDS) + "} ..."


def _usage(name: str) -> str:
    """One command's usage line, built from its row of COMMANDS."""
    _, _, positionals, options = COMMANDS[name]
    words = ["twodist", name]
    words += ["|".join(choices) if choices else pos.upper() for pos, _, choices in positionals]
    for flag, kind, default, choices, required in options + [JSON_OPTION]:
        if kind is not None:
            flag += " " + ("|".join(choices) if choices
                           else flag[2:].upper() if default is None else str(default))
        words.append(flag if required else f"[{flag}]")
    return " ".join(words)


def _usage_error(name: Optional[str], message: str) -> NoReturn:
    usage, prog = (TOP_USAGE, "twodist") if name is None else (_usage(name), f"twodist {name}")
    sys.stderr.write(f"usage: {usage}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _value(name: Optional[str], label: str, kind, choices, text: str):
    try:
        value = kind(text)
    except ValueError:
        _usage_error(name, f"argument {label}: invalid {kind.__name__} value: {text!r}")
    if choices and value not in choices:
        _usage_error(name, f"argument {label}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, choices))})")
    return value


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """argv's handler and arguments; help and usage errors raise SystemExit(0) and (2)."""
    if argv and argv[0] in HELP_FLAGS:
        listing = "\n".join(f"{_usage(name)}\n    {row[0]}" for name, row in COMMANDS.items())
        print(f"usage: {TOP_USAGE}\n\nExact two-distance embeddings of quasi-symmetric designs.\n"
              f"Options are spelled in full; `twodist COMMAND --help` shows one command.\n\n{listing}")
        raise SystemExit(EXIT_OK)
    if not argv or argv[0].startswith("-"):
        _usage_error(None, "the following arguments are required: command")
    name = _value(None, "command", str, tuple(COMMANDS), argv[0])
    summary, func, positionals, options = COMMANDS[name]
    flags = {spec[0]: spec for spec in options + [JSON_OPTION]}
    given = {flag: spec[2] for flag, spec in flags.items()}
    values, extras, tokens = [], [], iter(argv[1:])
    for token in tokens:
        if token in HELP_FLAGS:
            print(f"usage: {_usage(name)}\n\n{summary}")
            raise SystemExit(EXIT_OK)
        if token[:1] != "-" or token == "-" or token[1:].isdecimal():
            if len(values) < len(positionals):
                pos, kind, choices = positionals[len(values)]
                values.append(_value(name, pos, kind, choices, token))
            else:
                extras.append(token)
            continue
        flag, eq, text = token.partition("=")
        if flag not in flags or eq and flags[flag][1] is None:
            extras.append(token)
            continue
        _, kind, _, choices, _ = flags[flag]
        if kind is None:
            given[flag] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None:
                _usage_error(name, f"argument {flag}: expected one argument")
        given[flag] = _value(name, flag, kind, choices, text)
    missing = [pos for pos, _, _ in positionals[len(values):]]
    missing += [flag for flag, *_, required in options if required and given[flag] is None]
    if missing:
        _usage_error(name, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_error(name, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(func=func, **{pos: v for (pos, _, _), v in zip(positionals, values)},
                           **{flag[2:].replace("-", "_"): v for flag, v in given.items()})


def dispatch(argv: Sequence[str]) -> tuple[int, Optional[CommandReport]]:
    """Route a command line; returns (exit code, report).

    A handler returns only its report: the exit code is EXIT_MATH for a
    report whose status is "failure", else EXIT_OK, and errors exit as
    `twodist.errors` says.
    """
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code, None
    try:
        report = args.func(args)
    except (DesignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE, None
    except InternalConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_MATH, None
    _emit(report, args.json)
    return (EXIT_MATH if report.status == "failure" else EXIT_OK), report


def main() -> None:
    sys.exit(dispatch(sys.argv[1:])[0])


if __name__ == "__main__":
    main()
