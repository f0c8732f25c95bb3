"""The benchmark's four workloads: seeded inputs, commands and output checks.

Each workload turns a seed into a list of ``twodist`` command lines (one
pass) and a check per command.  No check trusts the code under test.  The
references are:

- the committed golden report ``tests/data/lisonek_gram_golden.json``;
- design parameters counted here from the incidence structure;
- lattice-point counts computed here from the box;
- a table of known quasi-symmetric designs and the classical identities
  r = lambda (v - 1) / (k - 1) and b = v r / k;
- the three solutions and the single accepted family point the paper
  derives.

A check returns the list of problems it found; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

Check = Callable[[int, str], list]


@dataclass
class Command:
    """One twodist command line and how to judge its output."""

    argv: list
    check: Check
    metric: Optional[str] = None  # per-command time this command adds to
    points: int = 0               # lattice points in the command's box


# ----- report parsing ---------------------------------------------------------


def parse_text_report(text: str) -> tuple[str, list]:
    """Split a text report into its status and ``[(title, [(name, value)])]``.

    Rows are ``"  name<pad>  value"``; names never hold two spaces in a row,
    so the first run of two or more spaces separates name from value.
    """
    status = ""
    sections: list = []
    for line in text.splitlines():
        if line.startswith("status: "):
            status = line[len("status: "):]
        elif line.startswith("[") and line.endswith("]"):
            sections.append((line[1:-1], []))
        elif line.startswith("  ") and sections:
            parts = re.split(r"\s{2,}", line.strip(), maxsplit=1)
            sections[-1][1].append((parts[0], parts[1] if len(parts) > 1 else ""))
    return status, sections


def parse_json_report(text: str) -> tuple[str, list]:
    data = json.loads(text)
    return data["status"], [
        (s["title"], [(r["name"], r["value"]) for r in s["rows"]]) for s in data["sections"]
    ]


def text_report(code: int, out: str, problems: list) -> list:
    """Sections of a text report; a nonzero exit or a failed status is a problem."""
    if code != 0:
        problems.append(f"exit code {code}")
    status, sections = parse_text_report(out)
    if status != "ok":
        problems.append(f"status {status!r}")
    return sections


def section(sections: list, title: str) -> Optional[list]:
    for name, rows in sections:
        if name == title:
            return rows
    return None


def expect_rows(sections: list, title: str, expected: list, problems: list) -> None:
    rows = section(sections, title)
    if rows != expected:
        problems.append(f"section [{title}] is {rows!r}, expected {expected!r}")


def negate(scalar: str) -> str:
    """Negate a one-term scalar in the report grammar (``c`` or ``c*sqrt(d)``)."""
    if " " in scalar:
        raise ValueError(f"not a one-term scalar: {scalar!r}")
    if scalar == "0":
        return scalar
    return scalar[1:] if scalar.startswith("-") else "-" + scalar


# ----- designs ------------------------------------------------------------------


def read_design(path: Path) -> tuple[int, list]:
    data = json.loads(path.read_text())
    return data["m"], [list(b) for b in data["blocks"]]


def relabel(m: int, blocks: list, rng: random.Random) -> tuple[list, list, list]:
    """Random point relabeling and block order; blocks re-sorted.

    Returns ``(perm, order, blocks)``: old point p becomes ``perm[p]`` and new
    block j is old block ``order[j]``.
    """
    perm = list(range(m))
    rng.shuffle(perm)
    order = list(range(len(blocks)))
    rng.shuffle(order)
    return perm, order, [sorted(perm[p] for p in blocks[j]) for j in order]


def write_design(path: Path, m: int, blocks: list) -> str:
    path.write_text(json.dumps({"m": m, "blocks": blocks}))
    return str(path)


def _single(values, what: str) -> int:
    found = {int(v) for v in values}
    if len(found) != 1:
        raise ValueError(f"{what} is not constant: {sorted(found)}")
    return found.pop()


def design_parameters(m: int, blocks: list) -> list:
    """The report's parameter rows, counted from the incidence structure.

    Lambda and T are the pair and point replication numbers, alpha > beta the
    two block intersection sizes, k the degree of the block graph (blocks
    adjacent when they meet in alpha points), r and s its other two
    eigenvalues.  N counts the blocks through a point p of a block b that
    meet b in alpha points; P counts the same for p outside b.
    """
    import numpy as np

    n = len(blocks)
    inc = np.zeros((m, n), dtype=np.int64)
    for j, block in enumerate(blocks):
        inc[block, j] = 1
    off_v = ~np.eye(m, dtype=bool)
    off_b = ~np.eye(n, dtype=bool)
    pairs = inc @ inc.T
    inter = inc.T @ inc
    sizes = sorted({int(v) for v in inter[off_b]})
    if len(sizes) != 2:
        raise ValueError(f"not quasi-symmetric: intersection sizes {sizes}")
    beta, alpha = sizes
    adj = ((inter == alpha) & off_b).astype(np.int64)
    through = inc @ adj
    adj2 = adj @ adj
    k = _single(adj.sum(axis=1), "block graph degree")
    lam = _single(adj2[adj == 1], "block graph lambda")
    mu = _single(adj2[(adj == 0) & off_b], "block graph mu")
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = math.isqrt(disc)
    if root * root != disc:
        raise ValueError("block graph eigenvalues are irrational")
    values = {
        "m": m,
        "S": _single([len(b) for b in blocks], "block size"),
        "alpha": alpha,
        "beta": beta,
        "Lambda": _single(pairs[off_v], "pair replication"),
        "T": _single(inc.sum(axis=1), "point replication"),
        "N": _single(through[inc == 1], "N"),
        "P": _single(through[inc == 0], "P"),
        "n": n,
        "k": k,
        "r": (lam - mu + root) // 2,
        "s": (lam - mu - root) // 2,
    }
    return [(name, str(v)) for name, v in values.items()]


def check_embed(expected: dict, dump: Optional[list] = None) -> Check:
    """Check an ``embed`` report section by section, and the dumped matrix."""

    def check(code: int, out: str) -> list:
        problems: list = []
        if code != 0:
            problems.append(f"exit code {code}")
        try:
            status, sections = (parse_json_report if dump is not None else parse_text_report)(out)
        except (ValueError, KeyError) as exc:
            return problems + [f"unreadable report: {exc}"]
        if status != "ok":
            problems.append(f"status {status!r}")
        for title, rows in expected.items():
            expect_rows(sections, title, rows, problems)
        if dump is not None:
            got = [(name, value.split(" | ")) for name, value in section(sections, "projector matrix") or []]
            want = [(f"row {i}", row) for i, row in enumerate(dump)]
            if got != want:
                bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
                problems.append(f"projector matrix differs from the golden table at row {bad} "
                                f"({len(got)} rows, expected {len(want)})")
        return problems

    return check


# ----- workloads ------------------------------------------------------------------


class Reproduce:
    """verify lisonek, embed on relabeled Lisonek and complement designs, dump.

    The complement's projector is the Lisonek projector with the block fiber
    reflected: E_c = D E D with D = diag(1 on points, -1 on blocks).  So the
    golden 45 x 45 table also checks the complement's dump, entry by entry,
    through the relabeling.
    """

    def __init__(self, rng: random.Random, workdir: Path, tiny: bool = False):
        self.rng = rng
        self.workdir = workdir
        self.passes = 0
        golden = parse_json_report((DATA / "lisonek_gram_golden.json").read_text())[1]
        self.m, self.blocks = read_design(DATA / "lisonek_design.json")
        full = set(range(self.m))
        self.comp = [sorted(full - set(b)) for b in self.blocks]
        self.gram = section(golden, "gram classes")
        self.golden_matrix = [v.split(" | ") for _, v in section(golden, "projector matrix")]
        classes = dict(self.gram)
        comp_gram = [(k, v) for k, v in self.gram if not k.startswith("VB")] + [
            ("VB_in", negate(classes["VB_out"])), ("VB_out", negate(classes["VB_in"]))]
        self.lisonek_expected = {t: section(golden, t) for t in
                                 ("parameters", "gram classes", "spectrum", "classification")}
        self.comp_expected = {
            "parameters": design_parameters(self.m, self.comp),
            "gram classes": comp_gram,
            "classification": [("two-distance", "False")],
        }
        if section(golden, "parameters") != design_parameters(self.m, self.blocks):
            raise ValueError("golden parameters disagree with the Lisonek design")

    def check_verify(self, code: int, out: str) -> list:
        problems: list = []
        sections = text_report(code, out, problems)
        checks = [dict(rows).get("check") for _, rows in sections]
        if len(sections) != 6 or checks != ["pass"] * 6:
            problems.append(f"section checks {checks}")
        projector = dict(section(sections, "projector") or [])
        for name, value in self.gram:
            if projector.get(name) != value:
                problems.append(f"Gram class {name} = {projector.get(name)!r}, golden {value!r}")
        config = dict(section(sections, "point configuration") or [])
        if (config.get("points"), config.get("distance set")) != ("45", "sqrt(2), 2"):
            problems.append(f"point configuration {config}")
        return problems

    def complement_dump(self, perm: list, order: list) -> list:
        m = self.m
        inv = [0] * m
        for old, new in enumerate(perm):
            inv[new] = old
        old = inv + [m + j for j in order]
        sign = [1] * m + [-1] * len(order)
        g = self.golden_matrix
        return [[g[old[i]][old[j]] if sign[i] == sign[j] else negate(g[old[i]][old[j]])
                 for j in range(len(old))] for i in range(len(old))]

    def next_pass(self) -> list:
        i = self.passes = self.passes + 1
        _, _, lis = relabel(self.m, self.blocks, self.rng)
        perm, order, comp = relabel(self.m, self.comp, self.rng)
        lis_path = write_design(self.workdir / f"lisonek-{i}.json", self.m, lis)
        comp_path = write_design(self.workdir / f"complement-{i}.json", self.m, comp)
        return [
            Command(["verify", "lisonek"], self.check_verify, "verify_s"),
            Command(["embed", lis_path], check_embed(self.lisonek_expected), "embed_s"),
            Command(["embed", comp_path], check_embed(self.comp_expected), "embed_s"),
            Command(["embed", comp_path, "--dump-gram", "--json"],
                    check_embed(self.comp_expected, self.complement_dump(perm, order)),
                    "dump_gram_s"),
        ]


class Witt:
    """embed on relabeled copies of the 276-vertex 4-(23,7,1) configuration."""

    def __init__(self, rng: random.Random, workdir: Path, tiny: bool = False):
        self.rng = rng
        self.workdir = workdir
        self.passes = 0
        self.m, self.blocks = read_design(DATA / "witt_4_23_7_1.json")
        self.expected = {
            "parameters": design_parameters(self.m, self.blocks),
            "classification": [("two-distance", "False")],
        }

    def next_pass(self) -> list:
        i = self.passes = self.passes + 1
        _, _, blocks = relabel(self.m, self.blocks, self.rng)
        path = write_design(self.workdir / f"witt-{i}.json", self.m, blocks)
        return [Command(["embed", path], check_embed(self.expected), "embed_s")]


def g1_points(zmin: int, zmax: int, xmax: int) -> int:
    """Lattice points g1 certifies: 1 <= x <= xmax on every row but z = -1, 0,
    less the line x = z(z+1)/2, where g1 = 0 lies on no interval."""
    rows = [z for z in range(zmin, zmax + 1) if z not in (-1, 0)]
    return sum(xmax - (1 <= z * (z + 1) // 2 <= xmax) for z in rows)


def g2_points(zmin: int, zmax: int, xmax: int) -> int:
    """Lattice points g2 certifies: 3 <= x <= xmax on every row, plus
    x in {1, 2} on the rows z <= -15 and z >= 10."""
    large = sum(1 for z in range(zmin, zmax + 1) if z <= -15 or z >= 10)
    return (zmax - zmin + 1) * max(0, xmax - 2) + 2 * large


def check_regions(which: str, zmin: int, zmax: int, xmax: int) -> Check:
    expected = (g1_points if which == "g1" else g2_points)(zmin, zmax, xmax)

    def check(code: int, out: str) -> list:
        problems: list = []
        sections = text_report(code, out, problems)
        if section(sections, "violations") != [("count", "0")]:
            problems.append(f"violations {section(sections, 'violations')}")
        counted = section(sections, "points checked") or []
        total = sum(int(v) for _, v in counted if v.isdigit())
        if total != expected:
            problems.append(f"{total} points checked, the box holds {expected}")
        if which == "g1":
            strip = dict(section(sections, "strip equation g1 = 1") or [])
            if (strip.get("discriminant"), strip.get("integer roots")) != ("41", "none"):
                problems.append(f"strip equation {strip}")
        return problems

    return check


def check_y2(xmin: int, xmax: int, zmin: int, zmax: int) -> Check:
    """Every hit must lie on the line z = 0, and the line must be found whole."""
    expected = [[x, 0] for x in range(xmin, xmax + 1)] if zmin <= 0 <= zmax else []

    def check(code: int, out: str) -> list:
        problems: list = [] if code == 0 else [f"exit code {code}"]
        try:
            hits = json.loads(out)
        except ValueError as exc:
            return problems + [f"unreadable hits: {exc}"]
        if hits != expected:
            off = [h for h in hits if h[1] != 0][:5]
            problems.append(f"{len(hits)} hits, expected {len(expected)} on z = 0; off the line: {off}")
        return problems

    return check


class Regions:
    """regions --which g1, regions --which g2 and dioph.y2_curve_search on one box.

    The seed places an 81-row z window inside [-50, 50]; every window holds
    the degenerate row z = 0, the boundary rows -1 and 1, and rows with
    |z| >= 30, past the g2 large-|z| threshold on both sides.
    """

    def __init__(self, rng: random.Random, workdir: Path, tiny: bool = False):
        if tiny:
            self.zmin, self.zmax, self.xmax = -16, 10, 30
        else:
            self.zmin = -rng.randint(30, 50)
            self.zmax, self.xmax = self.zmin + 80, 2000
        box = [f"--zmin={self.zmin}", f"--zmax={self.zmax}", f"--xmax={self.xmax}"]
        rows = self.zmax - self.zmin + 1
        self.commands = [
            Command(["regions", "--which", "g1", *box], check_regions("g1", self.zmin, self.zmax, self.xmax),
                    "regions_g1_s", rows * self.xmax),
            Command(["regions", "--which", "g2", *box], check_regions("g2", self.zmin, self.zmax, self.xmax),
                    "regions_g2_s", rows * self.xmax),
            Command(["y2_curve_search", "3", str(self.xmax), str(self.zmin), str(self.zmax)],
                    check_y2(3, self.xmax, self.zmin, self.zmax), "y2_search_s", rows * (self.xmax - 2)),
        ]

    def next_pass(self) -> list:
        return self.commands


# Known quasi-symmetric 2-(v, k, lambda) designs with intersection sizes
# x > y, as (v, k, x, y, lambda); from the standard table in Shrikhande and
# Sane, "Quasi-symmetric designs" (1991).  The params command takes
# (m, S, alpha, beta) = (v, k, x, y).
QUASI_SYMMETRIC = [
    (9, 2, 1, 0, 1), (10, 4, 2, 1, 2), (19, 7, 3, 1, 7), (20, 8, 4, 2, 14),
    (21, 6, 2, 0, 4), (21, 7, 3, 1, 12), (22, 6, 2, 0, 5), (22, 7, 3, 1, 16),
    (23, 7, 3, 1, 21), (28, 7, 3, 1, 16), (36, 16, 8, 6, 12), (45, 9, 3, 1, 8),
    (49, 9, 3, 1, 6), (56, 16, 6, 4, 6),
]

# (S, m, x, y) of the three solutions of p1 = p2 = p3 = 0 the gates accept
SOLUTIONS = {(2, 9, 1, 0), (7, 27, 3, 1), (26, 90, 10, 6)}

IDENTITIES = [
    "p1 on the y1 branch", "p2 on the y1 branch", "p2 on the y2 branch",
    "p1 on family (i)", "p2 on family (i)", "p3 on family (i)",
    "block count n = C(m,2) on family (i)",
]


def check_identities(code: int, out: str) -> list:
    problems: list = []
    sections = text_report(code, out, problems)
    expect_rows(sections, "identities", [(n, "zero polynomial") for n in IDENTITIES], problems)
    return problems


def check_solve(code: int, out: str) -> list:
    problems: list = []
    sections = text_report(code, out, problems)
    accepted = set()
    for title, rows in sections:
        found = re.fullmatch(r"certificate \(S,m,x,y,z\) = \((.*)\)", title)
        if found and dict(rows).get("verdict") == "accepted":
            accepted.add(tuple(int(v) for v in found.group(1).split(", "))[:4])
    if accepted != SOLUTIONS:
        problems.append(f"accepted {sorted(accepted)}, expected {sorted(SOLUTIONS)}")
    if dict(section(sections, "summary") or []).get("accepted") != str(len(SOLUTIONS)):
        problems.append(f"summary {section(sections, 'summary')}")
    return problems


def check_classify(zmax: int) -> Check:
    def check(code: int, out: str) -> list:
        problems: list = []
        sections = text_report(code, out, problems)
        verdicts = {}
        for title, rows in sections:
            found = re.match(r"z = (-?\d+): ", title)
            if found:
                verdicts[int(found.group(1))] = dict(rows).get("verdict", "")
        if sorted(verdicts) != list(range(1, zmax + 1)):
            problems.append(f"family points z = {sorted(verdicts)}, expected 1..{zmax}")
        accepted = [z for z, v in verdicts.items() if v == "accepted"]
        if accepted != [1] or not all(v.startswith("rejected") for z, v in verdicts.items() if z != 1):
            problems.append(f"accepted z = {accepted}, expected only z = 1")
        if dict(section(sections, "summary") or []).get("accepted") != "1":
            problems.append(f"summary {section(sections, 'summary')}")
        return problems

    return check


def check_params(v: int, k: int, x: int, y: int, lam: int) -> Check:
    """Classical identities, not the code's own formulas, judge the table."""
    r = lam * (v - 1) // (k - 1)
    b = v * r // k

    def check(code: int, out: str) -> list:
        problems: list = []
        sections = text_report(code, out, problems)
        p = dict(section(sections, "parameters") or [])
        want = {"m": v, "S": k, "alpha": x, "beta": y, "Lambda": lam, "T": r, "n": b}
        got = {name: p.get(name) for name in want}
        if got != {name: str(val) for name, val in want.items()}:
            problems.append(f"parameters {got}, expected {want}")
        if section(sections, "integrality") != [("integrality gate", "pass")]:
            problems.append(f"integrality {section(sections, 'integrality')}")
        try:
            g = {**{n: int(p[n]) for n in ("n", "k", "r", "s")},
                 **{n: int(val) for n, val in section(sections, "block graph") or []}}
            n_, k_, lam_g, mu_g = g["n"], g["k"], g["lambda"], g["mu"]
            srg = k_ * (k_ - lam_g - 1) == (n_ - k_ - 1) * mu_g
            eig = g["r"] + g["s"] == lam_g - mu_g and g["r"] * g["s"] == mu_g - k_
        except (KeyError, ValueError) as exc:
            return problems + [f"unreadable block graph: {exc!r}"]
        if not (srg and eig):
            problems.append(f"block graph {g} is not strongly regular with eigenvalues r, s")
        return problems

    return check


class Symbolic:
    """identities, solve, classify and params on seed-chosen design tuples."""

    def __init__(self, rng: random.Random, workdir: Path, tiny: bool = False):
        zmax = rng.randint(6, 12)
        tuples = rng.sample(QUASI_SYMMETRIC, 4)
        self.commands = [
            Command(["identities"], check_identities),
            Command(["solve"], check_solve),
            Command(["classify", f"--zmax={zmax}"], check_classify(zmax)),
        ] + [
            Command(["params", str(v), str(k), str(x), str(y)], check_params(v, k, x, y, lam))
            for v, k, x, y, lam in tuples
        ]

    def next_pass(self) -> list:
        return self.commands


WORKLOADS = {"reproduce": Reproduce, "witt": Witt, "regions": Regions, "symbolic": Symbolic}
