"""The twodist benchmark: time to certificate, end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reproduce|witt|regions|symbolic|all \
        --seed N --seconds S --trace 0|1

``--trace 0`` runs each command of the workload in its own child process,
one at a time, as a user runs ``twodist``, and repeats whole passes of the
workload for ``--seconds``.  It reports the end-to-end metrics named in
BENCHMARK.json as medians over passes (``setup_s`` over every spawn),
with each child's times corrected for the host's speed at that moment (see
CAL_REF_S); the uncorrected medians are recorded as ``raw_*``.
``--trace 1`` runs the same passes inside this process, alternating
untraced passes with passes whose module functions are wrapped in spans
(see tracing.py), and reports the per-layer metrics.  Every command's output
is checked against a reference that does not come from the code under test
(see workloads.py); a wrong output counts in ``failed``.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the line before it, which
starts with ``perfbench-record``, records the host, versions, load and
sample counts.  ``--workload all`` runs the four workloads in turn and
prefixes each metric with its workload.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import workloads
from workloads import ROOT

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
# one child at a time on a 2-CPU host: keep numpy's thread pools at one thread
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MARKER = "perfbench-child "

# The host's speed drifts by 20-30% over seconds to minutes, and CPU time
# drifts with it.  Every child times a fixed calibration loop next to its
# command, and each of its times is scaled by CAL_REF_S / that loop's time:
# times are given for a host on which the loop takes CAL_REF_S seconds.
CAL_REF_S = 0.02

# per-command figures printed and recorded next to the gated metrics; they
# exist on one workload each, so they cannot be gated on every workload.
# raw_* are the same times without the calibration correction.
REPORTED_UNITS = {
    "verify_s": "s", "embed_s": "s", "dump_gram_s": "s", "regions_g1_s": "s",
    "regions_g2_s": "s", "y2_search_s": "s", "points_per_s": "1/s", "raw_wall_s": "s",
    "raw_setup_s": "s", "fail_ratio": "ratio",
}
QUADEXT_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "inverse")


@dataclass
class Outcome:
    """One command's exit code, output and timings (raw seconds)."""

    code: Optional[int]
    stdout: str
    exec_s: float
    setup_s: Optional[float] = None
    maxrss_kb: int = 0
    cal_s: Optional[float] = None
    problems: list = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor that brings this command's times to the reference host speed."""
        return CAL_REF_S / self.cal_s if self.cal_s else 1.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list) -> Outcome:
    """Run one command in a fresh interpreter and read its timings."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(None, "", time.monotonic() - start, problems=["timed out"])
    end = time.monotonic()
    stats = [line[len(MARKER):] for line in proc.stderr.splitlines() if line.startswith(MARKER)]
    if not stats:
        return Outcome(proc.returncode, proc.stdout, end - start,
                       problems=[f"child died: {proc.stderr.strip()[-300:]}"])
    info = json.loads(stats[-1])
    return Outcome(proc.returncode, proc.stdout, info["exec_s"], info["imported"] - start,
                   info["maxrss_kb"], statistics.fmean(info["cal_s"]))


def run_pass(commands: list, execute) -> dict:
    """Run one pass; returns its corrected timings and every problem found."""
    outcomes = []
    for cmd in commands:
        out = execute(cmd.argv)
        if not out.problems:
            out.problems = cmd.check(out.code, out.stdout)
        outcomes.append(out)
    per_metric: dict = {}
    for cmd, out in zip(commands, outcomes):
        if cmd.metric:
            per_metric[cmd.metric] = per_metric.get(cmd.metric, 0.0) + out.exec_s * out.scale
    boxed = [(cmd.points, out.exec_s * out.scale) for cmd, out in zip(commands, outcomes) if cmd.points]
    if boxed:
        per_metric["points_per_s"] = sum(p for p, _ in boxed) / sum(t for _, t in boxed)
    per_metric["raw_wall_s"] = sum(out.exec_s for out in outcomes)
    return {
        "wall_s": sum(out.exec_s * out.scale for out in outcomes),
        "setup": [out.setup_s * out.scale for out in outcomes if out.setup_s is not None],
        "raw_setup": [out.setup_s for out in outcomes if out.setup_s is not None],
        "peak_rss_mb": max(out.maxrss_kb for out in outcomes) / 1024,
        "per_metric": per_metric,
        "lattice_points": sum(cmd.points for cmd in commands),
        "attempted": len(outcomes),
        "failed": sum(1 for out in outcomes if out.problems),
        "problems": [f"{' '.join(cmd.argv)}: {p}" for cmd, out in zip(commands, outcomes)
                     for p in out.problems],
    }


def median_of(passes: list, key) -> tuple[float, int]:
    values = [key(p) for p in passes]
    values = [v for v in values if v is not None]
    return (statistics.median(values), len(values)) if values else (float("nan"), 0)


def run_untraced(workload, seconds: float) -> tuple[dict, dict, list]:
    spawn(["--help"])  # untimed: fills the byte-code cache of a fresh checkout
    passes = []
    deadline = time.monotonic() + seconds
    while not passes or time.monotonic() < deadline:
        passes.append(run_pass(workload.next_pass(), spawn))
    metrics = {
        "wall_s": median_of(passes, lambda p: p["wall_s"]),
        "setup_s": median_of([s for p in passes for s in p["setup"]], lambda s: s),
        "peak_rss_mb": median_of(passes, lambda p: p["peak_rss_mb"]),
    }
    reported = {name: median_of(passes, lambda p, n=name: p["per_metric"].get(n))
                for name in passes[0]["per_metric"]}
    reported["raw_setup_s"] = median_of([s for p in passes for s in p["raw_setup"]], lambda s: s)
    return metrics, reported, passes


# ----- traced run ------------------------------------------------------------------


def run_traced(workload, seconds: float) -> tuple[dict, dict, list]:
    """Alternate untraced and traced passes inside this process."""
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import tracing

    tracer = tracing.Tracer()
    cli, dioph = tracer.modules["cli"], tracer.modules["dioph"]
    tracer.hooks = {
        "coherent.verify_axioms": lambda t, args, res: t.count("coherent.axiom_madds", 81 * args[0].size ** 3),
        "coherent.projector_and_gram": lambda t, args, res: t.count(
            "coherent.dense_mults", res.cc.size ** 3 if res.matrix is not None else 0),
        "dioph.region_scan": lambda t, args, res: t.count(
            "dioph.points_checked", sum(res.points_checked.values())),
    }

    def execute(argv: list) -> Outcome:
        buf = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(buf):
            if argv[0] == "y2_curve_search":
                print(json.dumps(dioph.y2_curve_search(*(int(v) for v in argv[1:5]))))
                code = 0
            else:
                code = cli.dispatch(argv)[0]
        return Outcome(code, buf.getvalue(), time.perf_counter() - start)

    def clear_caches() -> None:
        # a user pays the lazy lru_cache fills on every command
        for mod in tracer.modules.values():
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    untraced, traced = [], []
    deadline = time.monotonic() + seconds
    while not traced or time.monotonic() < deadline:
        commands = workload.next_pass()
        clear_caches()
        untraced.append(run_pass(commands, execute))
        clear_caches()
        tracer.reset()
        tracer.install()
        try:
            record = run_pass(commands, execute)
        finally:
            tracer.uninstall()
        record["layers"] = layer_metrics(tracer, record["lattice_points"])
        traced.append(record)

    metrics = {name: median_of(traced, lambda p, n=name: p["layers"][n]) for name in traced[0]["layers"]}
    metrics["trace.traced_wall_s"] = median_of(traced, lambda p: p["wall_s"])
    metrics["trace.untraced_wall_s"] = median_of(untraced, lambda p: p["wall_s"])
    # each traced pass runs right after its untraced twin: pair them against drift
    metrics["trace.overhead_s"] = median_of(list(zip(untraced, traced)), lambda p: p[1]["wall_s"] - p[0]["wall_s"])
    return metrics, {}, untraced + traced


def layer_metrics(t, lattice_points: int) -> dict:
    def q(*ops):
        return [f"exactnum.QuadExt.{op}" for op in ops]

    return {
        "coherent.self_s": t.module_self_s("coherent"),
        "coherent.verify_axioms.s": t.inclusive_s("coherent.verify_axioms"),
        "coherent.verify_axioms.calls": t.calls("coherent.verify_axioms"),
        "coherent.projector_and_gram.s": t.inclusive_s("coherent.projector_and_gram"),
        "coherent.algebra_product.calls": t.calls("coherent.algebra_product"),
        "coherent.dense_mults": t.counters.get("coherent.dense_mults", 0),
        "coherent.axiom_madds": t.counters.get("coherent.axiom_madds", 0),
        "exactnum.self_s": t.module_self_s("exactnum"),
        "exactnum.quadext_arith.calls": t.calls(*q(*QUADEXT_ARITH)),
        "exactnum.squarefree_decompose.calls": t.calls("exactnum.squarefree_decompose"),
        "exactnum.quadext_sign.calls": t.calls("exactnum.quadext_sign"),
        "exactnum.format_scalar.calls": t.calls("exactnum.format_scalar"),
        "exactnum.parse_scalar.calls": t.calls("exactnum.parse_scalar"),
        "polynomials.self_s": t.module_self_s("polynomials"),
        "polynomials.poly_mul.calls": t.calls("polynomials.Poly.__mul__", "polynomials.Poly.__rmul__"),
        "polynomials.compose_cleared.calls": t.calls("polynomials.compose_cleared"),
        "polynomials.compose_cleared.s": t.inclusive_s("polynomials.compose_cleared"),
        "polynomials.subst_univariate.calls": t.calls("polynomials.Poly.subst_univariate"),
        "dioph.self_s": t.module_self_s("dioph"),
        "dioph.region_scan.s": t.inclusive_s("dioph.region_scan"),
        "dioph.points_checked": t.counters.get("dioph.points_checked", 0),
        "dioph.aux_g.calls": t.calls("dioph.aux_g"),
        "dioph.y2_curve_search.s": t.inclusive_s("dioph.y2_curve_search"),
        "dioph.verify_identities.s": t.inclusive_s("dioph.verify_identities"),
        "dioph.brute_solver.s": t.inclusive_s("dioph.brute_solver"),
        "designs.self_s": t.module_self_s("designs"),
        "designs.load_design.s": t.inclusive_s("designs.load_design"),
        "designs.intersection_numbers.s": t.inclusive_s("designs.intersection_numbers"),
        "designs.derive_parameters.calls": t.calls("designs.derive_parameters"),
        "geometry.self_s": t.module_self_s("geometry"),
        "geometry.configuration_distance_classes.s": t.inclusive_s("geometry.configuration_distance_classes"),
        "geometry.spectrum_from_gram.s": t.inclusive_s("geometry.spectrum_from_gram"),
        "geometry.two_distance_classify.s": t.inclusive_s("geometry.two_distance_classify"),
        "cli.self_s": t.module_self_s("cli"),
        "bench.lattice_points": lattice_points,
    }


# ----- result ----------------------------------------------------------------------


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():  # an exported checkout; do not pick up an enclosing repository
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "twodist").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(workload, name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Run a built workload for ``seconds``; returns its record and result."""
    load_start = os.getloadavg()[0]
    metrics, reported, passes = (run_traced if trace else run_untraced)(workload, seconds)
    expected = spec["per_layer" if trace else "end_to_end"]
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(expected)}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    reported["fail_ratio"] = (failed / attempted, attempted)
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "passes": len(passes), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "git_sha": git_sha(), "src_sha256": src_sha256(), "cal_ref_s": CAL_REF_S,
        "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0],
        "samples": {n: c for n, (_, c) in {**metrics, **reported}.items()},
        "reported": {n: {"value": v, "unit": REPORTED_UNITS[n]} for n, (v, _) in reported.items()},
        "problems": problems[:20],
    }
    print(f"perfbench: workload={name} seed={seed} trace={int(trace)} passes={len(passes)} "
          f"attempted={attempted} failed={failed}")
    for n, (v, c) in metrics.items():
        print(f"  {n:<44} {v:>16.6f} {spec['units'][n]:<14} (n={c})")
    for n, (v, c) in reported.items():
        print(f"  {n:<44} {v:>16.6f} {REPORTED_UNITS[n]:<14} (n={c}, reported, not gated)")
    for msg in problems[:20]:
        print(f"  FAILED {msg}")
    return {
        "record": record,
        "result": {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": spec["units"][n]} for n, (v, _) in metrics.items()},
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    with tempfile.TemporaryDirectory(prefix="perfbench-tmp-", dir=ROOT) as tmp:
        workload = workloads.WORKLOADS[name](random.Random(seed), Path(tmp))
        return measure(workload, name, seed, seconds, trace, spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "twodist" / "cli.py", workloads.DATA, ROOT / "BENCHMARK.json")
               if not p.exists()]
    if missing:
        print(f"perfbench: cannot run, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = spec["workloads"] if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {spec['workloads']} or all")
    runs = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec) for n in names}
    if args.workload == "all":
        result = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {f"{n}.{m}": v for n, r in runs.items() for m, v in r["result"]["metrics"].items()},
        }
        record = {n: r["record"] for n, r in runs.items()}
    else:
        result, record = runs[args.workload]["result"], runs[args.workload]["record"]
    print("perfbench-record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
