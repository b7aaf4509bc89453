"""One benchmark sample, in a process of its own.

    python3 perfbench/sample.py --workload suite --seed 0 [--size smoke]
                                [--trace] [--setup-only] [--tag NAME]

Run from the repository root.  A sample first times a fixed stdlib-only
probe loop, before symalg is imported, so a slow machine can be told from a
slow change.  It then sets up (import plus load_config), runs the workload
through symalg's public functions as `symalg check` would, and checks every
verdict.  Set-up and run are timed in reference-core seconds (setup_s,
wall_s; see coremeter.py) and in wall-clock seconds (setup_clock_s,
wall_clock_s).  Its last line on stdout is one JSON object.

Each sample needs a fresh process: the `lru_cache`s in symalg live for the
whole process, so a second run in the same process would be a warm run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from coremeter import CoreMeter
from layertrace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((HERE / "workloads.json").read_text())

SQUARES = ("nat.m", "nat.d", "nat.mu")
ANCHORS = {
    "nat.m": "multiplication is natural",
    "nat.d": "the deriving map is natural",
    "nat.mu": "substitution is natural",
}


def probe() -> float:
    """Seconds for a fixed loop of Fraction and dict work; symalg-free."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 20000):
        acc += Fraction(1, i % 97 + 1)
    table = {}
    for i in range(100000):
        k = (i * 7919) % 1000
        table[k] = table.get(k, 0) + i
    return time.perf_counter() - t0


def import_symalg():
    sys.path.insert(0, str(SRC))
    import symalg
    if not Path(symalg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"symalg was imported from {symalg.__file__}, not from {SRC}")
    return symalg


# -- workloads ---------------------------------------------------------------
# setup_* runs inside setup_s; run_* is the timed path to the verdict.

def setup_suite(symalg, size, seed):
    return [symalg.harness.load_config(str(HERE / "suite_config.json"),
                                       {"bound": size["bound"]})]


def setup_mutants(symalg, size, seed):
    muts = (None,) + tuple(symalg.laws.MUTATIONS)
    return [symalg.harness.load_config(None, {"bound": size["bound"], "mutate": m})
            for m in muts]


def run_configs(symalg, cfgs, size, tag):
    h = symalg.harness
    reports = []
    for i, cfg in enumerate(cfgs):
        report = h.run_suite(cfg)
        h.render_summary(report)
        h.write_report(report, str(OUT / f"report-{tag}-{i}.json"))
        reports.append(report)
    return reports


def poly_matrices(seed: int) -> dict:
    """One dense 2x2 map per square, entries in {1, 2}, no two maps alike.

    The amount of work must not depend on the seed: a zero entry or a
    cancelling sign drops terms, and two squares with the same map share
    apply_basis cache entries.
    """
    rng = random.Random(seed)
    mats = []
    while len(mats) < len(SQUARES):
        m = [[rng.choice((1, 2)) for _ in range(2)] for _ in range(2)]
        if m not in mats:
            mats.append(m)
    return dict(zip(SQUARES, mats))


def setup_poly(symalg, size, seed):
    symalg.harness.load_config(None)
    x = symalg.spaces.base("b", 2)
    maps = {sq: symalg.morphisms.linear_map_from_matrix(x, x, m)
            for sq, m in poly_matrices(seed).items()}
    return x, maps


def _square(M, sq, f, x):
    if sq == "nat.m":
        return (M.compose(M.Mult(x), M.SymF(f)),
                M.compose(M.TensorM(M.SymF(f), M.SymF(f)), M.Mult(x)))
    if sq == "nat.d":
        return (M.compose(M.Deriv(x), M.TensorM(M.SymF(f), f)),
                M.compose(M.SymF(f), M.Deriv(x)))
    return (M.compose(M.Mu(x), M.SymF(f)),
            M.compose(M.SymF(M.SymF(f)), M.Mu(x)))


def run_poly(symalg, state, size, tag):
    x, maps = state
    M, h = symalg.morphisms, symalg.harness
    rows = []
    for sq in SQUARES:
        t0 = time.perf_counter()
        row = {"law": sq, "anchor": ANCHORS[sq], "instance": "f:B2->B2",
               "bound": size[sq], "witness": None}
        try:
            v = M.check_equal(*_square(M, sq, maps[sq], x), size[sq])
            row.update(status=v.status, tested=v.tested_count,
                       witness=None if v.witness is None else repr(v.witness))
        except Exception:
            row.update(status="error", tested=0, witness=traceback.format_exc(limit=3))
        row["time_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
        rows.append(row)
    report = {
        "schema": "symalg-report/1",
        "config": {"workload": "poly", "bounds": dict(size)},
        "results": rows,
        "summary": {"laws_run": len(rows), "checks": len(rows),
                    "failures": sum(r["status"] != "equal" for r in rows),
                    "aborted": False},
    }
    h.render_summary(report)
    h.write_report(report, str(OUT / f"report-{tag}-0.json"))
    return [report]


WORKLOADS = {
    "suite": (setup_suite, run_configs),
    "poly": (setup_poly, run_poly),
    "mutants": (setup_mutants, run_configs),
}


# -- verdict gate ------------------------------------------------------------

def digest(symalg, reports) -> str:
    h = hashlib.sha256()
    for r in reports:
        h.update(json.dumps(symalg.harness.strip_timing(r), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def wrong_verdicts(symalg, workload, reports):
    """Checks whose status differs from the known answer, with notes.

    Unmutated laws and naturality squares are theorems, so each must be
    `equal`.  Under a mutation, each family in MUTATION_TARGETS must fail.
    """
    notes = []
    plain = reports[:1] if workload == "mutants" else reports
    for rep in plain:
        for row in rep["results"]:
            if row["status"] != "equal":
                notes.append(f"{row['law']}[{row['instance']}] is {row['status']}")
    if workload == "mutants":
        laws = symalg.laws
        for m, rep in zip(laws.MUTATIONS, reports[1:]):
            failing = {row["law"] for row in rep["results"] if row["status"] != "equal"}
            for family in laws.MUTATION_TARGETS[m]:
                if family not in failing:
                    notes.append(f"{family} passes under mutation {m}")
    return notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=SPEC["default_seed"])
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tag", default="sample")
    args = ap.parse_args(argv)
    size = SPEC["workloads"][args.workload][args.size]
    expected = SPEC["expected"].get(f"{args.workload}/{args.size}", {})
    setup, run = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    probe_s = probe()
    meter = CoreMeter().start()
    m0 = meter.mark()
    symalg = import_symalg()
    tracer = Tracer().install(symalg) if args.trace else None
    state = setup(symalg, size, args.seed)
    m1 = meter.mark()
    result = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "trace": args.trace, "probe_s": probe_s,
              "setup_s": meter.seconds(m0, m1), "setup_clock_s": meter.clock_seconds(m0, m1)}
    if args.setup_only:
        meter.stop()
        result["core_speed"] = meter.speed(m0, m1)
        print(json.dumps(result))
        return 0

    try:
        reports = run(symalg, state, size, args.tag)
        error = None
    except Exception:
        reports, error = [], traceback.format_exc()
    m2 = meter.mark()
    meter.stop()

    notes = wrong_verdicts(symalg, args.workload, reports)
    checks = sum(len(r["results"]) for r in reports)
    wrong = len(notes)
    if error is not None:
        notes.append(error)
        checks = wrong = max(expected.get("checks", 1), 1)
    dig = digest(symalg, reports)
    if dig != expected.get("digest"):
        notes.append(f"report digest {dig} differs from the recorded one")
        wrong += 1
    result.update(wall_s=meter.seconds(m1, m2), wall_clock_s=meter.clock_seconds(m1, m2),
                  core_speed=meter.speed(m0, m2),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  checks=checks, wrong_verdicts=wrong, digest=dig, notes=notes)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        (OUT / f"trace-{args.tag}.json").write_text(json.dumps({
            "layers": tracer.layer_table(), "missing": tracer.missing,
            "spans": tracer.spans}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
