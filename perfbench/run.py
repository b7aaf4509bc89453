"""The symalg benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  Every sample is a fresh process
(perfbench/sample.py), because symalg's process-global caches would make
every later sample in one process a warm run.  A run starts one warm-up
process (it compiles the bytecode), then timed samples, serially, each
after SETUPS_PER_SAMPLE set-up-only processes, while more than half of the
next one would fall within --seconds; it reports medians.  Times are in
reference-core seconds (coremeter.py): wall-clock time scaled by the speed
the shared core ran at, which a sample measures as it goes; the wall-clock
medians and the core's speed are printed and recorded beside them.  A traced run
(--trace 1) times one untraced sample, then traced samples, and reports the
per-layer metrics with the tracing overhead.

Every sample checks its verdicts (see sample.py); a wrong verdict makes the
run exit 1.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run, with the machine-noise
probe of every sample and the environment, goes to .perfbench_out/.

--smoke runs each workload once at its smallest size, traced and untraced,
and checks that it produces every metric BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((HERE / "workloads.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Metric name -> unit, as BENCHMARK.json lists them.
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

#: Set-up-only processes before each untraced sample; setup_s is the median
#: over these and the samples, spread over the whole run.
SETUPS_PER_SAMPLE = 2
#: A run ends within this many seconds whatever --seconds says.
HARD_LIMIT_S = 170.0


class SampleError(RuntimeError):
    pass


def environment() -> dict:
    src = ROOT / "src" / "symalg"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
        sha = p.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "source_sha256": h.hexdigest(),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def child(args, deadline: float) -> tuple[dict, float]:
    """Run one sample process; return its result and its duration."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise SampleError("out of time before a sample could start")
    t0 = time.perf_counter()
    try:
        p = subprocess.run([sys.executable, str(HERE / "sample.py"), *args],
                           cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise SampleError(f"sample {args} timed out after {timeout:.0f}s") from e
    if p.returncode != 0:
        raise SampleError(f"sample {args} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def sample_line(s: dict) -> str:
    return (f"sample trace={int(s['trace'])} probe_s={s['probe_s']:.4f} "
            f"core_speed={s['core_speed']:.3f} setup_s={s['setup_s']:.4f} "
            f"wall_s={s['wall_s']:.4f} wall_clock_s={s['wall_clock_s']:.4f} "
            f"peak_rss_mb={s['peak_rss_mb']:.2f} checks={s['checks']} "
            f"wrong_verdicts={s['wrong_verdicts']}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    deadline = t_start + HARD_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--tag", f"{workload}-{os.getpid()}"]
    child(base + ["--setup-only"], deadline)
    setups, samples, durations = [], [], {False: [], True: []}

    def take(traced: bool):
        t = time.perf_counter()
        if not trace:
            setups.extend(child(base + ["--setup-only"], deadline)[0]
                          for _ in range(SETUPS_PER_SAMPLE))
        s, _ = child(base + (["--trace"] if traced else []), deadline)
        samples.append(s)
        durations[traced].append(time.perf_counter() - t)
        print(sample_line(s), flush=True)

    def fits(traced: bool) -> bool:
        """Start another sample if more than half of it falls in the window."""
        est = statistics.median(durations[traced])
        now = time.perf_counter()
        return now + est / 2 <= t0 + seconds and now + 1.5 * est <= deadline

    t0 = time.perf_counter()
    if trace:
        take(False)
    take(trace)
    while fits(trace):
        take(trace)

    plain = [s for s in samples if not s["trace"]]
    traced = [s for s in samples if s["trace"]]
    notes = [n for s in samples for n in s["notes"]]
    failed = sum(s["wrong_verdicts"] for s in samples)
    digests = {s["digest"] for s in samples}
    if len(digests) > 1:
        notes.append(f"samples disagree on the report digest: {sorted(digests)}")
        failed += 1
    med = lambda key, ss: statistics.median(s[key] for s in ss)
    metrics = {
        "setup_s": statistics.median([s["setup_s"] for s in setups + plain]),
        "wall_s": med("wall_s", plain),
        "peak_rss_mb": med("peak_rss_mb", plain),
        "checks": statistics.median_low(s["checks"] for s in plain),
    }
    layers = {}
    if trace:
        # Counts repeat exactly from sample to sample; times take the median.
        layers = {name: statistics.median_low(s["layers"][name] for s in traced)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = med("wall_s", traced) - metrics["wall_s"]
    clock = {"setup_clock_s": statistics.median([s["setup_clock_s"] for s in setups + plain]),
             "wall_clock_s": med("wall_clock_s", plain),
             "core_speed": med("core_speed", samples)}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "elapsed_s": time.perf_counter() - t_start,
        "setups": setups, "samples": samples, "notes": notes,
        "attempted": sum(s["checks"] for s in samples), "failed": failed,
        "metrics": metrics, "clock": clock, "layers": layers,
    }


def report(run: dict, env: dict) -> int:
    OUT.mkdir(exist_ok=True)
    name = f"run-{run['workload']}-seed{run['seed']}-trace{int(run['trace'])}.json"
    (OUT / name).write_text(json.dumps({"environment": env, **run}, indent=1))
    for note in run["notes"]:
        print("WRONG", note)
    m = run["metrics"]
    for key, unit in END_TO_END.items():
        print(f"{key} {m[key]} {unit}")
    print(f"wrong_verdicts {run['failed']} count")
    for key, value in run["clock"].items():
        print(key, value, "ratio" if key == "core_speed" else "s")
    if run["trace"]:
        for key, unit in PER_LAYER.items():
            print(f"{key} {run['layers'][key]} {unit}")
        metrics = {k: {"value": run["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": m[k], "unit": u} for k, u in END_TO_END.items()}
    correct = run["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


def smoke() -> int:
    """Each workload once at its smallest size, untraced and traced."""
    ok = [w["name"] for w in BENCH["workloads"]] == list(SPEC["workloads"])
    print("BENCHMARK.json workload names", "match" if ok else "DIFFER")
    deadline = time.perf_counter() + 600
    for workload in SPEC["workloads"]:
        base = ["--workload", workload, "--size", "smoke", "--tag", f"smoke-{workload}"]
        plain, _ = child(base, deadline)
        traced, _ = child(base + ["--trace"], deadline)
        good = (plain["wrong_verdicts"] == 0 and traced["wrong_verdicts"] == 0
                and plain["digest"] == traced["digest"]
                and set(END_TO_END) <= set(plain)
                and set(PER_LAYER) - set(traced["layers"]) == {"trace.overhead_s"})
        print(f"{workload}: {'ok' if good else 'FAILED'} checks={plain['checks']} "
              f"wall_s={plain['wall_s']:.3f} traced_wall_s={traced['wall_s']:.3f}",
              *(plain["notes"] + traced["notes"]))
        ok = ok and good
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(SPEC["workloads"]))
    ap.add_argument("--seed", type=int, default=SPEC["default_seed"])
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "symalg" / "__init__.py").is_file():
        print(f"no symalg sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        env = environment()
        print("environment", json.dumps(env), flush=True)
        return report(measure(args.workload, args.seed, args.seconds, bool(args.trace)), env)
    except SampleError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
