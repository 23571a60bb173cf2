"""Catalog-cell benchmark: one workload at one seed, timed from spec to report.

Usage::

    python3 perfbench/run.py --workload fleet-azure --seed 1 --seconds 16 --trace 0

Each repetition runs in a fresh single-threaded ``cell.py`` process, one
after the other, until ``--seconds`` have passed, at the cell seeds
``workloads.cell_seed(seed, i)``.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``: host metrics (CPU time of the repetition's
process) are medians over repetitions, simulated metrics means over the
run's distinct cell seeds; set-up-only repetitions of the monolithic
workloads bring ``setup_s`` to at least ``MIN_SETUPS`` samples.  It also
prints the cells' CPU time and requests per CPU second, which are not
gated (``UNGATED``).  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, plus
those two from the untraced ones.  Every report is checked: a
crashed cell, an auditor violation (request conservation among them),
more requests stranded at quiesce than the workload's ceiling, a report
digest or stranded count that differs between repetitions of one seed
(traced or not), or a traced run whose layer times do not add up fails
the run.  The last
stdout line is one JSON object; the exit code is 0 only when every check
passed.  Without the program source (``src/repro``) the command exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from workloads import MONOLITHIC, SEEDS_PER_RUN, STRANDED_CEILING, cell_seed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT = 170.0  # seconds; a run must end within 180
MIN_SETUPS = 3  # set-up samples per untraced run of a monolithic workload

# cell.py result key -> end-to-end metric name (host metrics).
HOST_METRICS = {
    "cell_cpu_s": "cpu_s",
    "peak_rss_mb": "peak_rss_mb",
}
# Host-time metrics that the shared host cannot resolve within the 0.25
# bound across ten-run sets (perfbench/NOTES.md, Steadiness): every run
# prints them, and the traced run reports them as per-layer metrics, so
# they are never gated.
UNGATED = ("cell_cpu_s", "requests_per_s")
SIM_METRICS = {
    "sim_p99_ttft_s": "p99_ttft_s",
    "sim_p99_latency_s": "p99_latency_s",
    "sim_goodput_ratio": "goodput_ratio",
    "sim_gpus_held": "gpus_held",
}


def run_cell(workload: str, seed: int, traced: bool, timeout: float,
             setup_only: bool = False) -> dict:
    """One repetition in a fresh process; a dict with ``error`` on failure."""
    cmd = [sys.executable, str(HERE / "cell.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {timeout:.0f} s", "traced": traced}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail),
                "traced": traced}
    result = json.loads(lines[-1])
    result.update(traced=traced, setup_only=setup_only)
    return result


def repeat(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repetitions until ``seconds`` pass.

    An untraced run covers every one of the workload's cell seeds, then,
    on a monolithic workload, adds set-up-only repetitions until
    ``setup_s`` has ``MIN_SETUPS`` samples; a traced run alternates
    untraced and traced repetitions of one cell seed at a time.  No
    repetition starts that would end past the time limit.
    """
    n_seeds = SEEDS_PER_RUN[workload]
    minimum = 1 if trace else n_seeds
    t0 = time.perf_counter()
    reps: list[dict] = []
    rounds = 0
    while True:
        cell = cell_seed(seed, rounds % n_seeds)
        for traced in (False, True) if trace else (False,):
            left = TIME_LIMIT - (time.perf_counter() - t0)
            reps.append(dict(run_cell(workload, cell, traced, left), seed=cell))
        rounds += 1
        elapsed = time.perf_counter() - t0
        per_round = elapsed / rounds
        if any("error" in r for r in reps):
            return reps
        if rounds >= minimum and elapsed + per_round / 2 >= seconds:
            break
        if elapsed + per_round > TIME_LIMIT - 10.0:
            break
    if trace or workload not in MONOLITHIC:
        return reps
    for i in range(len(reps), MIN_SETUPS):
        t1 = time.perf_counter()
        left = TIME_LIMIT - (t1 - t0)
        rep = run_cell(workload, cell_seed(seed, i % n_seeds), False, left, True)
        reps.append(dict(rep, seed=cell_seed(seed, i % n_seeds)))
        if "error" in rep or (time.perf_counter() - t1) * 2 > left - 10.0:
            break
    return reps


def problems(reps: list[dict]) -> list[str]:
    """Every check that failed, over all repetitions."""
    out = [r["error"] for r in reps if "error" in r]
    done = [r for r in reps if "error" not in r and not r.get("setup_only")]
    for r in done:
        out.extend(r["failures"])
    for seed in sorted({r["seed"] for r in done}):
        same = [r for r in done if r["seed"] == seed]
        for key, shown in (("digest", "report digests"),
                           ("stranded", "stranded request counts")):
            if len({r[key] for r in same}) > 1:
                out.append(
                    f"{shown} differ between repetitions of seed {seed}: "
                    + ", ".join(f"{str(r[key])[:12]}{' (traced)' if r['traced'] else ''}"
                                for r in same)
                )
    for r in done:
        if not r["traced"]:
            continue
        if r["leftovers"]:
            out.append(f"wrappers left installed: {r['leftovers']}")
        t = r["tiling"]
        gap = t["self_s"] + t["wrapper_s"] + t["residual_s"] - t["wall_s"]
        if abs(gap) > 1e-6 * max(t["wall_s"], 1.0) or t["nest_error_s"] > 1e-9:
            out.append(f"layer times do not tile the traced wall time: {t}")
    return out


def end_to_end(untraced: list[dict]) -> dict[str, float]:
    """``untraced`` holds whole and set-up-only repetitions."""
    setups = [r["setup_s"] for r in untraced]
    untraced = [r for r in untraced if not r["setup_only"]]
    metrics = {
        name: statistics.median(r[key] for r in untraced)
        for name, key in HOST_METRICS.items()
    }
    metrics["setup_s"] = statistics.median(setups)
    metrics["requests_per_s"] = statistics.median(
        r["offered"] / r["cpu_s"] for r in untraced
    )
    # Simulated metrics: the mean over the run's distinct cell seeds.
    first = {}
    for r in untraced:
        first.setdefault(r["seed"], r)
    metrics.update({
        name: statistics.fmean(r["sim"][key] for r in first.values())
        for name, key in SIM_METRICS.items()
    })
    return metrics


def per_layer(reps: list[dict]) -> dict[str, float]:
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead"] = statistics.median(
        r["cpu_s"] for r in traced
    ) / statistics.median(r["cpu_s"] for r in untraced)
    host = end_to_end(untraced)
    metrics.update({name: host[name] for name in UNGATED})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; available: {names}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    reps = repeat(args.workload, args.seed, args.seconds, bool(args.trace))
    failed_checks = problems(reps)
    ran = len({r["seed"] for r in reps})
    if not args.trace and ran < SEEDS_PER_RUN[args.workload]:
        failed_checks.append(
            f"only {ran} of {SEEDS_PER_RUN[args.workload]} cell seeds ran "
            f"within {TIME_LIMIT:.0f} s"
        )
    done = [r for r in reps if "error" not in r]
    cells = [r for r in done if not r["setup_only"]]
    attempted = sum(r["cells"] for r in cells) + sum("error" in r for r in reps)
    failed = sum(r["failed_cells"] for r in cells) + sum("error" in r for r in reps)
    correct = not failed_checks
    untraced = [r for r in done if not r["traced"]]

    print(f"perfbench {args.workload} seed={args.seed}: {len(reps)} repetitions, "
          f"{failed} of {attempted} cells failed ({100.0 * failed / attempted:.1f}%)")
    for problem in failed_checks:
        print(f"  FAILED: {problem}")
    metrics: dict[str, dict] = {}
    if correct:
        for r in done:
            if r["setup_only"]:
                print(f"  cell seed {r['seed']} set-up only: "
                      f"set-up {r['setup_s']:.3f} CPU s")
                continue
            print(f"  cell seed {r['seed']}{' traced' if r['traced'] else ''}: "
                  f"{r['cpu_s']:.3f} CPU s ({r['wall_s']:.3f} s wall), set-up "
                  f"{r['setup_s']:.3f} CPU s, {r['offered']} requests offered, "
                  f"{r['stranded']} resident at quiesce (ceiling "
                  f"{STRANDED_CEILING[args.workload]:.0%}), reports sha256 {r['digest']}")
        if args.trace:
            values, wanted = per_layer(done), bench["per_layer"]
        else:
            values, wanted = end_to_end(untraced), bench["end_to_end"]
        unavailable = {
            name: r["unavailable"][key]
            for r in cells
            for name, key in SIM_METRICS.items()
            if key in r["unavailable"]
        }
        for spec in wanted:
            value = values[spec["name"]]
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"  {spec['name']:38s} {value:14.6f} {spec['unit']}")
            if spec["name"] in unavailable:
                # The result line holds only value and unit per metric, so
                # the reason goes into the text lines above it.
                print(f"      program value unavailable: {unavailable[spec['name']]}")
        if not args.trace:
            for name in UNGATED:
                print(f"  {name:38s} {values[name]:14.6f} (not gated; "
                      f"a per-layer metric of the traced run)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
