"""Offline, seeded, closed-loop benchmark of whole pentestflow runs.

One workload per process, one run at a time:

    python3 perfbench/run.py --workload engagement --seed 1 --seconds 20 --trace 0

prints the environment, the output-check result and every end-to-end metric
with its unit; ``--trace 1`` alternates untraced and traced runs and prints
the per-layer metrics instead, with the tracing overhead. ``--all`` runs
every workload, each in a fresh process, and prints one table. The last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Metric names and units come from BENCHMARK.json at the repository root;
README.md beside this file says which end-to-end metric each layer metric
should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_RUNS = 11  # the tail percentile needs ten samples beyond it


def _environment() -> str:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    return (
        f"env: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} commit={commit}"
    )


def _tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the maximum, at percentile 0, when there are too few runs."""
    ordered = sorted(values)
    n = len(ordered)
    if n < MIN_RUNS:
        return ordered[-1], 0
    return ordered[n - 11], math.floor(100 * (n - 10) / n)


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str, workdir: Path) -> dict:
    from generate import SCALES
    from tracing import Tracer, layer_metrics, stage_times
    from workloads import WORKLOADS, tree_bytes

    root = workdir / name
    workload = WORKLOADS[name](root, seed, SCALES[scale])
    tracer = Tracer()
    setup_times: list[float] = []
    runs: list[dict] = []
    failures: list[str] = []
    try:
        # the first set-up is not timed: creating files gets slower once a few
        # thousand have been created and deleted, and timing only later
        # set-ups keeps setup_s from depending on what ran before
        for repeat in range(workload.setup_repeats + 1):
            workload.teardown()
            os.chdir(workdir)
            shutil.rmtree(root, ignore_errors=True)
            root.mkdir(parents=True)
            os.chdir(root)
            started = perf_counter()
            workload.setup()
            if repeat:
                setup_times.append(perf_counter() - started)
        workload.record_baseline()

        def one_run(index: int, traced: bool) -> dict:
            gc.collect()  # start every run with the same collector state
            tracer.install(full=traced)
            tracer.begin_run(index)
            outcome: dict = {"traced": traced, "warmup": index < workload.warmup_runs}
            try:
                outcome["run_s"] = workload.run()
            except Exception as err:  # noqa: BLE001 - a crashed run is a failed run
                outcome["errors"] = [f"run raised {type(err).__name__}: {err}"]
            finally:
                tracer.uninstall()
            if "run_s" in outcome:
                outcome.update(stage_times(tracer))
                if traced:
                    outcome["layers"] = layer_metrics(tracer)
                try:
                    outcome["errors"] = workload.check()
                    run_dir = workload.run_dir()
                    outcome["run_dir_bytes"] = workload.run_dir_bytes()
                    outcome["rag.disk_bytes"] = tree_bytes(run_dir / "rag")
                    outcome["report.bytes"] = tree_bytes(run_dir / "report.md") + tree_bytes(
                        run_dir / "report.json"
                    )
                    outcome["ledger"] = dict(workload.ledger)
                except (OSError, KeyError, ValueError, RuntimeError) as err:
                    outcome["errors"] = [f"output check raised {type(err).__name__}: {err}"]
            workload.reset()
            failures.extend(f"run {index}: {e}" for e in outcome["errors"])
            return outcome

        # warm-up runs are checked but not timed: file-system and allocator
        # state settle over the first few runs of a process
        for index in range(workload.warmup_runs):
            runs.append(one_run(index, False))
        begun = perf_counter()
        index = workload.warmup_runs
        min_runs = 4 if trace else MIN_RUNS
        while perf_counter() - begun < seconds or len(runs) - workload.warmup_runs < min_runs:
            runs.append(one_run(index, trace and index % 2 == 0))
            index += 1
    finally:
        workload.teardown()
        os.chdir(ROOT)
    span_count = tracer.write(workdir / f"spans-{name}-seed{seed}.jsonl.gz")

    timed = [r for r in runs if not r["warmup"] and "run_s" in r and not r["errors"]]
    plain = [r for r in timed if not r["traced"]]
    traced_runs = [r for r in timed if r["traced"]]
    attempted = len(runs)
    failed = sum(1 for r in runs if r["errors"])
    info = {"failures": failures, "spans": span_count, "setup_runs": len(setup_times)}
    metrics: dict[str, float] = {}
    if plain:
        median = lambda key: statistics.median(r[key] for r in plain)  # noqa: E731
        ledger = lambda key: statistics.median(r["ledger"][key] for r in plain)  # noqa: E731
        tail, percentile = _tail([r["run_s"] for r in plain])
        info.update(tail_percentile=percentile, timed_runs=len(plain))
        metrics = {
            "run_s": median("run_s"),
            "run_s.tail": tail,
            "stage_s.recon": median("stage_s.recon"),
            "stage_s.analysis": median("stage_s.analysis"),
            "stage_s.exploit": median("stage_s.exploit"),
            "model_calls": ledger("call_count"),
            "input_tokens": ledger("input_tokens"),
            "cost_usd": ledger("accumulated_cost"),
            "run_dir_mb": median("run_dir_bytes") / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
    layers: dict[str, float] = {}
    if traced_runs:
        for key in traced_runs[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced_runs)
        layers["rag.disk_bytes"] = statistics.median(r["rag.disk_bytes"] for r in traced_runs)
        layers["report.bytes"] = statistics.median(r["report.bytes"] for r in traced_runs)
        if plain:
            layers["trace.overhead_s"] = statistics.median(
                r["run_s"] for r in traced_runs
            ) - metrics["run_s"]
        info["traced_runs"] = len(traced_runs)
    layers["run_fail_ratio"] = failed / attempted
    return {
        "attempted": attempted,
        "failed": failed,
        "e2e": metrics,
        "layers": layers,
        "info": info,
    }


def _units(trace: int) -> dict[str, str]:
    """Declared metric names and units: per-layer when traced, else end-to-end."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _print_metrics(values: dict[str, float], units: dict[str, str], notes: dict[str, str]) -> None:
    for name, unit in units.items():
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {shown:>14} {unit}{notes.get(name, '')}")


def run_one(args) -> int:
    units = _units(args.trace)
    workdir = Path(args.workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print(_environment())
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, workdir)
    info = result["info"]
    for line in info["failures"][:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(
        f"check: {result['attempted'] - result['failed']}/{result['attempted']} runs passed "
        f"(stage statuses, success index, evidence in report, plan grounded in the tree, "
        f"workload checks, report.md and record.json identical across runs)"
    )
    if args.trace:
        metrics = result["layers"]
        print(f"per-layer metrics, median over {info.get('traced_runs', 0)} traced runs "
              f"({info['spans']} spans written):")
        _print_metrics(metrics, units, {})
    else:
        metrics = result["e2e"]
        notes = {
            "run_s.tail": f"  (p{info.get('tail_percentile', 0)} of {info.get('timed_runs', 0)} runs)",
            "run_s": f"  (median of {info.get('timed_runs', 0)} runs)",
            "setup_s": f"  (median of {info['setup_runs']} set-ups)",
        }
        print("end-to-end metrics:")
        _print_metrics(metrics, units, notes)
        print(f"  {'run_fail_ratio':<36} {result['layers']['run_fail_ratio']:>14.6g} ratio")
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 3
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, then one table."""
    units = _units(args.trace)
    from workloads import WORKLOADS

    results: dict[str, dict] = {}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale, "--workdir", args.workdir],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        code |= 0 if results[name]["correct"] else 1
    print(f"\n{'metric':<36} {'unit':<10}" + "".join(f"{n:>16}" for n in results))
    for metric, unit in units.items():
        row = "".join(f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values())
        print(f"{metric:<36} {unit:<10}{row}")
    print(f"{'output check':<36} {'runs':<10}" + "".join(
        f"{r['attempted'] - r['failed']:>10}/{r['attempted']:<5}" for r in results.values()))
    print(json.dumps({name: r for name, r in results.items()}))
    return code


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "pentestflow" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from generate import SCALES
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--workdir", default=str(ROOT / ".perfbench-work"),
                        help="working directory for inputs and runs")
    args = parser.parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
