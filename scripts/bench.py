#!/usr/bin/env python3
"""Write a BENCH_<n>.json record: perfbench figures, traced work counters
and tier-1 test times, for this checkout and optionally a parent checkout.

    python3 scripts/bench.py --out BENCH_7.json --parent ../orbitlab-parent

The benchmark itself is perfbench/run.py, called unchanged:

- every workload at each seed of SEEDS with --trace 0, for the run length
  that BENCHMARK.json fixes; with a parent, the two checkouts run in
  pairs, alternating which runs first;
- per end-to-end metric and side: every run, the median and the
  quartiles (inclusive method), and with a parent the pairs the change
  wins (ties count for neither side);
- the --trace 1 per-layer figures at TRACE_SEED;
- tier-1 (the ROADMAP command) with --durations=0: its wall time, its
  summary line and the call time of every acceptance criterion;
- the machine: platform, Python version, CPU count, and the 1-minute
  load average at the start and at the end of the record.
"""

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import click

HERE = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(11, 21))
TRACE_SEED = 1
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=0"]
DURATION = re.compile(r"^([\d.]+)s call\s+(tests/test_acceptance\.py::\S+)$")


def revision(root: Path) -> str | None:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def perfbench(root: Path, workload: str, seed: int, seconds: int,
              trace: int) -> dict:
    """One perfbench run in the given checkout: its last two lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise click.ClickException(f"perfbench failed in {root}:\n"
                                   f"{proc.stderr}")
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return {"detail": json.loads(detail)["detail"], **json.loads(result)}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def tier1(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.monotonic()
    proc = subprocess.run([sys.executable] + TIER1, cwd=root, env=env,
                          capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    acceptance = {}
    for line in lines:
        m = DURATION.match(line.strip())
        if m:
            acceptance[m.group(2).split("::")[1]] = float(m.group(1))
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1].strip("= ") if lines else "",
            "acceptance_call_s": dict(sorted(acceptance.items()))}


@click.command()
@click.option("--out", required=True, type=click.Path(path_type=Path),
              help="The BENCH_<n>.json file to write.")
@click.option("--parent", type=click.Path(exists=True, file_okay=False,
                                          path_type=Path),
              help="A checkout of the parent commit to compare against.")
def main(out, parent):
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"change": HERE} if parent is None else \
        {"parent": parent.resolve(), "change": HERE}
    machine = {"platform": platform.platform(),
               "python": platform.python_version(),
               "cpu_count": os.cpu_count(),
               "load_1min_start": os.getloadavg()[0]}
    record = {"seeds": list(SEEDS), "trace_seed": TRACE_SEED,
              "machine": machine,
              "run_seconds": seconds,
              "revisions": {s: revision(r) for s, r in sides.items()},
              "workloads": {}, "trace": {}, "tier1": {}}
    for w in (x["name"] for x in spec["workloads"]):
        runs = {s: [] for s in sides}
        for i, seed in enumerate(SEEDS):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for s in order:
                click.echo(f"{w} seed {seed} {s}", err=True)
                runs[s].append(perfbench(sides[s], w, seed, seconds, 0))
        entry = {s: {"attempted": sum(r["attempted"] for r in rs),
                     "failed": sum(r["failed"] for r in rs),
                     "digests": sorted({r["detail"]["run_digest"]
                                        for r in rs})}
                 for s, rs in runs.items()}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {s: [r["metrics"][name]["value"] for r in rs]
                      for s, rs in runs.items()}
            entry[name] = {s: summary(v) for s, v in values.items()}
            if parent is not None:
                sign = 1 if metric["better"] == "higher" else -1
                entry[name]["change_wins"] = sum(
                    sign * (c - p) > 0
                    for p, c in zip(values["parent"], values["change"]))
                entry[name]["pairs"] = len(SEEDS)
        record["workloads"][w] = entry
        record["trace"][w] = {}
        for s, root in sides.items():
            click.echo(f"{w} traced {s}", err=True)
            rec = perfbench(root, w, TRACE_SEED, seconds, 1)
            record["trace"][w][s] = {k: v["value"]
                                     for k, v in rec["metrics"].items()}
    for s, root in sides.items():
        click.echo(f"tier-1 {s}", err=True)
        record["tier1"][s] = tier1(root)
    machine["load_1min_end"] = os.getloadavg()[0]
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
