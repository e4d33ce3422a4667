"""orbitlab verification benchmark.

    python3 perfbench/run.py --workload germ --seed 1 --seconds 20 --trace 0

A run is a sequence of fresh child processes, one at a time: SETUP_RUNS
that only set up (import orbitlab, build the inputs), then passes, each a
new process that sets up and checks every instance of the run once, until
the passes have measured --seconds.  So every figure comes from a cold
interpreter, as every orbitlab invocation does.  With --trace 1 a single
child makes the traced passes instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries the details
(tail percentile and sample count, digests, environment, witnesses).

Other modes:
    --replay FILE [--line N]   re-run a failure witness (one JSON per line)
    --write-digests            recompute perfbench/digests.json
    --instances N              run only the first N instances (for tests)
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORKLOADS = ("germ", "transfer", "descent", "signs")
SETUP_RUNS = 2
DEADLINE_S = 170
# the probe's time (child.probe_sample) at the machine speed that every
# reported time is scaled to
REF_S = 0.25e-3

E2E_UNITS = {
    "instances_per_s": "1/s",
    "instance_ms_p50": "ms",
    "instance_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ns"):
        return "ns"
    if name.endswith("_max"):
        return "level"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def scaled(seconds: float, ref_s: float) -> float:
    """A time scaled to the machine speed at which the probe takes REF_S.
    The probe samples around and during every measured interval, so a
    shared machine that slows down for a while moves both together."""
    return seconds * REF_S / ref_s


def tail(times):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the slowest sample when there are ten or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def child(args: list[str], deadline: float) -> dict:
    """Run one fresh child process and return its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run([sys.executable, str(CHILD)] + args,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", type=int, default=None)
    ap.add_argument("--replay")
    ap.add_argument("--line", type=int, default=0)
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args(argv)

    if not (HERE.parent / "src" / "orbitlab").is_dir():
        print("orbitlab sources not found next to the benchmark",
              file=sys.stderr)
        return 2
    if args.write_digests or args.replay:
        extra = (["--write-digests"] if args.write_digests else
                 ["--replay", args.replay, "--line", str(args.line)])
        return subprocess.run([sys.executable, str(CHILD)] + extra).returncode
    if args.workload is None:
        ap.error("--workload is required")

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.instances is not None:
        common += ["--instances", str(args.instances)]
    try:
        setups = [child(common + ["--setup-only"], deadline)
                  for _ in range(SETUP_RUNS)]
        if args.trace:
            passes = [child(common + ["--trace", "1"], deadline)]
        else:
            passes = []
            while not passes or sum(r["wall_s"] for r in passes) < \
                    args.seconds:
                passes.append(child(common, deadline))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups += passes
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)

    detail = {"setup_s": statistics.median(
                  scaled(r["setup_s"], r["setup_ref_s"]) for r in setups),
              "setup_runs_s": [r["setup_s"] for r in setups],
              "passes": len(passes), "fail_ratio": failed / attempted,
              "run_digest": passes[0]["run_digest"],
              "witnesses": [w for r in passes for w in r["witnesses"]],
              "environment": passes[0]["environment"]}
    if args.trace:
        rec = passes[0]
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(rec["layer"].items())}
        detail.update({k: rec[k] for k in ("spans", "untraced_wall_s",
                                           "traced_wall_s")})
    else:
        # each instance's median scaled time over the fresh passes
        typical = [statistics.median(map(scaled, ts, refs))
                   for ts, refs in zip(zip(*(r["times"] for r in passes)),
                                       zip(*(r["refs"] for r in passes)))]
        raw = [statistics.median(ts)
               for ts in zip(*(r["times"] for r in passes))]
        value, pct = tail(typical)
        detail.update(
            tail_percentile=pct, tail_samples=len(typical),
            wall_s=[r["wall_s"] for r in passes],
            raw_instances_per_s=attempted / sum(r["wall_s"] for r in passes),
            raw_instance_ms_p50=1e3 * statistics.median(raw),
            raw_instance_ms_tail=1e3 * tail(raw)[0],
            probe_ms=[1e3 * statistics.median(r["refs"]) for r in passes])
        figures = {
            "instances_per_s": len(typical) / sum(typical),
            "instance_ms_p50": 1e3 * statistics.median(typical),
            "instance_ms_tail": 1e3 * value,
            "setup_s": detail["setup_s"],
            "peak_rss_mb": max(r["peak_rss_mb"] for r in passes),
        }
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
