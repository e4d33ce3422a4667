"""One fresh, single-threaded benchmark process.

Modes:
  (default)        set up, then run one pass over the run's instances;
                   prints one JSON record with every instance's time.
  --setup-only     set up, print the set-up time and exit.
  --trace 1        one untraced pass, one span-traced pass, one counting
                   pass and the kernel microbenchmarks; per-layer record.
  --replay FILE    re-run the failure witness on line --line of FILE.
  --write-digests  run every pool instance and store its digest.

Set-up is everything from the first line of this file through importing
orbitlab and building the run's inputs, up to the first instance.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse
import contextlib
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench-out"


PROBE_STEPS = 100        # one probe sample: this many steps of a fixed loop
PROBE_EVERY_S = 0.05     # sampling period while an instance runs


def probe_sample() -> float:
    """Seconds for PROBE_STEPS steps of a fixed loop of exact rational
    arithmetic, the kind of work orbitlab does: the machine-speed probe."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, PROBE_STEPS + 1):
        acc += Fraction(i % 7 + 1, i % 97 + 1)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the machine speed just before, during (on a timer signal
    every PROBE_EVERY_S) and just after the interval it encloses, so that a
    long interval is matched with the speed the machine had throughout."""

    def __enter__(self):
        self.samples = [probe_sample() for _ in range(3)]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def _tick(self, signum, frame):
        self.samples.append(probe_sample())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples += [probe_sample() for _ in range(3)]

    def seconds(self) -> float:
        return statistics.median(self.samples)


def digest(values) -> str:
    blob = json.dumps(values, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_orbitlab():
    """Import orbitlab from this checkout's sources and resolve the table."""
    src = ROOT / "src"
    if not (src / "orbitlab").is_dir():
        raise SystemExit(f"orbitlab sources not found under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import engines
    return engines


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)["workloads"]


class Runner:
    """Runs instances, checks results and digests, and keeps witnesses.
    With probe set, it times every instance inside a SpeedProbe."""

    def __init__(self, E, workload, seed, instances, expected):
        self.E = E
        self.workload = workload
        self.seed = seed
        self.instances = instances
        self.expected = expected
        self.ledger = E.NormalizationLedger()
        self.probe = True
        self.times = []
        self.refs = []
        self.attempted = 0
        self.failed = 0
        self.witnesses = []
        self.digests = []

    def run_one(self, index, inst, on_start=None):
        ledger_before = self.ledger.to_json()
        if on_start:
            on_start(index)
        probe = SpeedProbe()
        with probe if self.probe else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                values, problems = inst.check(self.E, self.ledger)
            except Exception:
                values, problems = None, [traceback.format_exc(limit=3)]
            elapsed = time.perf_counter() - start
        if self.probe:
            self.times.append(elapsed)
            self.refs.append(probe.seconds())
        got = digest(values) if values is not None else None
        want = self.expected.get(inst.record["key"])
        if values is not None and got != want:
            problems = problems + [f"digest {got} != stored {want}"]
        self.attempted += 1
        self.digests.append(got)
        if problems:
            self.failed += 1
            self.witnesses.append({
                "workload": self.workload, "seed": self.seed, "index": index,
                "key": inst.record["key"], "record": inst.record,
                "ledger": ledger_before, "problems": problems,
                "digest": got, "expected": want})

    def run_pass(self, on_start=None):
        """Check every instance once; returns the pass's wall time."""
        start = time.perf_counter()
        for index, inst in enumerate(self.instances):
            self.run_one(index, inst, on_start)
        return time.perf_counter() - start


def environment():
    head = None
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref_path = git / ref[5:]
            if ref_path.exists():
                head = ref_path.read_text().strip()
            else:
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        head = line.split()[0]
        else:
            head = ref
    except OSError:
        pass
    import sympy
    return {"python": sys.version.split()[0], "sympy": sympy.__version__,
            "nproc": os.cpu_count(), "commit": head,
            "loadavg_1m": os.getloadavg()[0]}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--replay")
    ap.add_argument("--line", type=int, default=0)
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args(argv)

    engines = load_orbitlab()
    import workloads

    if args.write_digests:
        return write_digests(engines, workloads)
    if args.replay:
        return replay(engines, workloads, args.replay, args.line)

    E = engines.resolve()
    keys = workloads.run_keys(args.workload, args.seed)[:args.instances]
    instances = [workloads.build(E, workloads.make_record(E, args.workload, k))
                 for k in keys]
    setup_s = time.perf_counter() - T0
    setup = {"setup_s": setup_s, "setup_ref_s": statistics.median(
        probe_sample() for _ in range(5))}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    expected = load_digests()[args.workload]
    runner = Runner(E, args.workload, args.seed, instances, expected)
    record = dict(setup, environment=environment())
    if args.trace:
        record.update(traced(engines, runner, args))
    else:
        record.update(
            wall_s=runner.run_pass(), times=runner.times, refs=runner.refs,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)
    record.update(attempted=runner.attempted, failed=runner.failed,
                  run_digest=digest(runner.digests[:len(instances)]),
                  witnesses=runner.witnesses)
    print(json.dumps(record))
    return 0


def traced(engines, runner, args):
    """Per-layer figures from one pass in each of three modes."""
    import micro
    import tracing

    runner.probe = False
    base_wall = runner.run_pass()

    spans = tracing.SpanTracer()
    spans.install()
    try:
        runner.E = engines.resolve()
        set_instance = lambda i: setattr(spans, "instance", i)
        trace_wall = runner.run_pass(on_start=set_instance)
    finally:
        spans.restore()
        runner.E = engines.resolve()
    layer, top = spans.summary()
    OUT_DIR.mkdir(exist_ok=True)
    spans.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.csv")
    span_count = len(spans.names)
    del spans

    counter = tracing.CallCounter()
    counter.install()
    try:
        runner.run_pass()
    finally:
        counter.restore()
    layer.update(counter.summary())
    layer.update(micro.run(runner.E, args.seed))
    layer["trace.overhead_ratio"] = trace_wall / base_wall
    layer["trace.unattributed_s"] = trace_wall - top
    return {"layer": layer, "spans": span_count, "untraced_wall_s": base_wall,
            "traced_wall_s": trace_wall}


def replay(engines, workloads, path, line):
    """Re-run one failure witness exactly as recorded."""
    with open(path) as fh:
        witness = json.loads(fh.read().splitlines()[line])
    E = engines.resolve()
    inst = workloads.build(E, witness["record"])
    p = witness["record"].get("p")
    expected = load_digests()[witness["workload"]]
    runner = Runner(E, witness["workload"], witness["seed"], [inst], expected)
    runner.ledger.constants = {k: E.Cyc.from_json(v, p)
                               for k, v in witness["ledger"].items()}
    runner.run_one(witness["index"], inst)
    out = runner.witnesses[0] if runner.witnesses else {
        "key": witness["key"], "problems": [], "digest": runner.digests[0],
        "expected": expected.get(witness["key"])}
    print(json.dumps({"reproduced": out["problems"] == witness["problems"]
                      and out["digest"] == witness["digest"],
                      "problems": out["problems"], "digest": out["digest"],
                      "expected": out["expected"]}))
    return 0


def write_digests(engines, workloads):
    """Run every pool instance once and store its digest; refuses to write
    when any instance fails its identity."""
    E = engines.resolve()
    table = {}
    bad = []
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for key in workloads.pool_keys(workload):
            inst = workloads.build(E, workloads.make_record(E, workload, key))
            start = time.perf_counter()
            values, problems = inst.check(E, E.NormalizationLedger())
            print(f"{workload} {key} {time.perf_counter() - start:.3f}s "
                  f"{'ok' if not problems else problems}", file=sys.stderr,
                  flush=True)
            if problems:
                bad.append((workload, key, problems))
            table[workload][key] = digest(values)
    if bad:
        print(json.dumps({"failed": bad}))
        return 1
    with open(DIGESTS, "w") as fh:
        json.dump({"workloads": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
