"""Kernel microbenchmarks on seeded operands of the shapes the workloads
produce: rationals with p-power denominators, square-class pairs, sums of
roots of unity and quadratic-extension pairs, at p = 3 and p = 5.  The
operation counts are fixed here; each figure is the median over ROUNDS of
nanoseconds per call."""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

ROUNDS = 3
OPS = {
    "scalar.valuation": 6000,
    "scalar.psi": 1500,
    "scalar.hilbert": 1000,
    "cyclo.mul": 300,
    "cyclo.add": 1500,
    "cyclo.inverse": 300,
    "quadext.mul": 2000,
    "quadext.inverse": 1000,
}


def _operands(E, p: int, rng):
    lf = E.LocalField(p, Fraction(E.smallest_nonresidue(p)))
    units = [c for c in range(-3 * p, 3 * p + 1) if c % p]
    fracs = [Fraction(rng.choice(units) * p ** rng.randint(0, 3),
                      rng.choice((1, 2)) * p ** rng.randint(0, 3))
             for _ in range(64)]
    phases = [Fraction(rng.choice(units), p ** rng.randint(1, 3))
              for _ in range(64)]
    cycs = []
    for _ in range(16):
        c = E.Cyc.rational(Fraction(rng.choice(units), rng.randint(1, 3)), p)
        for _ in range(rng.randint(1, 3)):
            c = c + lf.psi(rng.choice(phases)) * Fraction(rng.choice(units))
        if c.is_zero():
            c = E.Cyc.one(p)
        cycs.append(c)
    # inverse() needs a rational norm: scaled roots of unity, the shape of
    # Weil indices and calibration ratios
    units_c = [lf.psi(rng.choice(phases)) * E.Cyc.rational(
        Fraction(rng.choice(units), rng.randint(1, 3)), p) for _ in range(16)]
    d0 = Fraction(E.squarefree_kernel(lf.tau))
    q2s = [E.Q2(d0, rng.choice(fracs), rng.choice(fracs)) for _ in range(64)]
    return lf, fracs, phases, cycs, units_c, q2s


def _time(fn, n: int) -> float:
    samples = []
    for _ in range(ROUNDS):
        start = perf_counter()
        fn(n)
        samples.append((perf_counter() - start) / n * 1e9)
    return statistics.median(samples)


def run(E, seed: int) -> dict:
    """ns per call for each kernel, averaged over p = 3 and p = 5."""
    rng = random.Random(f"micro:{seed}")
    totals = {name: 0.0 for name in OPS}
    for p in (3, 5):
        lf, fracs, phases, cycs, units_c, q2s = _operands(E, p, rng)
        val = E.valuation
        pairs = [(rng.choice(fracs), rng.choice(fracs)) for _ in range(64)]
        cyc_pairs = [(rng.choice(cycs), rng.choice(cycs)) for _ in range(16)]
        q2_pairs = [(rng.choice(q2s), rng.choice(q2s)) for _ in range(64)]
        kernels = {
            "scalar.valuation": lambda n: [val(fracs[i % 64], p)
                                           for i in range(n)],
            "scalar.psi": lambda n: [lf.psi(phases[i % 64])
                                     for i in range(n)],
            "scalar.hilbert": lambda n: [lf.hilbert(*pairs[i % 64])
                                         for i in range(n)],
            "cyclo.mul": lambda n: [a * b for a, b in
                                    (cyc_pairs[i % 16] for i in range(n))],
            "cyclo.add": lambda n: [a + b for a, b in
                                    (cyc_pairs[i % 16] for i in range(n))],
            "cyclo.inverse": lambda n: [units_c[i % 16].inverse()
                                        for i in range(n)],
            "quadext.mul": lambda n: [a * b for a, b in
                                      (q2_pairs[i % 64] for i in range(n))],
            "quadext.inverse": lambda n: [q2s[i % 64].inverse()
                                          for i in range(n)],
        }
        for name, n in OPS.items():
            totals[name] += _time(kernels[name], n) / 2
    return {f"{name}.ns": ns for name, ns in totals.items()}
