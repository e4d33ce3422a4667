#!/usr/bin/env python3
"""Construct the rank-one matching pair for a random step function.

Prints both output functions (one per Hermitian class) and re-verifies
the matching of orbit integrals at a few invariants.
"""

import random
from fractions import Fraction

import click

from orbitlab.harness import random_step_function
from orbitlab.integrals import (construct_jr_transfer_n1, gl_orbit_integral,
                                unitary_orbit_integral)
from orbitlab.scalar import LocalField, ratsqrt
from orbitlab.spaces import GLTriple
from orbitlab.steps import Space


@click.command()
@click.option("--p", type=int, default=3)
@click.option("--tau", type=str, default=None)
@click.option("--seed", type=int, default=0)
def main(p, tau, seed):
    lf = LocalField(p, Fraction(tau) if tau else None)
    rng = random.Random(seed)
    f = random_step_function(Space.lines(lf, 3), rng, nterms=3)
    click.echo(f"input: {f}")
    f0, f1 = construct_jr_transfer_n1(lf, f, rng=rng)
    click.echo(f"norm-class side: {len(f0.terms)} terms")
    click.echo(f"other side: {len(f1.terms)} terms")
    for delta, b in ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(9)),
                     (Fraction(2), Fraction(1, 9))):
        lin = gl_orbit_integral(lf, f, GLTriple([[delta]], [1], [b]))
        # b is a rational square: w = sqrt(b) has norm invariant b
        uni = unitary_orbit_integral(lf, f0, delta, ratsqrt(b))
        mark = "ok" if lin == uni else "MISMATCH"
        click.echo(f"delta={delta} b={b}: linear {lin} vs unitary {uni} "
                   f"[{mark}]")


if __name__ == "__main__":
    main()
