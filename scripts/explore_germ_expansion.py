#!/usr/bin/env python3
"""Extract and display the germ expansion of a torus orbit integral.

Picks a random step function on a chosen factor mix and prints the
expansion coefficients, then spot-checks the prediction against direct
integration at a few deep sample points.
"""

import random
from fractions import Fraction

import click

from orbitlab.etale import EtaleAlgebra, LineFactor, QuadFactor
from orbitlab.harness import random_step_function
from orbitlab.integrals import (algebra_space, deep_element, germ_extract,
                                torus_orbit_integral)
from orbitlab.scalar import LocalField


@click.command()
@click.option("--p", type=int, default=3)
@click.option("--mix", default="L0,Q2",
              help="Comma list: L<root> for a line factor, Q<d0> for a "
                   "quadratic factor.")
@click.option("--seed", type=int, default=0)
def main(p, mix, seed):
    lf = LocalField(p)
    factors = []
    for tokn in mix.split(","):
        kind, arg = tokn[0].upper(), Fraction(tokn[1:])
        factors.append(LineFactor(lf, arg) if kind == "L"
                       else QuadFactor(lf, int(arg)))
    alg = EtaleAlgebra(lf, factors)
    rng = random.Random(seed)
    f = random_step_function(algebra_space(alg), rng, nterms=3, lo=-1, hi=1)
    germ = germ_extract(alg, f)
    click.echo(f"algebra: {alg}")
    click.echo(f"support radius: {germ.radius}")
    for (lam2, signs), coeff in sorted(germ.coeffs.items(), key=str):
        click.echo(f"  log-set {sorted(lam2)} signs {signs}: {coeff}")
    for depth in range(germ.radius, germ.radius + 3):
        eps = alg.element([deep_element(fac, depth, 1)
                           for fac in alg.factors])
        direct = torus_orbit_integral(alg, f, eps)
        predicted = germ.predict(eps)
        mark = "ok" if direct == predicted else "MISMATCH"
        click.echo(f"depth {depth}: direct {direct} vs germ {predicted} "
                   f"[{mark}]")


if __name__ == "__main__":
    main()
