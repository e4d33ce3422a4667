"""Command-line front end: verification suites, the normalization ledger,
and a few small exact computations (orbit integrals, Hermitian-space
classification, rank-one matching).
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import click

from . import harness
from .etale import EtaleAlgebra, LineFactor
from .integrals import gl_orbit_integral, torus_orbit_integral
from .scalar import LocalField
from .spaces import GLTriple, HermitianSpace, construct_unitary_match
from .steps import Space, StepFunction

DEFAULT_LEDGER_ENV = "ORBITLAB_LEDGER"


# suite parameter -> the group option that sets it
SUITE_OPTIONS = {"p_list": "--p", "tau": "--tau", "seed": "--seed",
                 "instances": "--instances", "ledger": "--ledger"}


def _local_field(ctx) -> LocalField:
    return LocalField(ctx.obj["p"] or 3, ctx.obj["tau"])


def _suite_options(ctx) -> dict:
    """The suite parameters set on the command line, by parameter name."""
    o = ctx.obj
    given = {"p_list": (o["p"],) if o["p"] is not None else None,
             "tau": o["tau"], "seed": o["seed"],
             "instances": o["instances"], "ledger": o["ledger"]}
    return {k: v for k, v in given.items() if v is not None}


def _load_json_arg(text):
    """JSON from an inline string or from a file path."""
    if os.path.exists(text):
        with open(text) as fh:
            return json.load(fh)
    return json.loads(text)


def _step_function(lf: LocalField, f_json, dim: int) -> StepFunction:
    """The step function given as JSON (inline or a file), or else the
    unit-lattice indicator on F^dim."""
    if f_json is None:
        return StepFunction.indicator(Space.lines(lf, dim), [0] * dim,
                                      [0] * dim)
    return StepFunction.from_json(_load_json_arg(f_json), lf)


def _frac(x) -> Fraction:
    if isinstance(x, (list, tuple)):
        return Fraction(x[0], x[1])
    return Fraction(str(x))


@click.group()
@click.option("--p", type=int, default=None, help="Residue prime (odd).")
@click.option("--tau", type=str, default=None,
              help="Non-square generating the quadratic extension.")
@click.option("--seed", type=int, default=None,
              help="Seed of the randomized suites (default 0).")
@click.option("--instances", type=int, default=None,
              help="Randomized instances per suite.")
@click.option("--ledger", type=click.Path(), default=None,
              help="Calibration-constant ledger file (read and updated).")
@click.option("--out", type=click.Path(), default=None,
              help="Write the JSON report here.")
@click.pass_context
def main(ctx, p, tau, seed, instances, ledger, out):
    """Exact verification suites for orbit-integral identities on
    unitary and general-linear Lie algebras."""
    ctx.ensure_object(dict)
    ctx.obj.update(p=p, tau=Fraction(tau) if tau else None, seed=seed,
                   instances=instances, ledger=ledger, out=out)


def _run_suites(ctx, names, quick=False):
    """Run the named suites, each with the group options it declares.
    Print one summary line per suite, write the report and ledger files,
    and exit nonzero when any blocking suite fails."""
    path = ctx.obj["ledger"] or os.environ.get(DEFAULT_LEDGER_ENV)
    led = (harness.NormalizationLedger.load(path)
           if path and os.path.exists(path) else harness.NormalizationLedger())
    options = dict(_suite_options(ctx), ledger=led)
    reports = [harness.run_suite(name, quick, **options) for name in names]
    for rep in reports:
        if rep.calibration is not None:
            click.echo(f"calibration constant: {rep.calibration}")
        click.echo(rep.summary())
        for rec in rep.failures()[:3]:
            click.echo(f"  failed: {rec['detail']}")
    if ctx.obj["out"]:
        with open(ctx.obj["out"], "w") as fh:
            json.dump([rep.to_json() for rep in reports], fh, indent=2)
    if path and any("ledger" in harness.suite_parameters(name)
                    for name in names):
        led.save(path)
    if any(rep.blocking and not rep.passed for rep in reports):
        sys.exit(1)


@main.command("run")
@click.argument("names", nargs=-1, required=True,
                type=click.Choice(list(harness.SUITES)))
@click.pass_context
def run(ctx, names):
    """The named verification suites.  A group option that a named suite
    does not take is a usage error."""
    for name in names:
        params = harness.suite_parameters(name)
        for key in _suite_options(ctx):
            if key not in params:
                raise click.UsageError(
                    f"suite {name} does not take {SUITE_OPTIONS[key]}")
    _run_suites(ctx, names)


@main.command("all")
@click.option("--quick", is_flag=True,
              help="A tenth of each default instance count (at least 2).")
@click.pass_context
def run_all(ctx, quick):
    """Every verification suite, each with the group options it takes;
    exit 0 iff all blocking suites pass."""
    _run_suites(ctx, harness.SUITES, quick)


@main.command("classify-hermitian")
@click.argument("gram")
@click.pass_context
def classify_hermitian(ctx, gram):
    """Class of a Hermitian space from its Gram matrix.

    GRAM is JSON (inline or a file): rows of entries, each entry a
    rational a or a pair [a, b] meaning a + b sqrt(d0).
    """
    lf = _local_field(ctx)
    data = _load_json_arg(gram)
    from .spaces import e_scalar
    rows = []
    for row in data:
        rows.append([e_scalar(lf, *(x if isinstance(x, list) else [x]))
                     for x in row])
    space = HermitianSpace(lf, rows)
    det = space.det_F()
    click.echo(f"dimension: {space.n}")
    click.echo(f"determinant (in F): {det}")
    click.echo(f"class bit: {space.class_bit()}"
               f" ({'split' if space.class_bit() == 0 else 'non-split'})")


@main.command("match-orbit")
@click.option("--gamma", required=True, help="JSON matrix (rational entries).")
@click.option("--v", required=True, help="JSON column vector.")
@click.option("--vstar", required=True, help="JSON row vector.")
@click.pass_context
def match_orbit(ctx, gamma, v, vstar):
    """Invariants of a linear-side triple and its matched unitary datum."""
    lf = _local_field(ctx)
    g = [[_frac(c) for c in row] for row in _load_json_arg(gamma)]
    d = GLTriple(g, [_frac(c) for c in _load_json_arg(v)],
                 [_frac(c) for c in _load_json_arg(vstar)])
    a, b = d.invariants()
    click.echo(f"char poly coefficients: {[str(c) for c in a]}")
    click.echo(f"moment invariants: {[str(c) for c in b]}")
    click.echo(f"discriminant-type invariant: {d.delta()}")
    if not d.is_rss():
        click.echo("triple is not regular semisimple; no matching datum")
        sys.exit(1)
    click.echo(f"orientation sign: {d.omega(lf)}")
    delta, w = construct_unitary_match(lf, d)
    click.echo(f"Hermitian class bit: {delta.space.class_bit()}")
    click.echo("invariant match re-verified: "
               f"{d.invariants() == delta.invariants(w)}")


@main.command("zeta")
@click.option("--roots", default="[0]",
              help="JSON rational eigenvalues (one line factor each).")
@click.option("--eps", default=None,
              help="JSON invertible element, one coordinate per factor.")
@click.option("--f", "f_json", default=None,
              help="Step function as JSON (inline or file); defaults to "
                   "the unit-lattice indicator.")
@click.pass_context
def zeta(ctx, roots, eps, f_json):
    """Character-weighted torus orbit integral on a split algebra."""
    lf = _local_field(ctx)
    alg = EtaleAlgebra(lf, [LineFactor(lf, _frac(r))
                            for r in _load_json_arg(roots)])
    f = _step_function(lf, f_json, 2 * alg.m)
    e = (alg.one() if eps is None
         else alg.element([_frac(c) for c in _load_json_arg(eps)]))
    val = torus_orbit_integral(alg, f, e)
    click.echo(f"value: {val}")


@main.command("orbit")
@click.option("--gamma", required=True, help="Rational scalar.")
@click.option("--v", required=True, help="Rational scalar.")
@click.option("--vstar", required=True, help="Rational scalar.")
@click.option("--f", "f_json", default=None,
              help="Step function as JSON on F^3; defaults to the "
                   "unit-lattice indicator.")
@click.pass_context
def orbit(ctx, gamma, v, vstar, f_json):
    """Rank-one regular semisimple orbit integral on the linear side."""
    lf = _local_field(ctx)
    f = _step_function(lf, f_json, 3)
    d = GLTriple([[_frac(gamma)]], [_frac(v)], [_frac(vstar)])
    click.echo(f"value: {gl_orbit_integral(lf, f, d)}")


if __name__ == "__main__":
    main()
