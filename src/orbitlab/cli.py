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


def _local_field(ctx) -> LocalField:
    p = ctx.obj["p"] or 3
    tau = ctx.obj["tau"] or harness.default_tau(p)
    return LocalField(p, tau)


def _p_list(ctx, default=(3, 5)):
    return (ctx.obj["p"],) if ctx.obj["p"] else default


def _ledger(ctx) -> harness.NormalizationLedger:
    path = ctx.obj["ledger"] or os.environ.get(DEFAULT_LEDGER_ENV)
    if path and os.path.exists(path):
        return harness.NormalizationLedger.load(path)
    return harness.NormalizationLedger()


def _finish(ctx, reports, ledger=None):
    """Print one summary line per suite, write report/ledger files, and
    exit nonzero when any blocking suite fails."""
    for rep in reports:
        click.echo(rep.summary())
        for rec in rep.failures()[:3]:
            click.echo(f"  failed: {rec['detail']}")
    out = ctx.obj["out"]
    if out:
        with open(out, "w") as fh:
            json.dump([rep.to_json() for rep in reports], fh, indent=2)
    path = ctx.obj["ledger"] or os.environ.get(DEFAULT_LEDGER_ENV)
    if path and ledger is not None:
        ledger.save(path)
    if any(rep.blocking and not rep.passed for rep in reports):
        sys.exit(1)


def _load_json_arg(text):
    """JSON from an inline string or from a file path."""
    if os.path.exists(text):
        with open(text) as fh:
            return json.load(fh)
    return json.loads(text)


def _frac(x) -> Fraction:
    if isinstance(x, (list, tuple)):
        return Fraction(x[0], x[1])
    return Fraction(str(x))


@click.group()
@click.option("--p", type=int, default=None, help="Residue prime (odd).")
@click.option("--tau", type=str, default=None,
              help="Non-square generating the quadratic extension.")
@click.option("--seed", type=int, default=0)
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


@main.command("germ-verify")
@click.pass_context
def germ_verify(ctx):
    """Germ expansions of torus orbit integrals, all factor mixes m <= 3."""
    rep = harness.verify_torus_germ(
        p_list=_p_list(ctx), seed=ctx.obj["seed"],
        instances=ctx.obj["instances"] or 50, tau=ctx.obj["tau"])
    _finish(ctx, [rep])


@main.command("nilpotent-identity")
@click.pass_context
def nilpotent_identity(ctx):
    """Rank-one nilpotent orbit-integral identity against constructed
    matching pairs, with a measured-then-frozen calibration constant."""
    led = _ledger(ctx)
    rep = harness.verify_nilpotent_identity(
        p_list=_p_list(ctx), seed=ctx.obj["seed"],
        instances=ctx.obj["instances"] or 100, ledger=led)
    if rep.calibration is not None:
        click.echo(f"calibration constant: {rep.calibration}")
    _finish(ctx, [rep], ledger=led)


@main.command("descent-verify")
@click.pass_context
def descent_verify(ctx):
    """Rank-two parabolic descent against the direct engine."""
    rep = harness.verify_descent(
        p=ctx.obj["p"] or 3, seed=ctx.obj["seed"],
        instances=ctx.obj["instances"] or 20, tau=ctx.obj["tau"])
    _finish(ctx, [rep])


@main.command("descent-fourier")
@click.pass_context
def descent_fourier(ctx):
    """Commutation of parabolic descent with the Fourier transforms."""
    rep = harness.verify_descent_fourier(
        p=ctx.obj["p"] or 3, seed=ctx.obj["seed"],
        instances=ctx.obj["instances"] or 20)
    _finish(ctx, [rep])


@main.command("fl-check")
@click.option("--n", type=int, default=1, help="Rank of the check.")
@click.pass_context
def fl_check(ctx, n):
    """Unit-function matching: rank one exactly; rank two reports the
    unimplemented anisotropic case honestly (non-blocking)."""
    if n == 1:
        rep = harness.verify_fl_n1(p_list=_p_list(ctx))
    elif n == 2:
        rep = harness.verify_rank2_stretch()
    else:
        raise click.BadParameter("only n = 1 (and the n = 2 stretch) exist")
    _finish(ctx, [rep])


@main.command("weil-sign")
@click.pass_context
def weil_sign(ctx):
    """Quadratic-form index suite: inverses, products, scaling defects,
    and the cross-class trace-form index ratio."""
    rep = harness.verify_weil_suite(p_list=_p_list(ctx, (3, 5, 7)))
    _finish(ctx, [rep])


@main.command("hilbert")
@click.pass_context
def hilbert(ctx):
    """Hilbert symbol against a brute-force solvability oracle."""
    rep = harness.verify_hilbert_oracle(p_list=_p_list(ctx, (3, 5, 7)))
    _finish(ctx, [rep])


@main.command("all")
@click.option("--quick", is_flag=True, help="Reduced instance counts.")
@click.pass_context
def run_all(ctx, quick):
    """Every verification suite; exit 0 iff all blocking suites pass."""
    led = _ledger(ctx)
    reports = harness.run_all(seed=ctx.obj["seed"], quick=quick, ledger=led)
    _finish(ctx, reports, ledger=led)


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
    m = alg.m
    if f_json is None:
        space = Space.lines(lf, 2 * m)
        f = StepFunction.indicator(space, [Fraction(0)] * 2 * m, [0] * 2 * m)
    else:
        f = StepFunction.from_json(_load_json_arg(f_json), lf)
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
    if f_json is None:
        space = Space.lines(lf, 3)
        f = StepFunction.indicator(space, [Fraction(0)] * 3, [0] * 3)
    else:
        f = StepFunction.from_json(_load_json_arg(f_json), lf)
    d = GLTriple([[_frac(gamma)]], [_frac(v)], [_frac(vstar)])
    click.echo(f"value: {gl_orbit_integral(lf, f, d)}")


if __name__ == "__main__":
    main()
