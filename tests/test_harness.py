import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from orbitlab import harness
from orbitlab.cli import main
from orbitlab.cyclo import Cyc
from orbitlab.etale import EtaleAlgebra, LineFactor, squarefree_kernel
from orbitlab.integrals import (_shell_reps, _slot_bounds, c_empty_closed_form,
                                construct_jr_transfer_n1, gl_orbit_integral,
                                nonnorm_scalar, rank1_slice, support_radius,
                                unitary_orbit_integral)
from orbitlab.scalar import (INF, LocalField, ratsqrt, smallest_nonresidue,
                             valuation)
from orbitlab.spaces import GLTriple
from orbitlab.steps import (LineBlock, QuadBlock, Space, StepFunction, Term,
                            frac_mod_power)
from orbitlab.zeta import FactorMode, mult_zeta


def test_ledger_records_once():
    led = harness.NormalizationLedger()
    assert led.record("c", Cyc.rational(Fraction(2), 3))
    assert led.record("c", Cyc.rational(Fraction(2), 3))
    assert not led.record("c", Cyc.rational(Fraction(3), 3))


def test_ledger_round_trip(tmp_path):
    led = harness.NormalizationLedger()
    led.record("c", Cyc.rational(Fraction(5, 2), 3))
    path = tmp_path / "ledger.json"
    led.save(str(path))
    led2 = harness.NormalizationLedger.load(str(path))
    assert led2.get("c") == led.get("c")


def test_report_summary_and_json():
    rep = harness.VerificationReport("demo")
    rep.add(True, "a")
    rep.add(False, "b", witness={"x": 1})
    assert not rep.passed
    assert rep.summary() == "FAIL demo: 1/2 instances"
    assert rep.failures()[0]["witness"] == {"x": 1}
    data = rep.to_json()
    assert data["name"] == "demo" and not data["passed"]


def test_report_runtime_is_the_suites_own(monkeypatch):
    clock = {"now": 100.0}
    monkeypatch.setattr(harness.time, "perf_counter", lambda: clock["now"])

    @harness._timed_suite
    def suite():
        clock["now"] += 2.5
        rep = harness.VerificationReport("timed")
        rep.add(True)
        return rep

    rep = suite()
    clock["now"] += 1000.0  # serialized long after the suite returned
    assert rep.to_json()["runtime"] == 2.5
    # registered suites stop their clock on return too
    rep = harness.verify_rank2_stretch()
    clock["now"] += 1000.0
    assert rep.to_json()["runtime"] == 0.0


def test_transfer_of_zero_is_zero(lf3):
    space = Space.lines(lf3, 3)
    f0, f1 = construct_jr_transfer_n1(lf3, StepFunction.zero(space))
    assert f0.is_zero() and f1.is_zero()


def test_transfer_is_linear(lf3):
    rng = random.Random(6)
    space = Space.lines(lf3, 3)
    f = harness.random_step_function(space, rng, nterms=2)
    g = harness.random_step_function(space, rng, nterms=2)
    ff = construct_jr_transfer_n1(lf3, f, rng=rng)
    gg = construct_jr_transfer_n1(lf3, g, rng=rng)
    ss = construct_jr_transfer_n1(lf3, f + g, rng=rng)
    assert ss[0] == ff[0] + gg[0]
    assert ss[1] == ff[1] + gg[1]


def test_transfer_matches_orbit_integrals(lf3):
    # spot-check the defining property on a handful of invariants
    rng = random.Random(7)
    space = Space.lines(lf3, 3)
    f = harness.random_step_function(space, rng, nterms=2)
    f0, f1 = construct_jr_transfer_n1(lf3, f, rng=rng)
    for delta, b in ((Fraction(0), Fraction(1)),
                     (Fraction(1), Fraction(4)),
                     (Fraction(1, 3), Fraction(9))):
        lin = gl_orbit_integral(lf3, f, GLTriple([[delta]], [1], [b]))
        # b a rational square: w = sqrt(b) has norm invariant b on the
        # norm-class side
        wv = ratsqrt(b)
        assert unitary_orbit_integral(lf3, f0, delta, wv) == lin


def per_representative_pair(lf: LocalField, f: StepFunction):
    """The rank-one matching pair built one box and one mult_zeta call per
    shell representative at level k + e r, without certification: the
    reference that construct_jr_transfer_n1's per-class construction at
    level k + e j must equal."""
    p, d0 = lf.p, lf.d0
    blk = QuadBlock(lf, d0, not lf.unramified)
    e = blk.e
    target = Space(lf, [LineBlock(lf), blk])
    Lx = max([t.levels[0] for t in f.terms] + [0])
    centers = sorted({frac_mod_power(t.center[0] + Fraction(p) ** t.levels[0]
                                     * i, p, Lx)
                      for t in f.terms
                      for i in range(p ** max(0, Lx - t.levels[0]))})
    a2, _ = _slot_bounds(f, 1)
    a3, l3 = _slot_bounds(f, 2)
    b_lo = 0 if (a2 is INF or a3 is INF) else a2 + a3
    r = max(1, l3 - (0 if a3 is INF else min(a3, 0)) + 1)
    pair = []
    for h in (Fraction(1), nonnorm_scalar(lf)):
        vh = valuation(h, p)
        terms = []
        for dc in centers:
            fd0 = rank1_slice(f, dc)
            alg = EtaleAlgebra(lf, [LineFactor(lf, dc)])
            deep = c_empty_closed_form(alg, fd0, (lf.chi(h),))
            radius = support_radius(alg, fd0)
            k = (e * (b_lo - vh)) // 2
            k_min_hi = -(-(e * (radius - vh)) // 2) + 1
            consecutive_deep = 0
            while consecutive_deep < e or k < k_min_hi:
                all_deep = True
                for (wa, wb) in _shell_reps(blk, k, r):
                    b = h * (wa * wa - d0 * wb * wb)
                    val = mult_zeta(alg, fd0,
                                    [FactorMode(eps=b)]).value_at_one()
                    all_deep = all_deep and val == deep
                    if val:
                        terms.append(Term(val, (dc, wa, wb),
                                          (Lx, k + e * r)))
                consecutive_deep = consecutive_deep + 1 if all_deep else 0
                k += 1
            if deep:
                terms.append(Term(deep, (dc, Fraction(0), Fraction(0)),
                                  (Lx, k)))
        pair.append(StepFunction(target, terms))
    return pair


def _hoisted_input(p, tau):
    lf = LocalField(p, tau)
    rng = random.Random(f"hoisted/{tau}")
    return lf, harness.random_step_function(Space.lines(lf, 3), rng,
                                            nterms=3, uniform=False)


def _unit_boxes_input(p, tau, boxes):
    """Sum of coeff * 1[center + p^levels] on F^3 over boxes of
    (coeff, center, levels)."""
    lf = LocalField(p, Fraction(tau))
    terms = [Term(Cyc.rational(Fraction(c), p), tuple(map(Fraction, ctr)),
                  levels) for c, ctr, levels in boxes]
    return lf, StepFunction(Space.lines(lf, 3), terms)


@pytest.mark.parametrize("make", [
    lambda: _hoisted_input(3, Fraction(3)),
    # slot-2 centres of valuation -1 at level 1 give j = 2 < r = 3; with
    # slot 1 at level 2 the shell values are not constant on b(1 + 3Z_3)
    lambda: _unit_boxes_input(3, 2, [(1, (0, 1, 1), (0, 2, 1)),
                                     (2, (1, 1, Fraction(1, 3)), (0, 2, 1))]),
    lambda: _unit_boxes_input(3, 3, [(1, (0, 1, Fraction(1, 3)), (0, 2, 1)),
                                     (2, (1, 1, Fraction(2, 3)), (0, 2, 1))]),
    # == refines both sides to one common level, so its cost grows with p
    # and with the level spread; two boxes keep the p = 5 case small
    lambda: _unit_boxes_input(5, 5, [(1, (0, 1, 1), (0, 1, 1)),
                                     (2, (1, 1, 2), (0, 1, 1))]),
], ids=["p3-ramified", "p3-unramified-negative-slot2",
        "p3-ramified-negative-slot2", "p5-ramified"])
def test_transfer_pair_equals_the_per_representative_pair(make):
    lf, f = make()
    for got, want in zip(construct_jr_transfer_n1(lf, f),
                         per_representative_pair(lf, f)):
        assert got == want
        # the oracle's boxes are disjoint: its value at a term centre is
        # that term's coefficient
        for t in want.terms:
            assert got.eval(t.center) == t.coeff


@pytest.mark.parametrize("p", [3, 5])
def test_transfer_terms_are_gl_orbit_integrals(p):
    # the construction evaluates shells on a per-center slice of f, with
    # the vector scaling through mult_zeta's eps; every shell term must
    # still be the GL-side orbit integral of f itself, which pulls f back
    # by diag(v, v*) instead
    for tau in (Fraction(smallest_nonresidue(p)), Fraction(p)):
        lf, f = _hoisted_input(p, tau)
        d0 = Fraction(squarefree_kernel(lf.tau))
        pair = construct_jr_transfer_n1(lf, f)
        hs = (Fraction(1), nonnorm_scalar(lf))
        checked = 0
        for h, fi in zip(hs, pair):
            for t in fi.terms:
                dc, wa, wb = t.center
                if wa == 0 and wb == 0:
                    continue  # the deep ball around the vector origin
                b = h * (wa * wa - d0 * wb * wb)
                d = GLTriple([[dc]], [1], [b])
                assert t.coeff == gl_orbit_integral(lf, f, d)
                checked += 1
        assert checked


def test_quick_suites_pass():
    reports = [
        harness.verify_m1_closed_forms(p_list=(3,)),
        harness.verify_fourier_involution(p_list=(3,), instances=10),
        harness.verify_descent(p_list=(3,), instances=2),
        harness.verify_hilbert_oracle(p_list=(3,)),
        harness.verify_transfer_factor_algebra(instances=5),
    ]
    for rep in reports:
        assert rep.passed, rep.summary()


def test_nilpotent_quick():
    led = harness.NormalizationLedger()
    rep = harness.verify_nilpotent_identity(p_list=(3,), instances=4,
                                            ledger=led)
    assert rep.passed, rep.summary()
    assert led.get("nilpotent-identity-n1") is not None


def test_stretch_suite_reports_honestly():
    rep = harness.verify_rank2_stretch()
    assert not rep.passed
    assert not rep.blocking
    assert "not implemented" in rep.failures()[0]["detail"]


def test_registry_counts_match_signatures():
    # a suite has a default instance count exactly when it takes instances
    for name, (suite, count) in harness.SUITES.items():
        takes = "instances" in harness.suite_parameters(name)
        assert takes == (count is not None), name


GOLDEN_RUN_ALL = Path(__file__).resolve().parent / "data" / "run_all_p3.json"


def test_run_all_follows_the_registry(tmp_path, monkeypatch):
    monkeypatch.delenv("ORBITLAB_LEDGER", raising=False)
    out = tmp_path / "r.json"
    result = CliRunner().invoke(main, ["--p", "3", "--instances", "2",
                                       "--out", str(out), "all"])
    assert result.exit_code == 0, result.output
    reports = json.loads(out.read_text())
    assert [rep["name"] for rep in reports] == list(harness.SUITES)
    # every report, less its wall time, matches the recorded run bit for
    # bit: details, witnesses and the calibration constant
    for rep in reports:
        del rep["runtime"]
    assert json.dumps(reports, indent=1) + "\n" == GOLDEN_RUN_ALL.read_text()


def test_weil_suite_checks_index_ratios_at_its_own_primes():
    details = [r["detail"] for r in
               harness.verify_weil_suite(p_list=(5,)).instances]
    assert all(d.startswith("p=5 ") for d in details)
    assert sum("index ratio" in d for d in details) == 6
    details = [r["detail"] for r in
               harness.verify_weil_suite(p_list=(7,)).instances]
    assert not any("index ratio" in d for d in details)
