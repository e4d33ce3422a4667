"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every check is exact (zero tolerance).  The final criterion is a stretch
goal: it is reported honestly but does not block.
"""

import sys

import pytest

from orbitlab import harness

LEDGER = harness.NormalizationLedger()


def _report(tag, rep):
    print(f"{rep.summary().split(' ', 1)[0]} criterion {tag}: "
          f"{rep.summary().split(' ', 1)[1]}", file=sys.stderr, flush=True)
    return rep


def test_criterion_01_torus_germ_expansion():
    # 50 random functions per factor mix, all mixes m <= 3, p in {3, 5},
    # deep-element grid at depths radius + 0..3 with all sign patterns
    rep = _report("01 (torus germ expansion)",
                  harness.verify_torus_germ(p_list=(3, 5), instances=500))
    assert rep.passed, rep.failures()[:1]


def test_criterion_02_single_factor_closed_forms():
    rep = _report("02 (single-factor closed forms)",
                  harness.verify_m1_closed_forms(p_list=(3,)))
    assert rep.passed, rep.failures()[:1]


def test_criterion_03_fourier_involution():
    rep = _report("03 (Fourier involution)",
                  harness.verify_fourier_involution(p_list=(3,),
                                                    instances=100))
    assert rep.passed, rep.failures()[:1]


def test_criterion_04_parabolic_descent():
    rep = _report("04 (parabolic descent)",
                  harness.verify_descent(p_list=(3,), instances=20))
    assert rep.passed, rep.failures()[:1]


def test_criterion_05_descent_fourier_commutation():
    rep = _report("05 (descent-Fourier commutation)",
                  harness.verify_descent_fourier(p_list=(3,),
                                                 instances=20))
    assert rep.passed, rep.failures()[:1]


def test_criterion_06_index_sign_suite():
    rep = _report("06 (quadratic-form index signs)",
                  harness.verify_weil_suite(p_list=(3, 5, 7)))
    assert rep.passed, rep.failures()[:1]


def test_criterion_07_hilbert_symbol_oracle():
    rep = _report("07 (Hilbert symbol vs solvability oracle)",
                  harness.verify_hilbert_oracle(p_list=(3, 5, 7)))
    assert rep.passed, rep.failures()[:1]


def test_criterion_08_cohomology_torsor():
    rep = _report("08 (norm-class torsor and pairing)",
                  harness.verify_cohomology(p_list=(3,)))
    assert rep.passed, rep.failures()[:1]


def test_criterion_09_nilpotent_identity_rank_one():
    rep = _report("09 (rank-one nilpotent identity)",
                  harness.verify_nilpotent_identity(
                      p_list=(3, 5), instances=100, ledger=LEDGER))
    assert rep.passed, rep.failures()[:1]
    # the calibration constant must have been measured and must be unique
    assert LEDGER.get("nilpotent-identity-n1") is not None


def test_criterion_10_unit_function_matching():
    rep = _report("10 (unit-function matching)",
                  harness.verify_fl_n1(p_list=(3, 5)))
    assert rep.passed, rep.failures()[:1]


def test_criterion_11_rank_two_stretch():
    # stretch goal: reported, not required
    rep = _report("11 (rank-two anisotropic stretch)",
                  harness.verify_rank2_stretch())
    assert not rep.blocking
    if not rep.passed:
        pytest.xfail("anisotropic rank-two certificates not implemented; "
                     "reported as a non-blocking failure")
