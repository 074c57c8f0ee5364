import math

import numpy as np
import pytest

from transduce_lab.majority import (
    MajorityError,
    binomial_tail,
    build,
    hoeffding_bound,
    imprecision_exact,
    simulate_imprecision,
    votes_needed,
)


def test_single_vote_perfect_oracle():
    out = simulate_imprecision(1, 0.0)
    assert out["imprecision"] == pytest.approx(0.0, abs=1e-14)
    assert out["overlap"] == pytest.approx(1.0, abs=1e-14)


def test_three_votes_tail_and_imprecision():
    # Pr[at least 2 of Bin(3, 0.2)] = 3 * 0.04 * 0.8 + 0.008 = 0.104.
    assert binomial_tail(3, 0.2, 0) == pytest.approx(0.104, abs=1e-15)
    assert imprecision_exact(3, 0.2) == pytest.approx(math.sqrt(2 * 0.104), abs=1e-15)
    out = simulate_imprecision(3, 0.2)
    assert out["imprecision"] == pytest.approx(0.45607017003965, abs=1e-12)
    assert out["overlap"] == pytest.approx(0.896, abs=1e-12)


def test_five_votes_formula():
    want = math.sqrt(2.0) * math.sqrt(binomial_tail(5, 0.1, 0))
    assert imprecision_exact(5, 0.1) == pytest.approx(want)
    out = simulate_imprecision(5, 0.1)
    assert out["imprecision"] == pytest.approx(want, abs=1e-12)


def test_workspace_independence():
    a = simulate_imprecision(3, 0.2, d_w=1)
    b = simulate_imprecision(3, 0.2, d_w=2)
    assert a["imprecision"] == pytest.approx(b["imprecision"], abs=1e-12)


def test_majority_above_half():
    out = simulate_imprecision(3, 0.8)
    assert out["r"] == 1
    assert out["imprecision"] == pytest.approx(imprecision_exact(3, 0.8), abs=1e-12)


def test_hoeffding_dominates_tail():
    for ell in (1, 3, 5, 7):
        for p in np.arange(0.1, 0.46, 0.05):
            assert imprecision_exact(ell, float(p)) <= hoeffding_bound(ell, float(p)) + 1e-15


def test_votes_needed_is_first_odd_count_under_eps():
    for p in (0.1, 0.25, 0.4, 0.6, 0.9):
        for eps in (0.3, 0.1, 0.01, 0.001):
            ell = votes_needed(p, eps)
            assert ell % 2 == 1 and hoeffding_bound(ell, p) <= eps
            assert ell == 1 or hoeffding_bound(ell - 2, p) > eps


def test_query_count_is_twice_ell():
    for ell in (1, 3, 4):
        assert build(ell).algorithm.queries == 2 * ell


def test_qubit_audit():
    for ell, d_w in ((1, 1), (3, 1), (3, 2), (5, 1), (7, 1)):
        circ = build(ell, d_w)
        s = 1 + int(math.log2(d_w))
        assert circ.workspace_qubits == ell * s + math.ceil(math.log2(ell + 1)) + 1
        # Total simulated dimension: audit qubits plus the direction selector.
        assert circ.algorithm.dim == 2 ** (circ.workspace_qubits + 1)


def test_build_validations():
    with pytest.raises(MajorityError):
        build(6)  # neither odd nor a power of two
    with pytest.raises(MajorityError):
        build(9, d_w=3)
    with pytest.raises(MajorityError):
        build(11, d_w=4)  # dimension cap
    with pytest.raises(MajorityError):
        imprecision_exact(3, 0.5)


def test_power_of_two_votes():
    out = simulate_imprecision(4, 0.2)
    assert out["imprecision"] == pytest.approx(imprecision_exact(4, 0.2), abs=1e-12)
