import numpy as np
import pytest

from transduce_lab.linalg import LinalgError, Operator, haar_unitary, random_state
from transduce_lab.oracles import simple_oracle
from transduce_lab.purifier import analytic_catalyst, build_simple
from transduce_lab.transducer import (
    Transducer,
    TransductionError,
    action_operator,
    complexities,
    implement_action,
    transduce,
)


def _random_transducer(rng, dim=8, pub=3) -> Transducer:
    return Transducer(dim_public=pub, fixed=Operator(haar_unitary(dim, rng)))


def test_empty_private_space_is_plain_action(rng):
    u = Operator(haar_unitary(4, rng))
    T = Transducer(dim_public=u.dim, fixed=u)
    xi = random_state(4, rng)
    res = transduce(T, None, xi)
    assert np.allclose(res.tau, u.matrix @ xi)
    assert res.W == 0.0 and res.catalyst.size == 0


def test_walk_fixed_point_below_half():
    T = build_simple(64)
    res = transduce(T, simple_oracle(0.25), np.array([1.0 + 0j]))
    assert abs(res.tau[0] - 1.0) < 1e-9
    assert res.W == pytest.approx(0.5, abs=1e-9)
    v_expected = analytic_catalyst(0.25, 64)
    assert np.allclose(res.catalyst[:63], v_expected, atol=1e-9)
    assert np.allclose(res.catalyst[63:], 0.0, atol=1e-9)


def test_walk_fixed_point_above_half_lands_on_bounded_branch():
    T = build_simple(64)
    res = transduce(T, simple_oracle(0.75), np.array([1.0 + 0j]))
    g = np.sqrt(3.0)
    assert np.linalg.norm(res.tau + np.array([1.0])) <= 2.0 * g ** (-63) + 1e-9
    assert res.used_ridge


def test_transduce_reports_residual_failure():
    # A public-only rotation driven into the private block: engineered
    # near-singular case with a tiny tolerance must raise.
    T = build_simple(64)
    with pytest.raises(TransductionError):
        transduce(T, simple_oracle(0.75), np.array([1.0 + 0j]), tol=1e-17)


def test_isometry_of_transduction(rng):
    T = _random_transducer(rng)
    xi1 = random_state(3, rng)
    xi2 = random_state(3, rng)
    r1 = transduce(T, None, xi1)
    r2 = transduce(T, None, xi2)
    assert np.vdot(r1.tau, r2.tau) == pytest.approx(np.vdot(xi1, xi2), abs=1e-10)


def test_catalyst_linearity(rng):
    T = _random_transducer(rng)
    xi1 = random_state(3, rng)
    xi2 = random_state(3, rng)
    a, b = 0.3 - 0.2j, 1.1 + 0.4j
    r1 = transduce(T, None, xi1)
    r2 = transduce(T, None, xi2)
    rc = transduce(T, None, a * xi1 + b * xi2)
    assert np.allclose(rc.catalyst, a * r1.catalyst + b * r2.catalyst, atol=1e-9)
    assert np.allclose(rc.tau, a * r1.tau + b * r2.tau, atol=1e-9)


def test_complexities_requires_algorithm_form(rng):
    T = _random_transducer(rng)
    with pytest.raises(LinalgError):
        complexities(T, Operator(np.eye(2)), random_state(3, rng))


def test_implement_action_exact_for_empty_private(rng):
    u = Operator(haar_unitary(3, rng))
    T = Transducer(dim_public=u.dim, fixed=u)
    xi = random_state(3, rng)
    out = implement_action(T, None, xi, 1)
    assert np.allclose(out, u.matrix @ xi, atol=1e-12)


def test_implement_action_error_bound_and_trend():
    T = build_simple(64)
    o = simple_oracle(0.25)
    xi = np.array([1.0 + 0j])
    errs = {}
    for K in (50, 200, 800):
        tau = implement_action(T, o, xi, K)
        errs[K] = float(np.linalg.norm(tau - np.array([1.0])))
        assert errs[K] <= 2.0 * np.sqrt(0.5 / K)
    assert errs[800] <= 0.05
    assert errs[800] <= 0.6 * errs[200]


def test_action_operator_matches_iterative():
    T = build_simple(16)
    o = simple_oracle(0.3)
    big = action_operator(T, o, 25)
    assert big.is_unitary(1e-9)
    start = np.zeros(big.dim, dtype=complex)
    start[0] = 1.0
    tau_mat = (big.matrix @ start)[:1]
    tau_it = implement_action(T, o, np.array([1.0 + 0j]), 25)
    assert abs(tau_mat[0] - tau_it[0]) < 1e-12


def test_action_operator_respects_cap():
    T = build_simple(64)
    with pytest.raises(LinalgError):
        action_operator(T, simple_oracle(0.3), 100_000)
