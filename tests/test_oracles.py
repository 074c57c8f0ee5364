import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import generator_reflection, haar_unitary
from transduce_lab.linalg import LinalgError, Operator, random_state
from transduce_lab.oracles import (
    OracleSpec,
    bias_gap,
    bidirectional,
    boolean_spec,
    check_bias,
    general_reflecting_oracle,
    majority_answer,
    reflecting_from_generator,
    simple_oracle,
    state_generating_oracle,
)
from transduce_lab.majority import (MajorityError, binomial_tail, hoeffding_bound, imprecision_exact,
                                    simulate_imprecision, votes_needed)
from transduce_lab.purifier import (PurifierError, _gamma, analytic_catalyst, exact_query_complexity,
                                    general_catalyst, state_generating_accounting, verify_transduction)


def _random_spec(rng, d_w=2, p=None):
    p = float(rng.uniform(0.05, 0.95)) if p is None else p
    return OracleSpec(p, random_state(d_w, rng), random_state(d_w, rng))


def test_simple_oracle_extremes():
    assert np.allclose(simple_oracle(0.0).matrix, np.diag([1, -1]))
    assert np.allclose(simple_oracle(1.0).matrix, np.diag([-1, 1]))


def test_simple_oracle_quarter():
    expect = np.array([[0.5, np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]])
    assert np.allclose(simple_oracle(0.25).matrix, expect, atol=1e-14)


def test_simple_oracle_rejects_bad_p():
    with pytest.raises(LinalgError):
        simple_oracle(1.2)


def test_spec_records_gap_and_gamma():
    spec = boolean_spec(0.36)
    assert spec.delta == pytest.approx(0.14)
    assert _gamma(spec.p) == pytest.approx(np.sqrt(0.36 / 0.64))
    assert spec.r == 0
    with pytest.raises(LinalgError):
        _ = boolean_spec(0.5).r


@pytest.mark.parametrize("p", [0.1, 0.36, 0.64, 0.9])
def test_every_gap_is_bias_gap(p):
    delta = bias_gap(p)
    assert delta == abs(0.5 - p)
    assert boolean_spec(p).delta == delta
    assert verify_transduction(p, 16)["L_limit"] == 1.0 / (2.0 * delta)
    assert hoeffding_bound(5, p) == float(np.sqrt(2.0) * np.exp(-5 * delta * delta))


def test_state_generating_trivial_workspace():
    op = state_generating_oracle(boolean_spec(0.0))
    assert np.allclose(op.matrix[:, 0], [1.0, 0.0])
    assert op.is_unitary(1e-12)


def test_state_generating_first_column():
    spec = OracleSpec(0.36, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    op = state_generating_oracle(spec)
    assert np.allclose(op.matrix[:, 0], [0.8, 0.0, 0.0, 0.6], atol=1e-14)


def test_state_generating_answer_component(rng):
    spec = _random_spec(rng, d_w=3)
    op = state_generating_oracle(spec)
    out = op.matrix[:, 0]
    target = np.zeros(6, dtype=complex)
    target[3:] = spec.phi1
    assert np.vdot(target, out) == pytest.approx(np.sqrt(spec.p), abs=1e-12)


def test_state_generating_complex_branches(rng):
    # Workspace branches with complex phases still pin column zero exactly.
    phi0 = random_state(2, rng) * np.exp(0.7j)
    phi1 = random_state(2, rng) * np.exp(-1.3j)
    spec = OracleSpec(0.3, phi0, phi1)
    op = state_generating_oracle(spec)
    assert np.max(np.abs(op.matrix[:, 0] - spec.answer_state())) < 1e-12
    assert op.is_unitary(1e-12)


@pytest.mark.parametrize("d_w", [1, 2, 4])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0, "a0=0"])
def test_state_generating_pins_column_zero(p, d_w, rng):
    phi0, phi1 = random_state(d_w, rng), random_state(d_w, rng)
    if p == "a0=0":  # no weight on |0>|0>: p = 1 on a trivial workspace, else phi0[0] = 0
        p = 1.0 if d_w == 1 else 0.3
        phi0 = np.roll(np.eye(d_w)[0], 1)
    spec = OracleSpec(p, phi0, phi1)
    op = state_generating_oracle(spec)
    assert np.max(np.abs(op.matrix[:, 0] - spec.answer_state())) <= 1e-12
    assert op.is_unitary(1e-12)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_reflecting_from_generator_is_the_triple_product(dim, rng):
    generators = [Operator(haar_unitary(dim, rng)), state_generating_oracle(_random_spec(rng, d_w=dim // 2))]
    for o in generators:
        assert np.max(np.abs(reflecting_from_generator(o).matrix - generator_reflection(o))) <= 1e-14


def test_reflecting_from_generator_refuses_a_non_unitary():
    # Column 0 is a unit vector, so only the check on O itself can refuse this.
    m = np.eye(4, dtype=complex)
    m[1, 2] = 0.5
    with pytest.raises(LinalgError, match="unitarity"):
        reflecting_from_generator(Operator(m))
    with pytest.raises(LinalgError, match="unitarity"):
        reflecting_from_generator(Operator(2.0 * np.eye(2)))


def test_reflecting_from_identity():
    out = reflecting_from_generator(Operator(np.eye(4, dtype=complex)))
    assert np.allclose(out.matrix, np.diag([1, -1, -1, -1]))


def test_reflecting_self_inverse(rng):
    o = Operator(haar_unitary(6, rng))
    ref = reflecting_from_generator(o)
    assert np.allclose(ref.matrix @ ref.matrix, np.eye(6), atol=1e-12)
    eig = np.linalg.eigvalsh((ref.matrix + ref.matrix.conj().T) / 2)
    assert np.allclose(np.sort(np.abs(eig)), 1.0, atol=1e-10)


def test_reflecting_fixes_answer_state(rng):
    spec = _random_spec(rng, p=0.25)
    ref = reflecting_from_generator(state_generating_oracle(spec))
    phi = spec.answer_state()
    assert np.linalg.norm(ref.matrix @ phi - phi) < 1e-12
    # Orthogonal partner inside the two-branch span is negated.
    minus = spec.sibling_state()
    assert np.linalg.norm(ref.matrix @ minus + minus) < 1e-12


def test_general_reflecting_trivial_workspace_matches_simple():
    spec = boolean_spec(0.3)
    out = general_reflecting_oracle(spec)
    assert np.allclose(out.matrix, simple_oracle(0.3).matrix, atol=1e-12)


def test_general_reflecting_default_matches_generator(rng):
    spec = _random_spec(rng)
    a = general_reflecting_oracle(spec)
    b = reflecting_from_generator(state_generating_oracle(spec))
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10


@pytest.mark.parametrize("d_w", [1, 2, 8])
def test_general_reflecting_default_is_the_negated_complement(d_w, rng):
    # The default 2|a><a| - I against -I written on the SVD complement basis.
    spec = _random_spec(rng, d_w=d_w)
    a = general_reflecting_oracle(spec).matrix
    b = general_reflecting_oracle(spec, -np.eye(2 * d_w - 2)).matrix
    assert np.max(np.abs(a - b)) < 1e-14


def test_general_reflecting_contract_any_complement(rng):
    spec = _random_spec(rng, d_w=2, p=0.7)
    for action in (None, -np.eye(2), haar_unitary(2, rng)):
        op = general_reflecting_oracle(spec, action)
        plus = spec.answer_state()
        minus = spec.sibling_state()
        assert np.linalg.norm(op.matrix @ plus - plus) < 1e-12
        assert np.linalg.norm(op.matrix @ minus + minus) < 1e-12
        assert op.is_unitary(1e-10)


def test_general_reflecting_rejects_leaky_complement(rng):
    spec = _random_spec(rng)
    with pytest.raises(LinalgError):
        general_reflecting_oracle(spec, haar_unitary(4, rng))


def test_bidirectional_blocks(rng):
    o = Operator(haar_unitary(3, rng))
    both = bidirectional(o)
    assert np.allclose(both.matrix[:3, :3], o.matrix)
    assert np.allclose(both.matrix[3:, 3:], o.matrix.conj().T)
    assert np.allclose(both.matrix[:3, 3:], 0.0)


@settings(deadline=None, max_examples=20)
@given(st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_general_reflecting_contract_property(p, seed):
    rng = np.random.default_rng(seed)
    spec = OracleSpec(p, random_state(2, rng), random_state(2, rng))
    comp = haar_unitary(2, rng)
    op = general_reflecting_oracle(spec, comp)
    plus = spec.answer_state()
    minus = spec.sibling_state()
    assert np.linalg.norm(op.matrix @ plus - plus) < 1e-12
    assert np.linalg.norm(op.matrix @ minus + minus) < 1e-12


def test_majority_answer_sides_and_edges():
    assert [majority_answer(p) for p in (0.0, 0.25, 0.499, 0.501, 0.75, 1.0)] == [0, 0, 0, 1, 1, 1]
    check_bias(0.0)
    check_bias(1.0)


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan"), 0.5])
def test_each_bias_refusal_keeps_its_type(p):
    cases = [
        (LinalgError, lambda: majority_answer(p)),
        (PurifierError, lambda: analytic_catalyst(p, 8)),
        (PurifierError, lambda: exact_query_complexity(p, 8)),
        (PurifierError, lambda: verify_transduction(p, 8)),
        (PurifierError, lambda: state_generating_accounting(p, 8, 10)),
        (MajorityError, lambda: imprecision_exact(3, p)),
        (MajorityError, lambda: simulate_imprecision(1, p)),
        (MajorityError, lambda: votes_needed(p, 0.01)),
    ]
    if p == 0.5:  # a valid bias without a majority answer
        cases += [(LinalgError, lambda: boolean_spec(p).r),
                  (PurifierError, lambda: general_catalyst(boolean_spec(p), np.ones(2), 8))]
    else:
        cases += [(LinalgError, lambda: check_bias(p)),
                  (LinalgError, lambda: boolean_spec(p)),
                  (LinalgError, lambda: simple_oracle(p)),
                  (MajorityError, lambda: hoeffding_bound(3, p)),
                  (MajorityError, lambda: binomial_tail(3, p, 0))]
    for error, call in cases:
        with pytest.raises(LinalgError, match="p must") as info:
            call()
        assert type(info.value) is error
