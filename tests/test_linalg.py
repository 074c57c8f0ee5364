import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import haar_unitary
from transduce_lab.linalg import (
    LinalgError,
    Operator,
    PermutationOperator,
    band_dense,
    direct_sum,
    orthonormal_complement,
    read_band,
    reflection_about,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_reflection_about_basis_state():
    r = reflection_about(np.array([1.0, 0.0]))
    assert np.allclose(r.matrix, np.diag([1.0, -1.0]))


def test_reflection_about_hadamard_axis():
    r = reflection_about(np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(r.matrix, X)


def test_reflection_quarter_bias():
    # 2 phi phi^dag - I computed entrywise for p = 1/4.
    phi = np.array([np.sqrt(0.75), np.sqrt(0.25)])
    expect = 2.0 * np.outer(phi, phi) - np.eye(2)
    assert np.allclose(expect, [[0.5, np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]])
    assert np.allclose(reflection_about(phi).matrix, expect, atol=1e-14)


def test_reflection_requires_normalization():
    with pytest.raises(LinalgError):
        reflection_about(np.array([1.0, 1.0]))


def test_direct_sum_identities():
    s = direct_sum([Operator(I2), Operator(I2)])
    assert np.allclose(s.matrix, np.eye(4))
    s2 = direct_sum([Operator(Z), Operator(I2)])
    assert np.allclose(np.diag(s2.matrix), [1, -1, 1, 1])


def test_permutation_operator_matches_dense():
    rng = np.random.default_rng(0)
    perm = rng.permutation(6)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    op = PermutationOperator(perm, phase)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert np.allclose(op.apply(v), op.dense().matrix @ v)


def test_permutation_operator_sends_basis_state_i_to_phase_i_at_perm_i():
    rng = np.random.default_rng(1)
    perm = rng.permutation(7)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 7))
    op = PermutationOperator(perm, phase)
    want = np.zeros((7, 7), dtype=complex)
    want[perm, np.arange(7)] = phase
    assert np.array_equal(op.apply(np.eye(7)), want)  # as a batch of columns
    assert all(np.array_equal(op.apply(e), w) for e, w in zip(np.eye(7), want.T))
    assert np.array_equal(op.dense().matrix, want)


def test_unit_phase_permutation_stores_no_phase():
    rng = np.random.default_rng(2)
    perm = rng.permutation(6)
    bare, ones = PermutationOperator(perm), PermutationOperator(perm, np.ones(6))
    assert bare._phase is None and ones._phase is not None
    assert np.array_equal(bare.phase, ones.phase)
    assert np.array_equal(bare.dense().matrix, ones.dense().matrix)
    for v in (rng.normal(size=6) + 1j * rng.normal(size=6), rng.normal(size=(6, 3)) + 0j):
        buf = np.empty_like(v)
        assert np.array_equal(bare.apply(v), ones.apply(v))
        assert bare.apply(v, buf) is buf and np.array_equal(buf, ones.apply(v))


def test_apply_into_a_buffer_leaves_its_argument(rng):
    perm = PermutationOperator(rng.permutation(5), np.exp(1j * rng.uniform(0, 2 * np.pi, 5)))
    dense = Operator(haar_unitary(5, rng))
    for op in (perm, dense):
        v = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        kept, buf = v.copy(), np.empty_like(v)
        assert op.apply(v, buf) is buf
        assert np.array_equal(buf, op.apply(v)) and np.array_equal(v, kept)


@pytest.mark.parametrize("phase", [[1j], [1.0, -1.0]])
def test_permutation_operator_rejects_misshapen_phase(phase):
    # A length-1 phase would broadcast silently in apply; a short one would fail in apply.
    with pytest.raises(LinalgError, match=r"phase shape"):
        PermutationOperator([1, 2, 0], phase)


@pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1, 3], [-1, 0, 1], [[0, 1], [1, 0]]])
def test_permutation_operator_rejects_non_permutation(perm):
    with pytest.raises(LinalgError, match="not a permutation"):
        PermutationOperator(perm)


def test_permutation_operator_rejects_non_unimodular_phase():
    with pytest.raises(LinalgError, match="unimodular"):
        PermutationOperator([1, 2, 0], [1.0, 1.0, 0.5])


@pytest.mark.parametrize("perm", [[1.7, 0.2], np.array([1.0, 0.0]), [True, False]])
def test_permutation_operator_refuses_non_integer_entries(perm):
    # Floats used to be truncated to a permutation ([1.7, 0.2] read as [1, 0]) and booleans read as 0/1.
    with pytest.raises(LinalgError, match="must be integers"):
        PermutationOperator(perm)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.integers(0, 10_000), st.integers(1, 3))
def test_transpose_is_the_index_array_form_bit_for_bit(shape, seed, k):
    # Size-1 axes included; a state, a batch, a new output and a caller's buffer of either layout.
    rng = np.random.default_rng(seed)
    axes = tuple(rng.permutation(len(shape)).tolist())
    n = int(np.prod(shape))
    op = PermutationOperator.transpose(shape, axes)
    ref = PermutationOperator(np.arange(n).reshape(shape).transpose(axes).ravel())
    assert op.dim == n and op._phase is None and op._perm is None
    assert np.array_equal(op.perm, ref.perm) and np.array_equal(op.phase, ref.phase)
    assert np.array_equal(op.dense().matrix, ref.dense().matrix)
    for v in (rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))):
        kept, want = v.copy(), ref.apply(v)
        assert np.array_equal(op.apply(v), want)
        for buf in (np.empty_like(v), np.empty(v.shape[::-1], dtype=complex).T):
            assert op.apply(v, buf) is buf and np.array_equal(buf, want)
        assert np.array_equal(v, kept)


@pytest.mark.parametrize("shape, axes", [
    ((2, 3, 4), (0, 0, 1)),     # a repeated axis
    ((2, 3, 4), (0, 1)),        # a missing axis
    ((2, 3, 4), (0, 1, 3)),     # an out-of-range axis
    ((2, 3, 4), (0.0, 1, 2)),   # a float axis
    ((2, 3), [False, True]),    # boolean axes
    ((2, 0, 4), (0, 1, 2)),     # an empty axis
    ((2, 3.0, 4), (0, 1, 2)),   # a float size
    (((2, 3), (4, 5)), (0, 1)), # a shape that is not flat
])
def test_transpose_refuses_what_is_not_a_transpose(shape, axes):
    with pytest.raises(LinalgError, match="not a transpose"):
        PermutationOperator.transpose(shape, axes)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 12), st.integers(0, 5), st.integers(0, 10_000))
def test_band_read_and_scattered_back(n, b, seed):
    rng = np.random.default_rng(seed)
    rows, cols = np.indices((n, n))
    a = np.where(np.abs(rows - cols) <= b, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0)
    w = min(2 * b + 1, n)
    assert np.array_equal(band_dense(read_band(a @ np.eye(w)[np.arange(n) % w], b)), a)


def test_orthonormal_complement():
    basis = orthonormal_complement([np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0])], 4)
    assert basis.shape == (4, 2)
    assert np.allclose(basis[:2, :], 0.0, atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_reflection_is_involution(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    r = reflection_about(v).matrix
    assert np.max(np.abs(r @ r - np.eye(dim))) < 1e-10


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_tensor_and_direct_sum_preserve_unitarity(seed):
    rng = np.random.default_rng(seed)
    a = Operator(haar_unitary(2, rng))
    b = Operator(haar_unitary(3, rng))
    assert direct_sum([a, b]).is_unitary(1e-10)
