import functools
import tracemalloc

import numpy as np
import pytest

from dense_reference import dense_readout, loop_block_data
from transduce_lab.linalg import Operator
from transduce_lab.nonboolean import (
    MultiBitOracleSpec,
    NonBooleanError,
    _flag_flip,
    block_data,
    bv_error_reduction,
    lifted_blocks,
)
from transduce_lab.oracles import simple_oracle
from transduce_lab.qsp import assemble_on_answer, complete, phase_factors, sign_polynomial


def _spec(m, r, p_r, d_w=1):
    n = 1 << m
    probs = np.full(n, (1.0 - p_r) / (n - 1))
    probs[r] = p_r
    phis = np.ones((n, d_w), dtype=complex)
    if d_w > 1:
        phis[:] = 0.0
        phis[:, 0] = 1.0
    return MultiBitOracleSpec(probs, phis)


def _qsp_factory(delta, eps):
    sign = sign_polynomial(2 * delta, eps * eps / 6.0)
    alphas = phase_factors(complete(sign))

    def factory(block):
        return assemble_on_answer(alphas, Operator(block), block.shape[0] // 2).matrix

    return factory


def test_inner_product_transform_m1():
    f = _flag_flip(1, 1, 1)
    # b=1, a=1 flips c; indices ordered flag, answer.
    assert f[0 * 2 + 1] == 1 * 2 + 1


def test_inner_product_transform_m2_dot():
    b, a = 0b11, 0b10  # a.b = 1
    f = _flag_flip(2, 1, b)
    assert f[0 * 4 + a] == 1 * 4 + a


def test_inner_product_transform_b0_identity():
    assert np.array_equal(_flag_flip(2, 1, 0), np.arange(8))


def test_lifted_oracle_block_structure():
    spec = _spec(2, 2, 0.8)
    blocks = lifted_blocks(spec.reflecting_oracle(), 2)
    assert len(blocks) == 4
    for b, blk in enumerate(blocks):
        assert Operator(blk).is_unitary(1e-10)
        data = block_data(spec, b)
        plus = data.answer_state()
        minus = data.sibling_state()
        assert np.linalg.norm(blk @ plus - plus) < 1e-10
        assert np.linalg.norm(blk @ minus + minus) < 1e-10


def test_block_biases_follow_inner_product():
    spec = _spec(2, 2, 0.8)
    delta = 0.3
    for b in range(4):
        data = block_data(spec, b)
        dot = bin(2 & b).count("1") & 1
        if dot:
            assert data.p >= 0.5 + delta
        else:
            assert data.p <= 0.5 - delta


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("d_w", [1, 2, 3])
def test_block_data_equals_answer_by_answer_reference(m, d_w, rng):
    n = 1 << m
    point = np.zeros(n)
    point[0] = 1.0  # answer 0 has a.b = 0 for every b, so every branch 1 is empty
    for probs in (rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)), point):
        phis = rng.normal(size=(n, d_w)) + 1j * rng.normal(size=(n, d_w))
        spec = MultiBitOracleSpec(probs, phis / np.linalg.norm(phis, axis=1)[:, None])
        for b in range(n):
            got, want = block_data(spec, b), loop_block_data(spec, b)
            assert got.p == want.p
            assert np.array_equal(got.phi0, want.phi0) and np.array_equal(got.phi1, want.phi1)


def test_m1_block_reduces_to_boolean_case():
    spec = _spec(1, 1, 0.8)
    blocks = lifted_blocks(spec.reflecting_oracle(), 1)
    data = block_data(spec, 1)
    assert data.p == pytest.approx(0.8)
    # Block b=1 restricted to its two-branch span acts as the bias-0.8 signal.
    basis = np.column_stack([np.kron([1, 0], data.phi0), np.kron([0, 1], data.phi1)])
    restricted = basis.conj().T @ blocks[1] @ basis
    assert np.allclose(restricted, simple_oracle(0.8).matrix, atol=1e-10)


def test_end_to_end_reduction_m2():
    spec = _spec(2, 2, 0.8)
    eps = 0.01
    red = bv_error_reduction(_qsp_factory(0.3, eps), spec.reflecting_oracle(), 2, spec, 0.3)
    out = red.run(spec)
    assert out["r"] == 2
    assert out["fidelity"] >= 1.0 - eps - 1e-8
    assert dense_readout(red.walsh).is_unitary(1e-9)


def test_end_to_end_matches_boolean_pipeline_m1():
    spec = _spec(1, 1, 0.8)
    eps = 0.01
    red = bv_error_reduction(_qsp_factory(0.3, eps), spec.reflecting_oracle(), 1, spec, 0.3)
    out = red.run(spec)
    assert out["r"] == 1 and out["fidelity"] >= 1.0 - eps - 1e-8


def test_contract_violation_without_unique_answer():
    probs = np.array([0.5, 0.5, 0.0, 0.0])
    spec = MultiBitOracleSpec(probs, np.ones((4, 1), dtype=complex))
    with pytest.raises(NonBooleanError):
        bv_error_reduction(_qsp_factory(0.3, 0.1), spec.reflecting_oracle(), 2, spec, 0.3)


def test_answer_width_mismatch_is_named():
    spec = _spec(2, 1, 0.8)
    with pytest.raises(NonBooleanError, match="m = 1 but the spec has 2-bit answers"):
        bv_error_reduction(_qsp_factory(0.3, 0.1), spec.reflecting_oracle(), 1, spec, 0.3)
    with pytest.raises(NonBooleanError, match=r"oracle dim 8 != 2\^m \* d_w = 4"):
        bv_error_reduction(_qsp_factory(0.3, 0.1), Operator(np.eye(8)), 2, spec, 0.3)


def test_readout_peak_memory_near_operator_size():
    # The readout is kept as the probe blocks' Walsh coefficients: no dense
    # readout, and no intermediate beyond the reduced blocks and their transform.
    m = 4
    spec = _spec(m, 5, 0.8)
    o_ref = spec.reflecting_oracle()
    tracemalloc.start()
    try:
        red = bv_error_reduction(lambda blk: blk, o_ref, m, spec, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * red.walsh.nbytes


def test_one_extra_qubit_only():
    spec = _spec(2, 2, 0.8)
    o_ref = spec.reflecting_oracle()
    blocks = lifted_blocks(o_ref, 2)
    assert len(blocks) * blocks[0].shape[0] == (1 << 2) * 2 * o_ref.dim


def _dense_inner_product_transform(m, d_w):
    """|b>|c>|a>|w> -> |b>|c + a.b>|a>|w> as a dense permutation matrix."""
    n = 1 << m
    dim = n * 2 * n * d_w
    t = np.zeros((dim, dim))
    for b in range(n):
        for c in range(2):
            for a in range(n):
                flip = bin(a & b).count("1") & 1
                for w in range(d_w):
                    t[((b * 2 + (c ^ flip)) * n + a) * d_w + w, ((b * 2 + c) * n + a) * d_w + w] = 1.0
    return t


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("d_w", [1, 2])
def test_blocks_and_reduction_match_dense_lift(m, d_w, rng):
    n = 1 << m
    probs = np.full(n, 0.2 / (n - 1))
    probs[n - 1] = 0.8
    phis = rng.normal(size=(n, d_w)) + 1j * rng.normal(size=(n, d_w))
    spec = MultiBitOracleSpec(probs, phis / np.linalg.norm(phis, axis=1)[:, None])
    o_ref = spec.reflecting_oracle()
    size = 2 * o_ref.dim
    t = _dense_inner_product_transform(m, d_w)
    # The flag-controlled oracle with Z on the flag, once per probe, conjugated by T.
    middle = np.kron(np.eye(n), np.block([[o_ref.matrix, np.zeros((o_ref.dim, o_ref.dim))],
                                          [np.zeros((o_ref.dim, o_ref.dim)), -np.eye(o_ref.dim)]]))
    lifted = t @ middle @ t.T
    for b, blk in enumerate(lifted_blocks(o_ref, m)):
        rows = slice(b * size, (b + 1) * size)
        assert np.max(np.abs(blk - lifted[rows, rows])) <= 1e-14
        off = np.delete(lifted[rows], np.s_[b * size:(b + 1) * size], axis=1)
        assert np.max(np.abs(off), initial=0.0) == 0.0
    factory = _qsp_factory(0.3, 0.01)
    par = np.zeros_like(lifted)
    for b in range(n):
        rows = slice(b * size, (b + 1) * size)
        par[rows, rows] = factory(lifted[rows, rows])
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    h_full = np.kron(functools.reduce(np.kron, [h] * m), np.eye(size))
    want = h_full @ t.T @ par @ t @ h_full
    red = bv_error_reduction(factory, o_ref, m, spec, 0.3)
    assert np.max(np.abs(dense_readout(red.walsh).matrix - want)) <= 1e-14
    # run reads the probe-0 block column of the Walsh blocks; the dense lift gives it whole.
    phi = spec.answer_state()
    start = np.zeros(n * size, dtype=complex)
    start[: phi.size] = phi
    target = np.zeros_like(start)
    target[(n - 1) * size:(n - 1) * size + phi.size] = phi
    out = red.run(spec)
    assert out["r"] == n - 1
    assert abs(out["fidelity"] - abs(np.vdot(target, want @ start))) <= 1e-14
    assert abs(out["error"] - np.linalg.norm(want @ start - target)) <= 1e-14
