import numpy as np
import pytest

from transduce_lab.linalg import Operator
from transduce_lab.nonboolean import (
    MultiBitOracleSpec,
    NonBooleanError,
    block_data,
    bv_error_reduction,
    inner_product_transform,
    lifted_blocks,
    lifted_oracle,
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
    t = inner_product_transform(1).matrix
    # b=1, a=1 flips c; dims ordered probe, flag, answer.
    src = np.zeros(8)
    src[1 * 4 + 0 * 2 + 1] = 1.0
    out = t @ src
    assert out[1 * 4 + 1 * 2 + 1] == pytest.approx(1.0)


def test_inner_product_transform_m2_dot():
    t = inner_product_transform(2).matrix
    b, a = 0b11, 0b10  # a.b = 1
    src = np.zeros(32)
    src[(b * 2 + 0) * 4 + a] = 1.0
    out = t @ src
    assert out[(b * 2 + 1) * 4 + a] == pytest.approx(1.0)


def test_inner_product_transform_b0_identity():
    t = inner_product_transform(2).matrix
    blk = t[: 8, : 8]  # probe b = 0 sector
    assert np.allclose(blk, np.eye(8))


def test_lifted_oracle_block_structure():
    spec = _spec(2, 2, 0.8)
    lifted = lifted_oracle(spec.reflecting_oracle(), 2)
    blocks, off = lifted_blocks(lifted, 2)
    assert off <= 1e-12
    assert lifted.is_unitary(1e-10)
    for b, blk in enumerate(blocks):
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


def test_m1_block_reduces_to_boolean_case():
    spec = _spec(1, 1, 0.8)
    lifted = lifted_oracle(spec.reflecting_oracle(), 1)
    blocks, _ = lifted_blocks(lifted, 1)
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
    assert red.operator.is_unitary(1e-9)


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


def test_one_extra_qubit_only():
    spec = _spec(2, 2, 0.8)
    o_ref = spec.reflecting_oracle()
    lifted = lifted_oracle(o_ref, 2)
    assert lifted.dim == (1 << 2) * 2 * o_ref.dim
