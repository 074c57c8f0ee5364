"""Fixed-point semantics of transducers.

A transducer is a unitary S on a public (+) private split.  Its action on the
public space is defined implicitly: S maps xi (+) v to tau (+) v for a unique
tau and a catalyst v that the map leaves unchanged.  This module extracts
(tau, v) by a linear solve, measures the walk's work and query costs, runs the
K-iteration implementation of the action, and does composition accounting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import LinalgError, Operator, as_array, haar_unitary
from .query import QueryAlgorithm, trace

RIDGE_TRIGGER = 1e-8
DENSE_ACTION_CAP = 2048  # total dimension above which the big operator is never formed


class TransductionError(LinalgError):
    """The fixed-point solve did not reach the requested residual."""

    def __init__(self, msg: str, residual: float):
        super().__init__(msg)
        self.residual = residual


@dataclass(frozen=True)
class Transducer:
    """Unitary on public (+) private, given raw or as a query algorithm.

    The public space occupies the first ``dim_public`` flat coordinates.  When
    ``algorithm`` is present the unitary is S(O) for the supplied oracle and
    query-cost instrumentation is available; ``fixed`` gives an oracle-free
    unitary directly.
    """

    dim_public: int
    algorithm: QueryAlgorithm | None = None
    fixed: Operator | None = None

    def __post_init__(self):
        if (self.algorithm is None) == (self.fixed is None):
            raise LinalgError("give exactly one of algorithm or fixed")
        if not 0 < self.dim_public <= self.dim:
            raise LinalgError("dim_public outside the unitary's dimension")

    @property
    def dim(self) -> int:
        return self.algorithm.dim if self.algorithm is not None else self.fixed.dim

    @property
    def dim_private(self) -> int:
        return self.dim - self.dim_public

    def operator(self, oracle: Operator | None = None) -> Operator:
        if self.algorithm is not None:
            if oracle is None:
                raise LinalgError("this transducer takes an oracle")
            return self.algorithm.action(oracle)
        return self.fixed

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = as_array(vec)
        return v[: self.dim_public], v[self.dim_public:]

    def couple(self, xi, v) -> np.ndarray:
        return np.concatenate([as_array(xi), as_array(v)])


def algorithm_as_transducer(action: Operator) -> Transducer:
    """Any unitary is a transducer with empty private space and zero catalyst."""
    return Transducer(dim_public=action.dim, fixed=action)


@dataclass(frozen=True)
class TransductionResult:
    tau: np.ndarray
    catalyst: np.ndarray
    residual: float
    used_ridge: bool

    @property
    def W(self) -> float:
        return float(np.linalg.norm(self.catalyst) ** 2)


def transduce(T: Transducer, oracle: Operator | None, xi, tol: float = 1e-9) -> TransductionResult:
    """Solve S(xi (+) v) = tau (+) v for the minimum-norm catalyst v.

    The private block equation (I - D) v = C xi is solved through the SVD of
    I - D over the singular values above ``RIDGE_TRIGGER``; with every value
    kept this is the minimum-norm least-squares solve.  ``used_ridge`` reports
    that some were cut: the signature of a walk whose bounded branch coexists
    with an exponentially heavy exact branch, or of p -> 1/2 degeneracy.  The
    achieved residual is reported, and residuals above ``tol`` raise.
    """
    s = T.operator(oracle).matrix
    h = T.dim_public
    xi_arr = as_array(xi)
    if xi_arr.size != h:
        raise LinalgError(f"initial state dim {xi_arr.size} != public dim {h}")
    if T.dim_private == 0:
        tau = s @ xi_arr
        return TransductionResult(tau, np.zeros(0, dtype=complex), 0.0, False)
    c_blk = s[h:, :h]
    d_blk = s[h:, h:]
    m = np.eye(T.dim_private, dtype=complex) - d_blk
    rhs = c_blk @ xi_arr
    u_sv, sv, vh_sv = np.linalg.svd(m)
    # Directions below the trigger belong to an exact kernel or to a branch
    # whose catalyst norm would be astronomically large; the minimum-norm
    # solve over the remaining directions keeps both the well-conditioned
    # physics and the kernel projection exact, which a single Tikhonov weight
    # cannot do when the two regimes coexist.
    keep = sv > RIDGE_TRIGGER
    used_ridge = not bool(np.all(keep))
    coeff = np.zeros_like(sv, dtype=complex)
    coeff[keep] = (u_sv.conj().T @ rhs)[keep] / sv[keep]
    v = vh_sv.conj().T @ coeff
    coupled = s @ T.couple(xi_arr, v)
    tau = coupled[:h]
    residual = float(np.linalg.norm(coupled[h:] - v))
    if residual > tol:
        raise TransductionError(
            f"near-singular transduction: residual {residual:.3e} > tol {tol:.1e}", residual)
    return TransductionResult(tau, v, residual, used_ridge)


@dataclass(frozen=True)
class ComplexityReport:
    W: float
    L: float
    total_query_state: np.ndarray
    tau: np.ndarray
    catalyst: np.ndarray
    residual: float


def complexities(T: Transducer, oracle: Operator, xi, tol: float = 1e-9,
                 catalyst: np.ndarray | None = None) -> ComplexityReport:
    """Work and query costs measured on the initial coupling xi (+) v.

    ``catalyst`` overrides the solver for transducers whose designated
    catalyst is pinned analytically (the solver result is used otherwise).
    tau and the residual are read off the final state of the trace, which is
    always measured on the actual algorithm.
    """
    if T.algorithm is None:
        raise LinalgError("complexities needs the query-algorithm form")
    xi_arr = as_array(xi)
    if catalyst is None:
        v = transduce(T, oracle, xi_arr, tol).catalyst
    else:
        v = as_array(catalyst)
    tr = trace(T.algorithm, oracle, T.couple(xi_arr, v))
    tau, moved = T.split(tr.final_state)
    residual = float(np.linalg.norm(moved - v))
    q = tr.total_query_state
    return ComplexityReport(
        W=float(np.linalg.norm(v) ** 2),
        L=float(np.linalg.norm(q) ** 2),
        total_query_state=q,
        tau=tau,
        catalyst=v,
        residual=residual,
    )


def implement_action(T: Transducer, oracle: Operator | None, xi, K: int) -> np.ndarray:
    """Approximate tau by K controlled couplings of S against a shared catalyst.

    The algorithm attaches a uniform K-fold superposition to xi, feeds each
    copy through S against the one shared private register, and detaches the
    superposition; the output satisfies |tau' - tau| <= 2 sqrt(W/K).  Each
    coupling only touches one copy and the private register, so S is applied
    slice by slice; ``action_operator`` materializes the same unitary whole
    for small dimensions (the two agree exactly, see the tests).
    """
    if K < 1:
        raise LinalgError("K must be >= 1")
    s = T.operator(oracle).matrix
    h, l = T.dim_public, T.dim_private
    xi_arr = as_array(xi)
    copies = np.zeros((K, h), dtype=complex)
    copies[:] = xi_arr / np.sqrt(K)
    priv = np.zeros(l, dtype=complex)
    for i in range(K):
        chunk = s @ np.concatenate([copies[i], priv])
        copies[i] = chunk[:h]
        priv = chunk[h:]
    return copies.sum(axis=0) / np.sqrt(K)


def action_operator(T: Transducer, oracle: Operator | None, K: int) -> Operator:
    """The full (K copies + private) coupling unitary, materialized.

    Guarded by ``DENSE_ACTION_CAP``: beyond it the dense matrix would waste
    memory and ``implement_action`` already applies the identical map.
    """
    s = T.operator(oracle).matrix
    h, l = T.dim_public, T.dim_private
    total = K * h + l
    if total > DENSE_ACTION_CAP:
        raise LinalgError(f"coupling dimension {total} above dense cap {DENSE_ACTION_CAP}")
    return Operator(_dense_action_operator(s, h, l, K))


def _attach_unitary(K: int) -> np.ndarray:
    """Unitary on C^K sending |0> to the uniform superposition (a reflection)."""
    u = np.full(K, 1.0 / np.sqrt(K))
    e0 = np.zeros(K)
    e0[0] = 1.0
    w = u + e0
    return np.eye(K) - 2.0 * np.outer(w, w) / float(w @ w) if np.linalg.norm(w) > 1e-14 else np.eye(K)


def _dense_action_operator(s: np.ndarray, h: int, l: int, K: int) -> np.ndarray:
    total = K * h + l
    att = _attach_unitary(K)
    attach = np.zeros((total, total), dtype=complex)
    attach[: K * h, : K * h] = np.kron(att, np.eye(h))
    attach[K * h:, K * h:] = np.eye(l)
    out = attach.copy()
    for i in range(K):
        rows = np.concatenate([np.arange(i * h, (i + 1) * h), np.arange(K * h, total)])
        out[rows, :] = s @ out[rows, :]
    # att is self-inverse, so attaching again detaches; global signs cancel.
    return attach @ out


def canonical_check(T: Transducer, tol: float = 1e-10, seed: int = 7) -> bool:
    """Probe whether S(O) factors as an oracle-independent unitary after one query.

    Two distinct probe oracles O1, O2 are drawn; the factorization holds iff
    S(O1) O1~^dag equals S(O2) O2~^dag entrywise, using the transducer's own
    declared query split.
    """
    if T.algorithm is None:
        return False
    alg = T.algorithm
    rng = np.random.default_rng(seed)
    probes = [Operator(haar_unitary(alg.oracle_dim, rng)) for _ in range(2)]
    residues = []
    for o in probes:
        qop = alg.query_operator(o)
        residues.append(alg.action(o).matrix @ qop.conj().T)
    return float(np.max(np.abs(residues[0] - residues[1]))) <= tol


def canonical_from_constraints(problem, candidate, tol: float = 1e-8) -> Transducer:
    """Compile a canonical transducer realizing given total query states.

    For a finite state conversion problem with admissible candidate vectors
    v_x, the map xi_x (+) (I x O_x) v_x -> tau_x (+) v_x extends to a unitary
    work step (the Gram matrices agree exactly when the candidate is
    feasible); one query followed by that work step is the transducer.
    """
    from .linalg import unitary_mapping  # local import to keep module edges thin

    h = problem.dim_public
    m = problem.dim_oracle
    vecs = [as_array(v) for v in candidate.vectors]
    if not vecs:
        raise LinalgError("empty candidate")
    up = vecs[0].size // m
    dim = h + up * m
    sources, targets = [], []
    for ox, xi, tau, v in zip(problem.oracles, problem.inputs, problem.outputs, vecs):
        queried = (v.reshape(up, m) @ ox.matrix.T).reshape(-1)
        sources.append(np.concatenate([as_array(xi), queried]))
        targets.append(np.concatenate([as_array(tau), v]))
    work = unitary_mapping(sources, targets, dim, tol)
    ident = Operator(np.eye(dim, dtype=complex))
    alg = QueryAlgorithm(
        unitaries=(ident, Operator(work)),
        dim=dim, up_dim=up, oracle_dim=m,
        bullet=np.arange(h, dim),
    )
    return Transducer(dim_public=h, algorithm=alg)


def parallel_compose(Ts) -> Transducer:
    """Direct-sum transducer: publics concatenate, then privates.

    Work and query costs of the composite are the sums / direct sums of the
    parts (a verified property, not an assumption).  Algorithm-form inputs
    must share a query count; the combined oracle is the block direct sum.
    """
    Ts = list(Ts)
    if not Ts:
        raise LinalgError("nothing to compose")
    if len(Ts) == 1:
        return Ts[0]
    if all(t.algorithm is not None for t in Ts):
        return _parallel_compose_algorithms(Ts)
    if any(t.algorithm is not None for t in Ts):
        raise LinalgError("cannot mix algorithm-form and fixed transducers")
    dims = [t.dim for t in Ts]
    pubs = [t.dim_public for t in Ts]
    total = sum(dims)
    perm = _public_first_permutation(dims, pubs)
    big = np.zeros((total, total), dtype=complex)
    at = 0
    for t in Ts:
        big[at:at + t.dim, at:at + t.dim] = t.fixed.matrix
        at += t.dim
    mat = big[np.ix_(perm, perm)]
    return Transducer(dim_public=sum(pubs), fixed=Operator(mat))


def _public_first_permutation(dims, pubs):
    """new index -> old index, listing all publics then all privates."""
    offsets = np.concatenate([[0], np.cumsum(dims)])
    order = []
    for k, p in enumerate(pubs):
        order.extend(range(offsets[k], offsets[k] + p))
    for k, (d, p) in enumerate(zip(dims, pubs)):
        order.extend(range(offsets[k] + p, offsets[k] + d))
    return np.asarray(order, dtype=int)


def _parallel_compose_algorithms(Ts) -> Transducer:
    qs = {t.algorithm.queries for t in Ts}
    if len(qs) != 1:
        raise LinalgError("algorithm-form parallel composition needs equal query counts")
    q = qs.pop()
    ups = [t.algorithm.up_dim for t in Ts]
    ms = [t.algorithm.oracle_dim for t in Ts]
    up_tot, m_tot = sum(ups), sum(ms)
    pubs = [t.dim_public for t in Ts]
    dims = [t.dim for t in Ts]
    cross = up_tot * m_tot - sum(u * m for u, m in zip(ups, ms))
    dim = sum(dims) + cross

    # Layout: [all publics][all privates, part by part][cross grid cells].
    # Every part coordinate keeps one composite home; the combined query grid
    # is an index array, so bullet cells may live anywhere, including inside
    # the public block (walk layouts query their public vertex).
    pub_off = np.concatenate([[0], np.cumsum(pubs)]).astype(int)
    priv_off = (np.concatenate([[0], np.cumsum([d - p for d, p in zip(dims, pubs)])])
                + sum(pubs)).astype(int)
    up_off = np.concatenate([[0], np.cumsum(ups)]).astype(int)
    m_off = np.concatenate([[0], np.cumsum(ms)]).astype(int)

    embeds = []
    for k, t in enumerate(Ts):
        emb = np.empty(t.dim, dtype=int)
        emb[: t.dim_public] = pub_off[k] + np.arange(t.dim_public)
        emb[t.dim_public:] = priv_off[k] + np.arange(t.dim - t.dim_public)
        embeds.append(emb)

    bullet = np.empty(up_tot * m_tot, dtype=int)
    bullet.fill(-1)
    for k, t in enumerate(Ts):
        alg = t.algorithm
        for pos, home in enumerate(alg.bullet):
            u_local, m_local = divmod(pos, alg.oracle_dim)
            cell = (up_off[k] + u_local) * m_tot + (m_off[k] + m_local)
            bullet[cell] = embeds[k][int(home)]
    fresh = int(sum(dims))
    for cell in range(bullet.size):
        if bullet[cell] < 0:
            bullet[cell] = fresh
            fresh += 1

    unitaries = []
    for step in range(q + 1):
        mat = np.eye(dim, dtype=complex)
        for k, t in enumerate(Ts):
            u = t.algorithm.unitaries[step]
            mat[np.ix_(embeds[k], embeds[k])] = u.apply(np.eye(t.dim, dtype=complex))
        unitaries.append(Operator(mat))

    alg = QueryAlgorithm(tuple(unitaries), dim=dim, up_dim=up_tot, oracle_dim=m_tot, bullet=bullet)
    return Transducer(dim_public=int(sum(pubs)), algorithm=alg)


def functional_accounting(q_direct, q_inner, inner_complexity_fn, w_outer: float = 0.0) -> dict:
    """Cost bookkeeping for plugging one transducer into another's oracle slot.

    The composite's query state splits into the part sent to the global oracle
    directly and the inner transducer run on the forwarded query state, so
    L_total = |q_direct|^2 + L_inner(q_inner) and the work adds likewise.
    Pure arithmetic; no operator is constructed.
    """
    inner = inner_complexity_fn(q_inner)
    l_inner = inner["L"] if isinstance(inner, dict) else float(inner)
    w_inner = inner.get("W", 0.0) if isinstance(inner, dict) else 0.0
    return {
        "L_total": float(np.linalg.norm(as_array(q_direct)) ** 2) + float(l_inner),
        "W_total": float(w_outer) + float(w_inner),
    }


def span_restriction(query_states, oracle_dim: int, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (columns) of the union of index-register factors.

    Each query state is reshaped to (index register) x (oracle slot); the
    returned basis spans every state's index-register side, so projecting
    through basis (x) identity preserves all inner products and the oracle
    tensor structure.  This is the finite-dimensional restriction that lets an
    infinite-register construction act in dimension at most sum of ranks.
    """
    mats = []
    for v in query_states:
        arr = as_array(v)
        if arr.size % oracle_dim:
            raise LinalgError("state size not divisible by oracle dim")
        mats.append(arr.reshape(-1, oracle_dim))
    if not mats:
        return np.zeros((0, 0), dtype=complex)
    up = max(m.shape[0] for m in mats)
    stacked = np.hstack([np.pad(m, ((0, up - m.shape[0]), (0, 0))) for m in mats])
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :rank]
