"""The deformed ladder-operator construction: commutation relations,
conserved quantities, and the re-derivation of rates and duality kernel."""

from functools import reduce
import itertools
import math

import numpy as np
import pytest

from asymtransport import configspace as cs
from asymtransport import dualitylab as dl
from asymtransport import models, qalgebra as qa
from asymtransport.configspace import ModelParams
from asymtransport.qcalc import q_binomial, q_number

Q, K, NMAX = 0.7, 0.85, 6


def _commutator(A, B):
    return A @ B - B @ A


def _basis_index(eta, n_max):
    """Tensor-basis index of an occupation vector (site 1 most
    significant)."""
    idx = 0
    for v in eta:
        assert 0 <= v <= n_max
        idx = idx * (n_max + 1) + int(v)
    return idx


def _basis_config(idx, L, n_max):
    """Occupation vector of a tensor-basis index."""
    out = []
    for _ in range(L):
        idx, r = divmod(idx, n_max + 1)
        out.append(r)
    return np.array(out[::-1], dtype=int)


def _safe(n_max):
    """Indices of basis states whose ladder images stay inside the
    truncation."""
    return slice(0, n_max)


def test_site_commutation_relations():
    ops = qa.site_operators(K, Q, NMAX)
    s = _safe(NMAX)
    lhs = _commutator(ops["Kplus"], ops["Kminus"])
    rhs = -qa.q_number_of_diagonal(2.0 * ops["K0"], Q)
    assert np.abs((lhs - rhs)[s, s]).max() < 1e-12
    for sign, name in ((+1.0, "Kplus"), (-1.0, "Kminus")):
        comm = _commutator(ops["K0"], ops[name])
        assert np.abs((comm - sign * ops[name])[s, s]).max() < 1e-12


def test_rescaled_generator_relations():
    ops = qa.site_operators(K, Q, NMAX)
    s = _safe(NMAX - 1)
    E, F, Km = ops["E"], ops["F"], ops["K"]
    assert np.abs((Km @ E - Q ** 2 * E @ Km)[s, s]).max() < 1e-12
    assert np.abs((Km @ F - Q ** -2 * F @ Km)[s, s]).max() < 1e-12
    comm = _commutator(E, F)
    rhs = -(Km - ops["Kinv"]) / (Q - 1.0 / Q)
    assert np.abs((comm - rhs)[s, s]).max() < 1e-12


def test_casimir_is_scalar():
    C = qa.casimir_matrix(K, Q, NMAX)
    scalar = q_number(K, Q) * q_number(K - 1.0, Q)
    assert np.abs(C - scalar * np.eye(NMAX + 1)).max() < 1e-11


def test_hamiltonian_constant_q_one_limit():
    assert qa.hamiltonian_constant(0.75, 1.0) == pytest.approx(
        2 * 0.75 * (2 * 0.75 - 1), rel=1e-12)
    # continuity in q near 1
    assert qa.hamiltonian_constant(0.75, 1.0 - 1e-9) == pytest.approx(
        qa.hamiltonian_constant(0.75, 1.0), rel=1e-6)


def _sandwiched_casimir_pair(k, q, n_max):
    """Reference: the fully sandwiched rewriting of the two-site Casimir
    image, ``q^K0 { K+ (x) K- + K- (x) K+ - A (q^K0 - q^-K0) (x) (...)
    - B (q^K0 + q^-K0) (x) (...) } q^-K0`` with scalar constants A, B;
    needs q < 1."""
    ops = qa.site_operators(k, q, n_max)
    Kp, Km, qK0, qK0inv = ops["Kplus"], ops["Kminus"], ops["qK0"], ops["qK0inv"]
    I = ops["identity"]
    A = (q ** k + q ** (-k)) * (q ** (k - 1) + q ** (-(k - 1))) \
        / (2.0 * (q - 1.0 / q) ** 2)
    B = (q ** k - q ** (-k)) * (q ** (k - 1) - q ** (-(k - 1))) \
        / (2.0 * (q - 1.0 / q) ** 2)
    minus = qK0 - qK0inv
    plus = qK0 + qK0inv
    hop = np.kron(Kp, Km) + np.kron(Km, Kp)
    brace = hop - A * np.kron(minus, minus) - B * np.kron(plus, plus)
    return np.kron(qK0, I) @ brace @ np.kron(I, qK0inv)


def test_delta_casimir_forms_agree():
    A = qa.delta_casimir_pair(K, Q, 4)
    B = _sandwiched_casimir_pair(K, Q, 4)
    # compare on the sector-exact part of the two-site truncation
    idx = [i * 5 + j for i in range(5) for j in range(5) if i + j <= 4]
    assert np.abs((A - B)[np.ix_(idx, idx)]).max() < 1e-11


def test_hamiltonian_symmetric_and_annihilates_vacuum():
    H = qa.build_hamiltonian(3, K, Q, 3)
    assert np.abs(H - H.T).max() < 1e-11
    assert np.abs(H[:, 0]).max() < 1e-11


def test_hamiltonian_commutes_with_symmetries():
    L, n_max = 3, 3
    H = qa.build_hamiltonian(L, K, Q, n_max)
    sym = qa.coproduct_symmetries(L, K, Q, n_max)
    for name in ("Kplus", "Kminus", "K0", "E", "F"):
        res = qa.sector_symmetry_residual(H, sym[name], L, n_max, n_max - 1)
        assert res < 1e-11, name


def test_splus_closed_form_equals_q_exponential():
    S_exp = qa.splus_from_qexp(3, K, Q, 3)
    S_cf = qa.splus_closed_form(3, K, Q, 3)
    assert np.abs(S_exp - S_cf).max() < 1e-10


def _pseudo_factorization_residual(L, k, q, n_max):
    """Residual of the site-by-site factorization of the deformed
    exponential of the global raising operator:
    ``exp(E^(L)) = exp(E_1) exp(K_1 E_2) ... exp(K_1...K_(L-1) E_L)``."""
    ops = qa.site_operators(k, q, n_max)
    lhs = qa.splus_from_qexp(L, k, q, n_max)
    rhs = np.eye((n_max + 1) ** L)
    for i in range(1, L + 1):
        m = reduce(np.kron, [ops["K"]] * (i - 1) + [ops["E"]]
                   + [ops["identity"]] * (L - i))
        rhs = rhs @ qa.matrix_q_exp(m, q ** 2)
    scale = max(1.0, float(np.abs(lhs).max()))
    return float(np.abs(lhs - rhs).max()) / scale


def test_pseudo_factorization():
    assert _pseudo_factorization_residual(3, K, Q, 3) < 1e-10


def test_derive_generator_matches_rates():
    L, n_max = 3, 3
    rates = qa.derive_generator(L, K, Q, n_max)
    for n in range(n_max + 1):
        sec = cs.enumerate_sector(L, n)
        idx = qa.sector_indices(sec, n_max)
        ref = models.build_generator(
            sec, "asip", ModelParams(q=Q, k=K, L=L)).matrix.toarray()
        assert np.abs(rates[np.ix_(idx, idx)] - ref).max() < 1e-10


def test_derive_duality_matches_kernel():
    L, n_max = 3, 3
    D = qa.derive_duality(L, K, Q, n_max)
    p = ModelParams(q=Q, k=K, L=L)
    for ne in range(1, n_max + 1):
        for nx in range(ne + 1):
            s_eta = cs.enumerate_sector(L, ne)
            s_xi = cs.enumerate_sector(L, nx)
            ref = dl.d_asip_matrix(s_eta, s_xi, p)
            blk = D[np.ix_(qa.sector_indices(s_eta, n_max),
                           qa.sector_indices(s_xi, n_max))]
            assert np.abs(blk - ref).max() < 1e-10


def test_matrix_q_exp_scalar_case():
    # for a nilpotent 2x2 the series terminates: 1 + X
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    out = qa.matrix_q_exp(X, 0.49)
    assert np.allclose(out, np.eye(2) + X)


# Reference: the per-entry loops that built the exponential symmetry, the
# ground state and the derived kernel before the per-site tables.  The
# tables form the same products in the same order, so they must agree
# bit for bit, not merely to rounding.

def _ref_splus_closed_form(L, k, q, n_max):
    d = n_max + 1
    out = np.zeros((d ** L, d ** L))
    for col in range(d ** L):
        xi = _basis_config(col, L, n_max)
        ranges = [range(int(x), n_max + 1) for x in xi]
        for eta in itertools.product(*ranges):
            val = 1.0
            acc = 0.0
            for i0 in range(L):
                e, x = eta[i0], int(xi[i0])
                l = e - x
                val *= math.sqrt(q_binomial(e, l, q)
                                 * q_binomial(e + 2 * k - 1, l, q))
                val *= q ** (l * (1 + k + x + 2 * acc))
                acc += x + k
            out[_basis_index(eta, n_max), col] = val
    return out


def _ref_ground_state_vector(L, k, q, n_max):
    d = n_max + 1
    g = np.zeros(d ** L)
    for idx in range(d ** L):
        eta = _basis_config(idx, L, n_max)
        val = 1.0
        for i0, e in enumerate(eta):
            i = i0 + 1
            val *= math.sqrt(q_binomial(e + 2 * k - 1, e, q)) \
                * q ** (e * (1.0 - k + 2.0 * k * i))
        g[idx] = val
    return g


def _ref_derive_duality(L, k, q, n_max):
    S = _ref_splus_closed_form(L, k, q, n_max)
    g = _ref_ground_state_vector(L, k, q, n_max)
    raw = (S / g[:, None]) / g[None, :]
    D = np.zeros_like(raw)
    for col in range((n_max + 1) ** L):
        n_xi = int(_basis_config(col, L, n_max).sum())
        D[:, col] = raw[:, col] * q ** (-2.0 * (k - 1.0) * n_xi)
    return D


QK_GRID = [(0.85, 1.0), (0.8, 0.5), (0.9, 1.5), (0.95, 2.0), (0.7, 0.85),
           (0.6, 0.3)]
# q = 1 and next to it, where q_binomial and q_number take other forms
QK_EDGES = [(1.0, 0.75), (0.9999, 1.5)]
SHAPES = [(2, 6), (3, 4), (4, 3), (5, 2)]
# the benchmark's shape, at one point (its reference loop is slow)
WORKLOAD_SHAPE_AT = {(0.7, 0.85): [(4, 4)]}


def _assert_fitting_block(M, ref, L, n_max):
    """M equals ref byte for byte between fitting states, those with at
    most n_max particles in all, and is exactly 0 everywhere else."""
    fit = qa.basis_occupations(L, n_max).sum(axis=1) <= n_max
    block = np.ix_(fit, fit)
    assert M.shape == ref.shape
    assert M[block].tobytes() == ref[block].tobytes()
    outside = ~(fit[:, None] & fit[None, :])
    assert outside.any() and not M[outside].any()


@pytest.mark.parametrize("q,k", QK_GRID + QK_EDGES)
def test_site_tables_match_per_entry_loops_bit_for_bit(q, k):
    for L, n_max in SHAPES + WORKLOAD_SHAPE_AT.get((q, k), []):
        S = _ref_splus_closed_form(L, k, q, n_max)
        g = _ref_ground_state_vector(L, k, q, n_max)
        assert np.array_equal(qa.splus_closed_form(L, k, q, n_max), S)
        assert np.array_equal(qa.ground_state_vector(L, k, q, n_max), g)
        _assert_fitting_block(qa.derive_duality(L, k, q, n_max),
                              _ref_derive_duality(L, k, q, n_max), L, n_max)


def test_derive_duality_bit_for_bit_at_benchmark_size():
    L, n_max, q, k = 4, 4, 0.85, 1.0
    _assert_fitting_block(qa.derive_duality(L, k, q, n_max),
                          _ref_derive_duality(L, k, q, n_max), L, n_max)


def test_basis_occupations_and_sector_indices():
    L, n_max = 3, 4
    occ = qa.basis_occupations(L, n_max)
    for idx in range((n_max + 1) ** L):
        assert np.array_equal(occ[idx], _basis_config(idx, L, n_max))
    for n in range(n_max + 1):
        sec = cs.enumerate_sector(L, n)
        assert qa.sector_indices(sec, n_max).tolist() == [
            _basis_index(c, n_max) for c in sec.configs]
    with pytest.raises(ValueError):
        qa.sector_indices(cs.enumerate_sector(L, n_max + 1), n_max)


# Reference: the Hamiltonian as the dense sum of Kronecker embeds and
# constant identities it was built from before the strided block views.
# Every entry gets the same nonzero addends in the same order, so the
# matrices must agree bit for bit.

def _ref_build_hamiltonian(L, k, q, n_max):
    d = n_max + 1
    pair = qa.delta_casimir_pair(k, q, n_max)
    c = qa.hamiltonian_constant(k, q)
    H = np.zeros((d ** L, d ** L))
    for i in range(1, L):
        H += np.kron(np.kron(np.eye(d ** (i - 1)), pair),
                     np.eye(d ** (L - i - 1)))
        H += c * np.eye(d ** L)
    return H


@pytest.mark.parametrize("L,n_max", [(2, 5), (3, 3), (4, 4), (5, 3)])
def test_hamiltonian_matches_dense_kronecker_sum_bit_for_bit(L, n_max):
    for q, k in ((0.85, 1.0), (0.8, 0.5), (0.6, 0.3), (0.95, 2.0),
                 (1.0, 0.75)):
        H = qa.build_hamiltonian(L, k, q, n_max)
        ref = _ref_build_hamiltonian(L, k, q, n_max)
        assert H.tobytes() == ref.tobytes(), (q, k)


# Reference: the global symmetries as they were assembled, one Kronecker
# product per factor in a loop and the total K0 through an identity embed.
# Kronecker products with identities are exact, so the bytes must agree.

def _ref_coproduct_symmetries(L, k, q, n_max):
    ops = qa.site_operators(k, q, n_max)
    d = n_max + 1
    dim = d ** L

    def kron_all(factors):
        m = factors[0]
        for f in factors[1:]:
            m = np.kron(m, f)
        return m

    out = {name: np.zeros((dim, dim))
           for name in ("Kplus", "Kminus", "K0", "E", "F")}
    for i in range(1, L + 1):
        for name in ("Kplus", "Kminus"):
            out[name] += kron_all([ops["qK0"]] * (i - 1) + [ops[name]]
                                  + [ops["qK0inv"]] * (L - i))
        out["K0"] += np.kron(np.kron(np.eye(d ** (i - 1)), ops["K0"]),
                             np.eye(d ** (L - i)))
        out["E"] += kron_all([ops["K"]] * (i - 1) + [ops["E"]]
                             + [ops["identity"]] * (L - i))
        out["F"] += kron_all([ops["identity"]] * (i - 1) + [ops["F"]]
                             + [ops["Kinv"]] * (L - i))
    return out


@pytest.mark.parametrize("L,n_max", [(2, 4), (3, 3)])
def test_coproduct_symmetries_bit_for_bit(L, n_max):
    for q, k in ((0.85, 1.0), (0.6, 0.3), (1.0, 0.75)):
        new = qa.coproduct_symmetries(L, k, q, n_max)
        ref = _ref_coproduct_symmetries(L, k, q, n_max)
        assert list(new) == list(ref)
        for name in ref:
            assert new[name].tobytes() == ref[name].tobytes(), (q, k, name)


def test_sector_symmetry_residual_bit_for_bit():
    # reference: the residual as it was written, forming H @ S twice
    L, n_max = 3, 3
    H = qa.build_hamiltonian(L, K, Q, n_max)
    keep = qa.basis_occupations(L, n_max).sum(axis=1) <= n_max - 1
    for S in qa.coproduct_symmetries(L, K, Q, n_max).values():
        comm = H @ S - S @ H
        scale = max(1.0, float(np.abs(H @ S).max()))
        ref = float(np.abs(comm[np.ix_(keep, keep)]).max()) / scale
        assert qa.sector_symmetry_residual(H, S, L, n_max, n_max - 1) == ref


@pytest.mark.parametrize("L,n_max", [(3, 3), (4, 4)] + SHAPES)
def test_derive_generator_bit_for_bit(L, n_max):
    # reference: the conjugation of the dense reference Hamiltonian, as
    # formed out of place
    for q, k in QK_GRID + QK_EDGES:
        g = qa.ground_state_vector(L, k, q, n_max)
        ref = (_ref_build_hamiltonian(L, k, q, n_max) * g[None, :]) \
            / g[:, None]
        _assert_fitting_block(qa.derive_generator(L, k, q, n_max), ref,
                              L, n_max)
