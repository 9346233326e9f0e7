"""Deformed-algebra construction of the asymmetric inclusion process.

The chain of exact linear-algebra facts implemented and machine-checked
here:

1. a triple of ladder operators with deformed commutation relations
   ``[K+, K-] = -[2 K0]`` and ``[K0, K+-] = +- K+-``, represented on the
   occupation basis, with a scalar Casimir element;
2. a co-product turning one-site operators into two-site ones; applying it
   to the Casimir gives the two-site Hamiltonian summand, and adding a
   constant makes the all-empty state a ground state;
3. global raising/lowering operators built by iterating the co-product are
   symmetries of the Hamiltonian, and the deformed exponential of the
   global raising operator pseudo-factorizes over sites into an operator
   with explicit matrix elements;
4. conjugating the Hamiltonian by its positive ground state produces
   exactly the particle-jump generator of the asymmetric inclusion
   process, and conjugating the exponential symmetry by the ground state
   on both sides produces (up to a sector constant) its self-duality
   kernel.

Operators are returned as dense matrices on the truncated occupation
basis ``{0, ..., n_max}`` per site, site 1 the most significant tensor
factor; identities are exact on any particle-number sector whose total
fits strictly inside the truncation.  The two derived operators of step 4
are formed only between the fitting states, the configurations with at
most n_max particles in all, which hold every sector the identities
read; their entries outside that block are exactly 0.

Every operator is assembled from small tables by broadcasting, without
Kronecker products of full-size operators.  The Hamiltonian and the
global symmetries add each summand (an edge's two-site Casimir image, or
a site's operator times diagonal factors on the other sites, multiplied
in site order) into a strided view of the blocks where the sites outside
it keep their occupations.  The explicit operators factor over sites:
each element is a product, in site order, of per-site factors looked up
in small tables.  Keeping the formulas' order of sums and products fixes
every bit of the result.  Nothing here uses ``dualitylab``'s kernel code
or ``models``' rates, so comparing with them is a genuine re-derivation.
"""

import math

import numpy as np

from . import qcalc
from .qcalc import q_binomial, q_number

__all__ = [
    "site_operators", "casimir_matrix", "delta_casimir_pair",
    "hamiltonian_constant", "build_hamiltonian", "coproduct_symmetries",
    "basis_occupations", "sector_indices", "splus_closed_form",
    "splus_from_qexp", "ground_state_vector", "derive_generator",
    "derive_duality",
]


def site_operators(k, q, n_max):
    """One-site operators on the truncated occupation basis.

    Returns a dict with the ladder triple ``Kplus``, ``Kminus``, ``K0``
    (``K+|n> = sqrt([n+2k][n+1]) |n+1>``, ``K-|n> = sqrt([n][n+2k-1])
    |n-1>``, ``K0|n> = (n+k)|n>``), the diagonal exponentials ``qK0``,
    ``qK0inv``, ``K = q^(2 K0)``, ``Kinv``, and the rescaled pair
    ``E = q^K0 K+``, ``F = K- q^-K0`` satisfying ``K E = q^2 E K``,
    ``K F = q^-2 F K``, ``[E, F] = -(K - K^-1)/(q - 1/q)``.
    """
    qcalc.check_q(q)
    d = n_max + 1
    n = np.arange(d, dtype=float)
    Kp = np.zeros((d, d))
    Km = np.zeros((d, d))
    for m in range(n_max):
        amp = math.sqrt(q_number(m + 2 * k, q) * q_number(m + 1, q))
        Kp[m + 1, m] = amp
        Km[m, m + 1] = math.sqrt(q_number(m + 1, q) * q_number(m + 2 * k, q))
    K0 = np.diag(n + k)
    qK0 = np.diag(q ** (n + k))
    qK0inv = np.diag(q ** (-(n + k)))
    ops = {
        "Kplus": Kp, "Kminus": Km, "K0": K0,
        "qK0": qK0, "qK0inv": qK0inv,
        "K": qK0 @ qK0, "Kinv": qK0inv @ qK0inv,
        "E": qK0 @ Kp, "F": Km @ qK0inv,
        "identity": np.eye(d),
    }
    return ops


def q_number_of_diagonal(D, q):
    """Apply the symmetric q-number to a diagonal matrix spectrally."""
    d = np.diag(D).copy()
    return np.diag([q_number(v, q) for v in d])


def casimir_matrix(k, q, n_max):
    """``[K0][K0 - 1] - K+ K-``; a scalar ``[k][k-1]`` times the identity
    in this representation."""
    ops = site_operators(k, q, n_max)
    return q_number_of_diagonal(ops["K0"], q) \
        @ q_number_of_diagonal(ops["K0"] - np.eye(n_max + 1), q) \
        - ops["Kplus"] @ ops["Kminus"]


def hamiltonian_constant(k, q):
    """Per-edge constant making the all-empty state a ground state:
    ``(q^2k - q^-2k)(q^(2k-1) - q^-(2k-1))/(q - 1/q)^2``; the q -> 1
    limit is ``2k(2k-1)``."""
    if q == 1.0:
        return 2.0 * k * (2.0 * k - 1.0)
    return (q ** (2 * k) - q ** (-2 * k)) \
        * (q ** (2 * k - 1) - q ** (-(2 * k - 1))) / (q - 1.0 / q) ** 2


def delta_casimir_pair(k, q, n_max):
    """Two-site image of the Casimir under the co-product, as a dense
    matrix on the pair basis (left site most significant): hopping terms
    sandwiched between ``q^K0`` (left) and ``q^-K0`` (right), plus
    ``K+K- (x) q^-2K0``, ``q^2K0 (x) K+K-`` and a diagonal combination of
    ``q^(+-2K0) (x) q^(+-2K0)``.  At q = 1 the diagonal combination
    degenerates to ``-(K0 (x) 1 + 1 (x) K0)(K0 (x) 1 + 1 (x) K0 - 1)``.
    """
    ops = site_operators(k, q, n_max)
    Kp, Km, qK0, qK0inv = ops["Kplus"], ops["Kminus"], ops["qK0"], ops["qK0inv"]
    K, Kinv, I = ops["K"], ops["Kinv"], ops["identity"]
    hop = np.kron(Kp, Km) + np.kron(Km, Kp)
    out = np.kron(qK0, I) @ hop @ np.kron(I, qK0inv)
    out += np.kron(Kp @ Km, Kinv) + np.kron(K, Kp @ Km)
    if q == 1.0:
        tot = np.kron(ops["K0"], I) + np.kron(I, ops["K0"])
        out -= tot @ (tot - np.eye(tot.shape[0]))
    else:
        c = 1.0 / (q - 1.0 / q) ** 2
        out -= c * (np.kron(K, K) / q + q * np.kron(Kinv, Kinv)
                    - (q + 1.0 / q) * np.eye(K.shape[0] ** 2))
    return out


def _diagonal_blocks(M, before, after, width):
    """Strided (before, after, width, width) view of the square matrix M
    on the basis (earlier sites, a block of sites, later sites), with
    ``before``, ``width`` and ``after`` states: the entries whose row and
    column agree outside the block."""
    dim = M.shape[0]
    step = M.strides[1]
    return np.lib.stride_tricks.as_strided(
        M, shape=(before, after, width, width),
        strides=(width * after * (dim + 1) * step, (dim + 1) * step,
                 after * dim * step, after * step))


def build_hamiltonian(L, k, q, n_max):
    """Sum over edges of the embedded two-site Casimir image plus the
    per-edge constant; annihilates the all-empty state and is symmetric.

    The embedded summand of edge i is nonzero only in the blocks where
    the sites other than i and i+1 keep their occupations, so each edge
    adds the pair matrix into a strided view of those blocks and the
    constant into a view of the diagonal.  Every entry receives the
    nonzero addends of the dense sum, in the same order.
    """
    d = n_max + 1
    dim = d ** L
    pair = delta_casimir_pair(k, q, n_max)
    c = hamiltonian_constant(k, q)
    H = np.zeros((dim, dim))
    diagonal = H.reshape(-1)[::dim + 1]
    for i in range(1, L):
        blocks = _diagonal_blocks(H, d ** (i - 1), d ** (L - i - 1), d * d)
        blocks += pair
        diagonal += c
    return H


def _coproduct_sum(L, before, local, after):
    """``sum_i before^(i-1) (x) local (x) after^(L-i)`` for diagonal
    ``before`` and ``after``: summand i is nonzero only where the sites
    other than i keep their occupations, with value ``b(eta_1) ...
    b(eta_(i-1)) local(eta_i, xi_i) a(eta_(i+1)) ... a(eta_L)``, the
    factors multiplied in site order as in the Kronecker chain."""
    d = local.shape[0]
    b, a = np.diag(before), np.diag(after)
    out = np.zeros((d ** L, d ** L))
    prefix = np.ones(1)  # product of b over the sites before i
    for i in range(1, L + 1):
        # (before, after, d, d), the sites after i multiplied in one by one
        term = prefix[:, None, None, None] * local
        for _ in range(L - i):
            term = (term[:, :, None] * a[:, None, None]).reshape(
                len(prefix), -1, d, d)
        blocks = _diagonal_blocks(out, d ** (i - 1), d ** (L - i), d)
        blocks += term
        prefix = (prefix[:, None] * b).ravel()
    return out


def coproduct_symmetries(L, k, q, n_max):
    """Global operators commuting with the Hamiltonian.

    Returns a dict with the iterated co-product images ``Kplus``,
    ``Kminus`` (site operator dressed by ``q^K0`` on the left and
    ``q^-K0`` on the right), the total ``K0``, and the rescaled global
    raising/lowering operators ``E = sum_i K_1...K_(i-1) E_i`` and
    ``F = sum_i F_i K_(i+1)^-1...K_L^-1``.
    """
    ops = site_operators(k, q, n_max)
    I = ops["identity"]
    # (sites before i, site i, sites after i) of each summand
    chains = {
        "Kplus": (ops["qK0"], ops["Kplus"], ops["qK0inv"]),
        "Kminus": (ops["qK0"], ops["Kminus"], ops["qK0inv"]),
        "K0": (I, ops["K0"], I),
        "E": (ops["K"], ops["E"], I),
        "F": (I, ops["F"], ops["Kinv"]),
    }
    return {name: _coproduct_sum(L, *factors)
            for name, factors in chains.items()}


def basis_occupations(L, n_max):
    """``(d**L, L)`` array whose row ``idx`` is the occupation vector of
    tensor-basis index idx (site 1 most significant), with d = n_max + 1."""
    d = n_max + 1
    return np.indices((d,) * L).reshape(L, -1).T


def sector_indices(sector, n_max):
    """Tensor-basis indices of all configurations of a sector."""
    configs = sector.configs
    if configs.max() > n_max:
        raise ValueError("occupation outside the truncated basis")
    return configs @ (n_max + 1) ** np.arange(sector.L - 1, -1, -1)


def matrix_q_exp(X, r):
    """Terminating deformed exponential of a nilpotent matrix:
    ``sum_n X^n / {n}_r!``."""
    term = np.eye(X.shape[0])
    acc = term.copy()
    n = 0
    while True:
        n += 1
        term = term @ X / qcalc.curly_q_number(n, r)
        if not term.any():
            return acc
        acc += term
        if n > 10_000:
            raise ArithmeticError("matrix exponential series did not terminate")


def splus_from_qexp(L, k, q, n_max):
    """Exponential symmetry as the deformed exponential of the global
    raising operator; the series terminates on the truncated basis."""
    ops = site_operators(k, q, n_max)
    E_L = _coproduct_sum(L, ops["K"], ops["E"], ops["identity"])
    return matrix_q_exp(E_L, q ** 2)


def _splus_block(k, q, occ, n_max):
    """The closed-form elements ``<eta|S+|xi>`` (see ``splus_closed_form``)
    for eta and xi running over the rows of the occupation array ``occ``.

    The block is built site by site, each site multiplying in its root
    factor and then its power factor, the products of the per-entry
    formula in its order.  The root factor depends on (eta_i, xi_i) only
    and is gathered from one (n_max+1)^2 table shared by all sites.  The
    power factor of site i depends on eta_i - xi_i and on the column's
    running sum over its earlier sites, so its powers come from one
    (n_max+1, columns) table, indexed by (eta_i - xi_i, column); below the
    diagonal, where the root factor is 0, it reads the power 1.
    """
    d = n_max + 1
    root = np.zeros((d, d))
    for e in range(d):
        for x in range(e + 1):
            l = e - x
            root[e, x] = math.sqrt(q_binomial(e, l, q)
                                   * q_binomial(e + 2 * k - 1, l, q))
    m = len(occ)
    columns = np.arange(m)
    out = np.ones((m, m))
    acc = np.zeros(m)  # per column: sum of (xi_j + k) over earlier j
    for x in occ.T:
        out *= root[x][:, x]
        power = qcalc.q_power(
            q, np.arange(d)[:, None] * (1 + k + x + 2 * acc))
        out *= power[np.maximum(x[:, None] - x, 0), columns]
        acc = acc + (x + k)
    return out


def splus_closed_form(L, k, q, n_max):
    """Closed-form matrix elements of the exponential symmetry:

    ``<eta|S+|xi> = prod_i sqrt(binom(eta_i, eta_i - xi_i)_q
    binom(eta_i + 2k - 1, eta_i - xi_i)_q)
    q^((eta_i - xi_i)(1 + k + xi_i + 2 sum_(m<i) (xi_m + k)))``
    supported on eta >= xi sitewise.  Both binomials are written with the
    integer lower index eta_i - xi_i so that non-integer 2k is allowed.
    Each element is the product of two factors per site, taken in site
    order, as in the per-entry formula.
    """
    return _splus_block(k, q, basis_occupations(L, n_max), n_max)


def ground_state_vector(L, k, q, n_max):
    """Strictly positive ground state: the exponential symmetry applied to
    the all-empty state, ``g(eta) = prod_i sqrt(binom(eta_i + 2k - 1,
    eta_i)_q) q^(eta_i (1 - k + 2 k i))``; each site multiplies in one
    entry of its (n_max+1)-table."""
    d = n_max + 1
    g = np.ones(d ** L)
    for i in range(1, L + 1):
        factor = np.array([math.sqrt(q_binomial(e + 2 * k - 1, e, q))
                           * q ** (e * (1.0 - k + 2.0 * k * i))
                           for e in range(d)])
        sites = g.reshape(d ** (i - 1), d, d ** (L - i))
        sites *= factor[:, None]
    return g


def _fitting_states(L, n_max):
    """Tensor-basis indices and occupation rows of the fitting states, the
    configurations with at most n_max particles in all."""
    occ = basis_occupations(L, n_max)
    idx = np.flatnonzero(occ.sum(axis=1) <= n_max)
    return idx, occ[idx]


def _embed(block, idx, dim):
    """The (dim, dim) matrix that is ``block`` on idx x idx and 0 else."""
    out = np.zeros((dim, dim))
    out[np.ix_(idx, idx)] = block
    return out


def derive_generator(L, k, q, n_max):
    """Ground-state conjugation of the Hamiltonian,
    ``G^-1 H G`` with G = diag(ground state); entry (x, y) is the jump
    rate x -> y and rows sum to zero on particle-number sectors that fit
    in the truncation.

    Formed only between the fitting states, those with at most n_max
    particles in all: every entry outside that block is exactly 0, and
    each entry inside it is that of the conjugated dense
    ``build_hamiltonian``, bit for bit.  Each edge adds the pair matrix
    wherever the sites off the edge agree and then the constant on the
    diagonal, the dense sum's addends in its order.
    """
    idx, occ = _fitting_states(L, n_max)
    d = n_max + 1
    place = d ** np.arange(L - 1, -1, -1)
    pair = delta_casimir_pair(k, q, n_max)
    c = hamiltonian_constant(k, q)
    m = len(idx)
    H = np.zeros((m, m))
    for i0 in range(L - 1):
        edge = occ[:, i0] * d + occ[:, i0 + 1]
        rest = idx - occ[:, i0:i0 + 2] @ place[i0:i0 + 2]
        np.add(H, pair[edge[:, None], edge[None, :]], out=H,
               where=rest[:, None] == rest[None, :])
        H.reshape(-1)[::m + 1] += c
    g = ground_state_vector(L, k, q, n_max)[idx]
    H *= g[None, :]
    H /= g[:, None]
    return _embed(H, idx, d ** L)


def derive_duality(L, k, q, n_max):
    """Ground-state two-sided conjugation of the exponential symmetry,
    ``G^-1 S+ G^-1``, which equals ``q^(2 (k - 1) |xi|)`` times the
    self-duality kernel (the conversion constant depends only on the dual
    particle number, so the conjugation is itself a duality function on
    every sector pair); returns the normalized matrix
    ``D(eta, xi) = <eta|G^-1 S+ G^-1|xi> q^(-2 (k - 1) |xi|)``.

    Formed only between the fitting states, those with at most n_max
    particles in all: every entry outside that block is exactly 0, and
    each entry inside it is that of the dense formula, bit for bit.  Both
    conjugations and the constant, one power of q per dual particle
    number, act in place on the S+ block as row and column factors.
    """
    idx, occ = _fitting_states(L, n_max)
    D = _splus_block(k, q, occ, n_max)
    g = ground_state_vector(L, k, q, n_max)[idx]
    D /= g[:, None]
    D /= g[None, :]
    constant = np.array([q ** (-2.0 * (k - 1.0) * n)
                         for n in range(n_max + 1)])
    D *= constant[occ.sum(axis=1)][None, :]
    return _embed(D, idx, (n_max + 1) ** L)


def sector_symmetry_residual(H, S, L, n_max, n_total_max):
    """Commutation residual restricted to matrix entries whose row and
    column configurations both have at most ``n_total_max`` particles;
    this excludes the rows truncated by the finite basis (a raising
    operator maps total n to n + 1, so use n_total_max <= n_max - 1)."""
    HS = H @ S
    comm = HS - S @ H
    scale = max(1.0, float(np.abs(HS).max()))
    keep = basis_occupations(L, n_max).sum(axis=1) <= n_total_max
    return float(np.abs(comm[np.ix_(keep, keep)]).max()) / scale
