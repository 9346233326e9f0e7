"""Transition rates, generator matrices and diffusion generators of the
discrete and continuous transport models, and the stationary measures of
the discrete ones.

Discrete models on a chain of L sites:

* ``asip``   -- q-deformed inclusion process with drift to the left;
* ``sip``    -- its symmetric limit, the same rates at q = 1;
* ``qtazrp`` -- totally asymmetric zero-range process reached from the
  inclusion process under the time rescaling ``(1-q^2) q^(4k-1)`` as
  k grows;
* ``th_asip`` -- the instantaneous-thermalization version, whose edge
  updates jump straight to the edge-conditioned stationary split (its
  symmetric limit is the same generator at q = 1).

Continuous models (diffusion generators, applied by finite differences):
the asymmetric energy diffusion, whose symmetric limit is sigma = 0.
"""

import math

import numpy as np
from scipy import sparse

from . import configspace, qcalc
from .configspace import ModelParams
from .qcalc import q_number, q_pochhammer

__all__ = [
    "SparseRateMatrix", "asip_edge_rates", "sip_edge_rates", "qtazrp_rate",
    "build_generator", "edge_rate_table", "edge_move_generator",
    "abep_generator_apply",
    "adep_velocity", "adep_relax_pair",
    "asip_marginal_weights", "asip_product_measure",
    "asip_marginal_Z_closed", "asip_marginal_mean_closed",
    "detailed_balance_residual", "alpha_max",
    "ring_product_measure_gap", "qtazrp_limit_gap",
]


class SparseRateMatrix:
    """CTMC generator on an enumerated sector: rows sum to zero, off-diagonal
    entries are the nonnegative transition rates.

    ``matrix`` is a canonical CSR matrix: columns sorted within each row,
    duplicate (row, col) moves summed, no stored zeros (so a row with no
    moves, such as the single state of N = 0, stores nothing).  It is
    assembled directly from the sorted triples, bit for bit the matrix
    that ``csr_matrix`` with ``sum_duplicates``, ``sum(axis=1)`` and ``+
    diags`` builds: a row's diagonal is minus the ``np.add.reduceat`` of
    its column-sorted entries that scipy's row sum calls, and the
    duplicates of a pair (two moves, on L = 2 rings) are summed in the
    order given.
    """

    def __init__(self, dimension, rows, cols, rates):
        rates = np.asarray(rates, dtype=float)
        if (rates < 0).any():
            raise ValueError("negative off-diagonal rate")
        # entry (row, col) as the key row * dimension + col; the stable
        # sort keeps the two moves of a duplicate pair in the order given
        key = np.asarray(rows, dtype=np.intp) * dimension \
            + np.asarray(cols, dtype=np.intp)
        order = np.argsort(key, kind="stable")
        key, rates = key[order], rates[order]
        if (key[1:] == key[:-1]).any():  # duplicate moves, on L = 2 rings
            first = np.flatnonzero(np.diff(key, prepend=-1))
            key, rates = key[first], np.add.reduceat(rates, first)
        counts = np.bincount(key // dimension, minlength=dimension)
        busy = np.flatnonzero(counts)
        diag = -np.add.reduceat(rates, (np.cumsum(counts) - counts)[busy])
        # the diagonal joins its row in column order (a stable sort of
        # two sorted runs is one merge); scipy's + dropped every zero sum,
        # explicit zero rates included
        key = np.concatenate([key, busy * (dimension + 1)])
        data = np.concatenate([rates, diag])
        order = np.argsort(key, kind="stable")
        key, data = key[order], data[order]
        if not data.all():
            key, data = key[data != 0], data[data != 0]
        index = np.int32 if max(dimension, len(key)) < 2 ** 31 else np.int64
        self.matrix = sparse.csr_matrix(
            (data, (key % dimension).astype(index),
             np.searchsorted(key, np.arange(dimension + 1) * dimension)
             .astype(index)),
            shape=(dimension, dimension))
        self.dimension = dimension

    def toarray(self):
        return self.matrix.toarray()


def asip_edge_rates(eta, i, params):
    """Jump rates across edge i for the asymmetric inclusion process.

    Returns
    -------
    (rate_right, rate_left) : tuple of float
        ``rate_right = q^(eta_i - eta_j + 2k - 1) [eta_i] [2k + eta_j]`` and
        ``rate_left  = q^(eta_i - eta_j - 2k + 1) [2k + eta_i] [eta_j]``
        where j is the right site of the edge and [.] is the symmetric
        q-number.  At q = 1 these reduce to the symmetric inclusion rates.
    """
    q, k = params.q, params.k
    a, b = params.edge_sites(i)
    na, nb = int(eta[a - 1]), int(eta[b - 1])
    right = q ** (na - nb + (2 * k - 1)) * q_number(na, q) * q_number(2 * k + nb, q)
    left = q ** (na - nb - (2 * k - 1)) * q_number(2 * k + na, q) * q_number(nb, q)
    return right, left


def sip_edge_rates(eta, i, k):
    """Symmetric inclusion rates across edge i of the closed chain of
    ``len(eta)`` sites: right = eta_i (2k + eta_j), left mirrored."""
    a, b = ModelParams(q=1.0, k=k, L=len(eta)).edge_sites(i)
    na, nb = int(eta[a - 1]), int(eta[b - 1])
    return float(na * (2 * k + nb)), float((2 * k + na) * nb)


def qtazrp_rate(y, i, q):
    """Left-jump rate of the totally asymmetric zero-range process.

    A particle at the right site of edge i jumps left at rate
    ``(q^(-2 y_j) - 1)/(q^(-2) - 1)`` with y_j its departure-site occupancy;
    monotone increasing and unbounded in y_j.
    """
    qcalc.check_q(q)
    nb = int(y[i])  # y[i] is the right site of edge i under 1-based labels
    if q == 1.0:
        return float(nb)
    return (q ** (-2 * nb) - 1.0) / (q ** (-2) - 1.0)


def _asip_rate_tables(q, k, n):
    # q^(na - nb +- (2k - 1)) [na] [2k + nb] and its mirror, from per-site
    # scalar factors and one power per difference, multiplied in the order
    # asip_edge_rates uses
    s = 2 * k - 1
    qn = np.array([q_number(m, q) for m in n])
    qn2k = np.array([q_number(2 * k + m, q) for m in n])
    diffs = range(-n[-1], n[-1] + 1)
    d = np.subtract.outer(n, n) + n[-1]
    right = np.array([q ** (e + s) for e in diffs])[d] * qn[:, None] * qn2k
    left = np.array([q ** (e - s) for e in diffs])[d] * qn2k[:, None] * qn
    return right, left


def _qtazrp_rate_tables(q, k, n):
    # a particle leaves the right site of the edge at a rate set by its
    # occupancy nb alone
    rate = np.array([qtazrp_rate((m,), 0, q) for m in n])
    return np.zeros((len(n), len(n))), np.tile(rate, (len(n), 1))


_RATE_TABLE_FNS = {
    "asip": _asip_rate_tables,
    "sip": lambda q, k, n: _asip_rate_tables(1.0, k, n),
    "qtazrp": _qtazrp_rate_tables,
}


def edge_rate_table(model, params, n_max):
    """Occupancy-pair lookup tables (right[na, nb], left[na, nb]) for the
    single-particle-move models, for occupancies 0..n_max; each entry
    equals the rate function's value at (na, nb) bit for bit.  They are
    built from per-site scalar factors by broadcasting.

    ``engine.simulate_batch`` refreshes the edge rates of a block of
    replicas with one gather per step instead of re-evaluating q-deformed
    rates, and :func:`build_generator` gathers every state's edge rates
    from them at once."""
    return _RATE_TABLE_FNS[model](params.q, params.k, list(range(n_max + 1)))


def edge_move_generator(sector, rates, new_left):
    """Generator matrix of the moves (state, edge, choice) with positive
    ``rates[s, e, c]``.  Edge e joins 0-based site e to site e + 1
    (wrapping on a ring); a move leaves ``new_left[s, e, c]`` (broadcast to
    the shape of ``rates``) on its left site and the rest of the edge
    total on its right site.  Targets are ranked by ``Sector.rank``."""
    a = np.arange(rates.shape[1])
    b = (a + 1) % sector.L
    # nonzero walks (state, edge, choice) in C order; SparseRateMatrix
    # sums duplicate moves (L = 2 rings) in the order it receives them
    rows, edge, choice = np.nonzero(rates > 0)
    left = np.broadcast_to(new_left, rates.shape)[rows, edge, choice]
    targets = sector.configs[rows]
    move = np.arange(len(rows))
    total = targets[move, a[edge]] + targets[move, b[edge]]
    targets[move, a[edge]] = left
    targets[move, b[edge]] = total - left
    return SparseRateMatrix(len(sector), rows, sector.rank(targets),
                            rates[rows, edge, choice])


def build_generator(sector, model, params):
    """Generator matrix of the named model restricted to a sector.

    ``model`` is one of asip, sip, qtazrp (single-particle moves) or
    th_asip (rate-1 edge redistribution rows built from the exact
    conditional split law).

    The single-particle-move rates come from :func:`edge_rate_table`,
    looked up at every state's edge occupancies at once; a jump to the
    right leaves na - 1 particles on the left site, a jump to the left
    na + 1 (:func:`edge_move_generator`).
    """
    if model == "th_asip":
        from . import thermal
        return thermal.th_asip_generator(sector, params)
    if model not in _RATE_TABLE_FNS:
        raise ValueError("unknown model %r" % (model,))
    if sector.L != params.L:
        raise ValueError("sector length does not match params.L")
    right, left = edge_rate_table(model, params, sector.N)
    a = np.arange(params.n_edges)
    na, nb = sector.configs[:, a], sector.configs[:, (a + 1) % sector.L]
    return edge_move_generator(
        sector, np.stack([right[na, nb], left[na, nb]], axis=2),
        np.stack([na - 1, na + 1], axis=2))


def _abep_edge_coeffs(x, i, k, sigma):
    """Second- and first-order coefficients of the edge diffusion generator
    along the direction e_i - e_{i+1} (1-based edge index i)."""
    u, v = float(x[i - 1]), float(x[i])
    if sigma == 0.0:
        return u * v, -2.0 * k * (u - v)
    eu = -math.expm1(-2.0 * sigma * u)          # 1 - e^{-2 sigma u}
    ev = math.expm1(2.0 * sigma * v)            # e^{2 sigma v} - 1
    a2 = eu * ev / (4.0 * sigma ** 2)
    a1 = -(eu * ev + 2.0 * k * (eu - ev)) / (2.0 * sigma)
    return a2, a1


def _directional_derivs(f, x, i, h):
    v = np.zeros(len(x))
    v[i - 1], v[i] = 1.0, -1.0
    fp, f0, fm = f(x + h * v), f(x), f(x - h * v)
    d1 = (fp - fm) / (2.0 * h)
    d2 = (fp - 2.0 * f0 + fm) / h ** 2
    return d1, d2


def abep_generator_apply(f, x, i, params):
    """Apply the edge diffusion generator to f at x by central differences.

    The stencils of steps h = 1e-4 and h/2 are combined (Richardson) for
    O(h^4) accuracy.  Points within 2h of the energy boundary are rejected
    (degenerate stencil).
    """
    x = np.asarray(x, dtype=float)
    h = 1e-4
    if min(x[i - 1], x[i]) < 2.0 * h:
        raise ValueError("stencil reaches the boundary; move x")
    a2, a1 = _abep_edge_coeffs(x, i, params.k, params.sigma)

    def value(step):
        d1, d2 = _directional_derivs(f, x, i, step)
        return a2 * d2 + a1 * d1

    return (4.0 * value(h / 2.0) - value(h)) / 3.0


def adep_velocity(u, v, sigma, kind="adep"):
    """du/dt of the two-site deterministic energy flow (dv/dt = -du/dt):
    "adep" (asymmetric; its symmetric limit is sigma = 0) or "tadep"
    (totally asymmetric, all energy drains to the left site)."""
    if kind == "tadep":
        return -(1.0 - np.exp(2.0 * sigma * v)) / (2.0 * sigma)
    if kind != "adep":
        raise ValueError("unknown kind %r" % (kind,))
    if sigma == 0.0:
        return -(u - v)
    return -(2.0 - np.exp(-2.0 * sigma * u)
             - np.exp(2.0 * sigma * v)) / (2.0 * sigma)


def adep_relax_pair(a, b, sigma, t=math.inf, kind="adep"):
    """Energies (u, v) at time t (scalar or array; inf gives the fixed
    point) of the flow :func:`adep_velocity` started from (a, b).

    With S = a + b each flow is linear in one variable, so it has a closed
    form: y = e^(2 sigma u) solves ``y' = (1 + e^(2 sigma S)) - 2y``
    (adep), z = e^(-2 sigma v) solves ``z' = 1 - z`` (tadep), and u solves
    ``u' = S - 2u`` (adep at sigma = 0).
    """
    if a < 0 or b < 0:
        raise ValueError("energies must be >= 0")
    if not sigma >= 0.0 or (kind == "tadep" and sigma == 0.0):
        raise ValueError("need sigma > 0 (sigma >= 0 for adep)")
    t = np.asarray(t, dtype=float)
    if kind == "tadep":
        v = -np.log1p(np.expm1(-2.0 * sigma * b) * np.exp(-t)) / (2.0 * sigma)
        return a + b - v, v
    if kind != "adep":
        raise ValueError("unknown kind %r" % (kind,))
    decay = -np.expm1(-2.0 * t)                     # 1 - e^(-2t)
    if sigma == 0.0:
        u = a + 0.5 * (b - a) * decay
    else:
        # y(t)/y(0) - 1 = (y(inf)/y(0) - 1)(1 - e^(-2t))
        gain = 0.5 * (np.expm1(-2.0 * sigma * a) + np.expm1(2.0 * sigma * b))
        u = a + np.log1p(gain * decay) / (2.0 * sigma)
    return u, a + b - u


def alpha_max(params):
    """Upper end of the admissible alpha interval for the discrete product
    measures: alpha < q^-(2k+1) globally."""
    return params.q ** (-(2.0 * params.k + 1.0))


def _check_site(i):
    if i < 1:
        raise ValueError("sites are numbered from 1, got %r" % (i,))


def asip_marginal_weights(i, params, alpha, n_max):
    """Unnormalized weights ``alpha^n binom_q(n + 2k - 1, n) q^(4kin)``,
    n = 0, 1, ..., of the site-i marginal of the reversible product
    measure labeled alpha, as the running product ``w(0) = 1``,
    ``w(n + 1) = w(n) alpha q^(4ki) [n + 2k] / [n + 1]``.

    The array covers 0..n_max and goes on until geometric tail bounds put
    the rest of the mass below 1e-14 of the sum and the rest of the first
    moment below 1e-13 of it: the normalization is ``w.sum()`` and the
    mean ``arange(len(w)) @ w / w.sum()``.  Raises ValueError when the
    series diverges or needs more terms than ``q_number`` can take in
    float64 (alpha very near ``alpha_max``), and RuntimeError past 100000
    terms.
    """
    _check_site(i)
    q, k = params.q, params.k
    # limiting ratio w(n+1)/w(n) as n grows; the series converges iff < 1
    rho_inf = alpha if q == 1.0 else alpha * q ** (4 * k * i - (2 * k - 1))
    if rho_inf >= 1.0:
        raise ValueError("series diverges: alpha out of the admissible range")
    scale = alpha * q ** (4 * k * i)
    w = [1.0]
    mass = moment = 0.0
    for n in range(100_000):
        mass += w[n]
        moment += n * w[n]
        try:
            ratio = scale * q_number(n + 2 * k, q) / q_number(n + 1, q)
        except OverflowError:
            raise ValueError(
                "alpha too close to alpha_max: the series needs more than "
                "%d terms, and q^-n overflows a float beyond that" % n
            ) from None
        w.append(w[n] * ratio)
        # the ratios move monotonically to rho_inf, so no later one
        # exceeds rho and both tails from w[n + 1] on are geometric
        rho = max(ratio, rho_inf)
        tail = w[n + 1] / (1.0 - rho) if rho < 1.0 else math.inf
        if n >= n_max and tail < 1e-14 * mass \
                and (n + 2.0) * tail / (1.0 - rho) < 1e-13 * max(moment, mass):
            return np.array(w[:n + 1])
    raise RuntimeError("marginal weight series did not converge")


def asip_product_measure(configs, params, alpha):
    """Probability of each row of ``configs`` (site 1 first) under the
    reversible product measure labeled alpha."""
    configs = np.asarray(configs)
    mu = np.ones(len(configs))
    for i, col in enumerate(configs.T, start=1):
        w = asip_marginal_weights(i, params, alpha, int(col.max(initial=0)))
        mu *= (w / w.sum())[col]
    return mu


def _closed_form_args(i, params, alpha):
    # q, 2k and the base alpha q^(4ki - 2k + 1) of the integer-2k forms
    _check_site(i)
    if not params.two_k_integer:
        raise ValueError("closed form needs 2k integer")
    q, k = params.q, params.k
    return q, int(round(2 * k)), alpha * q ** (4 * k * i - (2 * k - 1))


def asip_marginal_Z_closed(i, params, alpha):
    """Integer-2k closed form ``1 / (alpha q^(4ki - 2k + 1); q^2)_{2k}`` of
    the normalization of site i."""
    q, m, base = _closed_form_args(i, params, alpha)
    return 1.0 / q_pochhammer(base, q ** 2, m)


def asip_marginal_mean_closed(i, params, alpha):
    """Integer-2k closed form ``sum_l 1 / (q^(-2l) / base - 1)`` of the
    mean occupancy of site i, base = alpha q^(4ki - 2k + 1)."""
    q, m, base = _closed_form_args(i, params, alpha)
    return sum(1.0 / (q ** (-2 * l) / base - 1.0) for l in range(m))


def detailed_balance_residual(sector, model, params, weights):
    """Largest relative detailed-balance violation of ``weights`` (an
    unnormalized stationary candidate, one entry per sector state) over
    all transition pairs of the model's generator on the sector."""
    gen = build_generator(sector, model, params)
    coo = gen.matrix.tocoo()
    mu = np.asarray(weights, dtype=float)
    move = (coo.row != coo.col) & (coo.data > 0)
    r, c = coo.row[move], coo.col[move]
    flow = mu[r] * coo.data[move]
    back = mu[c] * np.asarray(gen.matrix[c, r]).ravel()
    return float(np.max(np.abs(flow - back)
                        / np.maximum(1e-300, np.abs(flow)), initial=0.0))


def ring_product_measure_gap(L, N, params):
    """Distance of the periodic chain's stationary law from homogeneous
    product form, on the (L, N) sector.

    The sector is irreducible, so its stationary law pi (the null vector
    of Q^T) is unique; a homogeneous product measure is stationary only if
    log pi is a constant plus log-weights summed over the counts
    #{i : eta_i = n}, n = 1..N.  Returns the max-abs residual of the
    least-squares fit of log pi on those counts: round-off (about 1e-15)
    at q = 1, scaling like (1 - q)^3 as q -> 1 (round-off above q of
    about 0.9999).
    """
    p = ModelParams(q=params.q, k=params.k, sigma=params.sigma, L=L,
                    boundary="periodic")
    sector = configspace.enumerate_sector(L, N)
    Q = build_generator(sector, "asip", p).toarray()
    null = np.linalg.svd(Q.T)[2][-1]    # singular values descend to 0
    log_pi = np.log(null / null.sum())
    occ = sector.configs
    counts = (occ[:, :, None] == np.arange(1, N + 1)).sum(axis=1)
    fit = np.column_stack([np.ones(len(occ)), counts])
    return float(np.abs(log_pi - fit @ (np.linalg.pinv(fit) @ log_pi)).max())


def qtazrp_limit_gap(params, n_max):
    """Worst absolute gap, over occupancy pairs up to n_max, between the
    rescaled left rate ``(1 - q^2) q^(4k - 1) x`` (asymmetric inclusion)
    and the zero-range left rate; vanishes as k grows."""
    q, k = params.q, params.k
    scale = (1.0 - q * q) * q ** (4.0 * k - 1.0)
    _, left = edge_rate_table("asip", params, n_max)
    _, target = edge_rate_table("qtazrp", params, n_max)
    return float(np.abs(scale * left - target).max())
