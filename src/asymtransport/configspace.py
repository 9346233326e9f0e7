"""Configuration types, tail sums, the g coordinate map, sector enumeration.

Site indices in the public API are 1-based because the site label enters the
formulas themselves (factors like ``q^{4 k i n}`` depend on i).  Edges are
labeled by their left site, so a chain of L sites has edges 1..L-1 (closed)
or 1..L with wrap-around (periodic).
"""

from dataclasses import dataclass
import math

import numpy as np

from . import qcalc

__all__ = [
    "ModelParams", "as_discrete_config", "as_continuous_config",
    "tail_count", "g_map", "Sector", "enumerate_sector", "config_from_line",
]

SECTOR_CAP = 2_000_000


@dataclass(frozen=True)
class ModelParams:
    """Parameter bundle read by every rate, measure and duality formula.

    Parameters
    ----------
    q : float
        Asymmetry parameter in (0, 1]; q = 1 is the symmetric case.
    k : float
        Attraction/shape parameter, finite and > 0.
    sigma : float, optional
        Asymmetry of the continuous (energy) models, finite and >= 0.
    L : int, optional
        Number of lattice sites, L >= 2.
    boundary : {"closed", "periodic"}, optional
    """

    q: float
    k: float
    sigma: float = 0.0
    L: int = 2
    boundary: str = "closed"

    def __post_init__(self):
        qcalc.check_q(self.q)
        if not 0 < self.k < math.inf:
            raise ValueError("k must be finite and > 0")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")
        if self.L < 2:
            raise ValueError("L must be >= 2")
        if self.boundary not in ("closed", "periodic"):
            raise ValueError("boundary must be 'closed' or 'periodic'")

    @property
    def two_k_integer(self):
        """True when 2k is a (positive) integer; some closed forms need it."""
        return abs(2.0 * self.k - round(2.0 * self.k)) < 1e-12

    @property
    def n_edges(self):
        return self.L if self.boundary == "periodic" else self.L - 1

    def edge_sites(self, i):
        """The (left, right) 1-based site pair of edge i."""
        if not 1 <= i <= self.n_edges:
            raise IndexError("edge index %d out of range" % i)
        return i, 1 if (self.boundary == "periodic" and i == self.L) else i + 1


def as_discrete_config(eta):
    eta = np.asarray(eta, dtype=int)
    if eta.ndim != 1 or (eta < 0).any():
        raise ValueError("occupation vector must be 1-d with entries >= 0")
    return eta


def as_continuous_config(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or (x < 0).any():
        raise ValueError("energy vector must be 1-d with entries >= 0")
    return x


def tail_count(eta, i):
    """N_i: number of particles at sites i..L; N_{L+1} = 0."""
    L = len(eta)
    if not 1 <= i <= L + 1:
        raise IndexError("site index %d out of 1..%d" % (i, L + 1))
    return int(np.sum(eta[i - 1:]))


def g_map(x, sigma):
    """Coordinate change conjugating the asymmetric energy diffusion to the
    symmetric one.

    ``g_i(x) = (exp(-2 sigma E_{i+1}) - exp(-2 sigma E_i)) / (2 sigma)``
    with E_i the partial energies.  sigma = 0 returns x unchanged (the map
    tends to the identity).  The entries of the image always sum to less
    than ``1/(2 sigma)``.
    """
    x = as_continuous_config(x)
    if sigma == 0.0:
        return x.copy()
    suffix = np.concatenate([np.cumsum(x[::-1])[::-1], [0.0]])
    return (np.exp(-2.0 * sigma * suffix[1:]) - np.exp(-2.0 * sigma * suffix[:-1])) \
        / (2.0 * sigma)


@dataclass(frozen=True, eq=False)
class Sector:
    """All occupation vectors with given length L and total N.

    ``configs`` is a read-only (size, L) integer array, one configuration
    per row.  The ordering is lexicographic descending in the first
    coordinate, so the first row is (N, 0, ..., 0); matrix layouts are
    reproducible, and :meth:`rank` inverts the row order in closed form.
    """

    L: int
    N: int
    configs: np.ndarray

    def __len__(self):
        return len(self.configs)

    def rank(self, configs):
        """Positions in this sector of the configurations given as the
        rows of an integer array, in closed form.

        A configuration is preceded, for each site j < L, by the
        configurations that agree with it before j and hold more
        particles at j: ``comb(T_j + L - j - 2, L - j - 1)`` of them, with
        T_j its particle count right of j (sites 0-based).  The sum is a
        position, below the sector size, so int64 cannot overflow.
        """
        L, N = self.L, self.N
        tail = N - np.cumsum(configs, axis=1)[:, :-1]
        before = np.array([[math.comb(t + L - j - 2, L - j - 1)
                            for j in range(L - 1)] for t in range(N + 1)],
                          dtype=np.int64).reshape(N + 1, L - 1)
        return before[tail, np.arange(L - 1)].sum(axis=1)


def _compositions(L, N):
    if L == 1:
        yield (N,)
        return
    for first in range(N, -1, -1):
        for rest in _compositions(L - 1, N - first):
            yield (first,) + rest


def enumerate_sector(L, N):
    """Enumerate the (L, N) sector; raises above ``SECTOR_CAP`` states."""
    if L < 1 or N < 0:
        raise ValueError("need L >= 1 and N >= 0")
    size = math.comb(N + L - 1, N)
    if size > SECTOR_CAP:
        raise ValueError("sector size %d exceeds cap %d" % (size, SECTOR_CAP))
    configs = np.array(list(_compositions(L, N)), dtype=int)
    configs.flags.writeable = False
    return Sector(L=L, N=N, configs=configs)


def config_from_line(line):
    """Occupation vector from its comma-separated text form."""
    parts = [p for p in line.strip().split(",") if p != ""]
    return as_discrete_config([int(p) for p in parts])
