"""Construction of many-spin operators and states.

Conventions used across the package:

* The local basis is ordered ``(|down>, |up>)`` with ``|down> = (1, 0)^T``,
  so ``sigma_z |down> = -|down>``.
* Site 1 is the leftmost (slowest-varying) tensor factor: the basis index
  of a product state ``|s_1 ... s_n>`` is ``sum_i 2**(n-i) * b_i`` with
  ``b(down) = 0`` and ``b(up) = 1``.
* Everything is stored as dense complex matrices; the largest Hilbert
  space in the package is 2**7 = 128.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "IDENTITY_2",
    "Operator",
    "StateVector",
    "site_operator",
    "exchange_xx",
    "coupling_zz",
    "partial_trace",
    "fidelity_mixed",
    "total_sz",
    "swap_operator",
    "product_state",
    "bell_state",
    "kron_states",
    "standard_initial_states",
]

# Pauli matrices in the (|down>, |up>) ordering.  sigma_plus raises
# (|down> -> |up>), sigma_minus lowers, and sigma_x sigma_y = i sigma_z
# holds as it must.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

_LOCAL_KETS = {
    "d": np.array([1.0, 0.0], dtype=complex),
    "u": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, Operator):
        return op.matrix
    return np.asarray(op, dtype=complex)


def _finite_hermitian(op, name: str) -> np.ndarray:
    """The matrix of ``op``; ValueError unless it is finite and Hermitian to 1e-10."""
    m = _as_matrix(op)
    if not (np.isfinite(m).all() and np.max(np.abs(m - m.conj().T)) <= 1e-10):
        raise ValueError(f"{name} must be finite and Hermitian")
    return m


class Operator:
    """A dense operator on an n-spin Hilbert space.

    The dimension must be a power of two.  The wrapped array is made
    read-only so operators can be shared freely once built.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
        d = m.shape[0]
        if d < 2 or d & (d - 1):
            raise ValueError(f"operator dimension must be a power of two >= 2, got {d}")
        if not m.flags.owndata or m.flags.writeable:
            m = m.copy()
        m.setflags(write=False)
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_sites(self) -> int:
        return self.dim.bit_length() - 1

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) < tol)

    def dag(self) -> "Operator":
        return Operator(self.matrix.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def expect(self, rho) -> complex:
        """Expectation value tr(M rho)."""
        return complex(np.trace(self.matrix @ _as_matrix(rho)))

    def __add__(self, other):
        return Operator(self.matrix + _as_matrix(other))

    def __radd__(self, other):
        if other == 0:  # makes sum() work
            return self
        return Operator(_as_matrix(other) + self.matrix)

    def __sub__(self, other):
        return Operator(self.matrix - _as_matrix(other))

    def __neg__(self):
        return Operator(-self.matrix)

    def __mul__(self, scalar):
        return Operator(self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, StateVector):
            return self.matrix @ other.amplitudes
        return Operator(self.matrix @ _as_matrix(other))

    def __repr__(self):
        return f"Operator(dim={self.dim})"


class StateVector:
    """A normalized pure state on an n-spin Hilbert space."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes, normalize: bool = False):
        v = np.asarray(amplitudes, dtype=complex).ravel()
        d = v.shape[0]
        if d < 2 or d & (d - 1):
            raise ValueError(f"state dimension must be a power of two >= 2, got {d}")
        norm = np.linalg.norm(v)
        if normalize:
            if norm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            v = v / norm
        elif abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state vector not normalized: ||v|| = {norm!r}")
        v = v.copy()
        v.setflags(write=False)
        self.amplitudes = v

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_sites(self) -> int:
        return self.dim.bit_length() - 1

    def density(self) -> Operator:
        """The projector |psi><psi| as an Operator."""
        v = self.amplitudes
        return Operator(np.outer(v, v.conj()))

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


def site_operator(n_sites: int, site: int, local) -> Operator:
    """Embed a 2x2 operator at a given site of an n-spin register.

    Returns I (x) ... (x) local (x) ... (x) I with ``local`` at 1-based
    position ``site``; site 1 is the leftmost tensor factor.
    """
    loc = _as_matrix(local)
    if loc.shape != (2, 2):
        raise ValueError(f"local operator must be 2x2, got {loc.shape}")
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    # entry (k, k') is loc[b, b'] when k and k' agree except at the site, where they hold bits b and b'
    k, shift = np.arange(2**n_sites)[:, None], n_sites - site
    bit, out = (k >> shift) & 1, np.zeros((k.size, k.size), dtype=complex)
    out[k, k ^ ((bit ^ [0, 1]) << shift)] = loc[bit[:, 0]]
    return Operator(out)


def _jw_annihilator(n_sites: int, site: int) -> np.ndarray:
    """Jordan-Wigner a_site = diag((-1)^(up spins on sites < site)) sigma_-^(site), dense."""
    signs = np.where(np.bitwise_count(np.arange(2**n_sites) >> (n_sites - site + 1)) & 1, -1.0, 1.0)
    return signs[:, None] * site_operator(n_sites, site, SIGMA_MINUS).matrix


def exchange_xx(n_sites: int, i: int, j: int) -> Operator:
    """XX exchange between sites i and j.

    X_ij = sigma_x^(i) sigma_x^(j) + sigma_y^(i) sigma_y^(j), which equals
    2(sigma_+^(i) sigma_-^(j) + sigma_-^(i) sigma_+^(j)).
    """
    if i == j:
        raise ValueError("exchange requires two distinct sites")
    xx = site_operator(n_sites, i, SIGMA_X).matrix @ site_operator(n_sites, j, SIGMA_X).matrix
    yy = site_operator(n_sites, i, SIGMA_Y).matrix @ site_operator(n_sites, j, SIGMA_Y).matrix
    return Operator(xx + yy)


def coupling_zz(n_sites: int, i: int, j: int) -> Operator:
    """Z coupling sigma_z^(i) sigma_z^(j) between two distinct sites."""
    if i == j:
        raise ValueError("coupling requires two distinct sites")
    return Operator(
        site_operator(n_sites, i, SIGMA_Z).matrix @ site_operator(n_sites, j, SIGMA_Z).matrix
    )


def total_sz(n_sites: int) -> Operator:
    """Total magnetization operator sum_i sigma_z^(i)."""
    acc = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for i in range(1, n_sites + 1):
        acc += site_operator(n_sites, i, SIGMA_Z).matrix
    return Operator(acc)


def swap_operator(n_sites: int, i: int, j: int) -> Operator:
    """Permutation operator exchanging the Hilbert spaces of sites i and j.

    P is Hermitian, unitary and squares to the identity.  It is built by
    swapping the i-th and j-th bits of every basis index.
    """
    if i == j:
        raise ValueError("swap requires two distinct sites")
    dim = 2**n_sites
    bi, bj = n_sites - i, n_sites - j  # bit positions (site 1 = highest bit)
    perm = np.arange(dim)
    vi = (perm >> bi) & 1
    vj = (perm >> bj) & 1
    swapped = perm & ~(1 << bi) & ~(1 << bj) | (vj << bi) | (vi << bj)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[swapped, perm] = 1.0
    return Operator(mat)


def partial_trace(rho, keep: Sequence[int]) -> Operator:
    """Reduced density matrix over the listed (1-based, increasing) sites.

    The input must be a unit-trace density matrix on an n-spin register;
    all sites not in ``keep`` are traced out.
    """
    m = _as_matrix(rho)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("partial_trace expects a square matrix")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    keep = list(keep)
    if not keep or any(keep[k] >= keep[k + 1] for k in range(len(keep) - 1)):
        raise ValueError("keep must be a nonempty strictly increasing site list")
    if keep[0] < 1 or keep[-1] > n:
        raise ValueError(f"keep sites must lie in [1, {n}]")
    if abs(np.trace(m) - 1.0) > 1e-10:
        raise ValueError("partial_trace expects a unit-trace density matrix")

    tensor = m.reshape([2] * (2 * n))
    # contract bra/ket axis pairs of every traced-out site, highest first
    # so remaining axis numbers stay valid
    traced = [s for s in range(1, n + 1) if s not in keep]
    nn = n
    for s in sorted(traced, reverse=True):
        ax = s - 1
        tensor = np.trace(tensor, axis1=ax, axis2=ax + nn)
        nn -= 1
    d = 2 ** len(keep)
    return Operator(tensor.reshape(d, d))


def _psd_sqrt(m: np.ndarray, what: str) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    if w.min() < -1e-8:
        raise ValueError(f"{what} is not positive semidefinite (eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity_mixed(rho, sigma) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(s) r sqrt(s)))^2, symmetric in r, s."""
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    rs = _psd_sqrt(s, "sigma")
    inner = rs @ r @ rs
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    if w.min() < -1e-8:
        raise ValueError(f"rho is not positive semidefinite (eigenvalue {w.min():.3e})")
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


def product_state(pattern: str) -> StateVector:
    """Product state from a token string, one character per site.

    Tokens: ``d`` (down), ``u`` (up), ``+`` and ``-`` for the sigma_x
    eigenstates (|down> +/- ... ) / sqrt2.  Example: ``product_state("dduudd")``.
    """
    if not pattern:
        raise ValueError("empty pattern")
    vec = np.array([1.0], dtype=complex)
    for ch in pattern:
        if ch not in _LOCAL_KETS:
            raise ValueError(f"unknown site token {ch!r}; expected one of d,u,+,-")
        vec = np.kron(vec, _LOCAL_KETS[ch])
    return StateVector(vec)


def bell_state(kind: str) -> StateVector:
    """Two-spin Bell state: one of ``psi+``, ``psi-``, ``phi+``, ``phi-``.

    |Psi+-> = (|ud> +- |du>)/sqrt2 and |Phi+-> = (|uu> +- |dd>)/sqrt2.
    """
    ud = np.kron(_LOCAL_KETS["u"], _LOCAL_KETS["d"])
    du = np.kron(_LOCAL_KETS["d"], _LOCAL_KETS["u"])
    uu = np.kron(_LOCAL_KETS["u"], _LOCAL_KETS["u"])
    dd = np.kron(_LOCAL_KETS["d"], _LOCAL_KETS["d"])
    table = {
        "psi+": (ud + du),
        "psi-": (ud - du),
        "phi+": (uu + dd),
        "phi-": (uu - dd),
    }
    if kind not in table:
        raise ValueError(f"unknown Bell state {kind!r}")
    return StateVector(table[kind] / np.sqrt(2.0))


def kron_states(*states: StateVector) -> StateVector:
    """Tensor product of state vectors, leftmost first."""
    if not states:
        raise ValueError("need at least one state")
    vec = np.array([1.0], dtype=complex)
    for s in states:
        vec = np.kron(vec, s.amplitudes)
    return StateVector(vec)


def standard_initial_states(n_sites: int = 6) -> list[StateVector]:
    """The eight reference initial states used in the convergence studies.

    psi1 = all up, psi2 = all down, psi3 = their GHZ superposition,
    psi4/psi5 = uniform |+>/|-> products, psi6/psi7 = the two Neel states,
    psi8 = the Neel superposition.
    """
    up = product_state("u" * n_sites)
    down = product_state("d" * n_sites)
    ghz = StateVector((up.amplitudes + down.amplitudes) / np.sqrt(2.0))
    plus = product_state("+" * n_sites)
    minus = product_state("-" * n_sites)
    neel_a = product_state("ud" * (n_sites // 2) + "u" * (n_sites % 2))
    neel_b = product_state("du" * (n_sites // 2) + "d" * (n_sites % 2))
    neel_ghz = StateVector((neel_a.amplitudes + neel_b.amplitudes) / np.sqrt(2.0))
    return [up, down, ghz, plus, minus, neel_a, neel_b, neel_ghz]
