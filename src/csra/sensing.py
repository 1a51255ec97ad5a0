"""Measurement operator mapping the compound channel to window observations.

The operator A acts on h in C^{u_max * t_cp} (compound index u*t_cp + t) and
returns the m control-window samples of the superimposed pilot responses.
In plain mode its (f, (u,t)) entry is p_hat_u(f) * exp(-2i*pi*f*t/n), so
A h = sum_u P_u * (F @ h_u) with F the fixed m x t_cp partial-DFT block over
the window rows and the delay columns: apply and adjoint are two small
GEMMs and columns() is a gather. In randomized mode the receiver applies a
fixed pointwise time-domain multiplier xi before the FFT. The pilots live
on the window, so that operator is C @ A_plain with C the m x m window
mixer C[f, g] = fft(xi)[(f - g) mod n] / n, one more GEMM per call. A dense
materialization is kept under a column cap as an oracle.

Both operator classes also expose `gram_eigh`, the eigendecomposition
(eigenvalues ascending, eigenvectors as columns) of the m x m Gram A A^H,
computed on first use and cached; BPDN projects onto its residual ball
through it.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .config import SystemConfig, scenario_rng, MULTIPLIER_STREAM
from .model import PilotBook, build_pilot_book


def randomized_multiplier(cfg: SystemConfig) -> np.ndarray | None:
    """Unit-modulus random time-domain multipliers, fixed per scenario.
    Returns None in plain sensing mode."""
    if cfg.sensing_mode != "randomized":
        return None
    rng = scenario_rng(cfg, MULTIPLIER_STREAM)
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=cfg.n))


def _partial_dft(window: np.ndarray, t_cp: int, n: int) -> np.ndarray:
    """m x t_cp block F[f, t] = exp(-2i*pi*f*t/n) over window rows f and
    delays t < t_cp. The product f*t is reduced mod n in integers before
    scaling, so the phase argument stays below 2*pi in magnitude and keeps
    full precision at LTE size."""
    ft = np.outer(np.asarray(window, dtype=np.int64), np.arange(t_cp)) % n
    return np.exp(-2j * np.pi * ft / n)


def _window_mixer(window: np.ndarray, xi: np.ndarray, n: int) -> np.ndarray:
    """m x m block C[f, g] = fft(xi)[(f - g) mod n] / n over window rows and
    columns: P_B W M_xi W* restricted to spectra supported on the window."""
    w = np.asarray(window, dtype=np.int64)
    return np.fft.fft(xi)[(w[:, None] - w[None, :]) % n] / n


# materialize() is a toy-scale oracle; the LTE operator would take
# 839 x 30000 complex entries (about 400 MB).
MATERIALIZE_COL_CAP = 4096


class SensingOperator:
    """Matrix-free compound measurement operator with exact adjoint."""

    def __init__(self, pilots: PilotBook, t_cp: int,
                 xi: np.ndarray | None = None):
        self.pilots = pilots
        self.window = pilots.window
        self.n = pilots.n
        self.u_max = pilots.u_max
        self.t_cp = t_cp
        self.m = len(self.window)
        # a trivial multiplier collapses to the plain path (bit-identical)
        if xi is not None and np.all(xi == 1):
            xi = None
        self.xi = xi
        # the block both GEMMs and columns() share, and the randomized mixer
        self._dft = _partial_dft(self.window, t_cp, self.n)
        self._mix = None if xi is None else _window_mixer(self.window, xi, self.n)

    @property
    def shape(self):
        return (self.m, self.u_max * self.t_cp)

    def _check_h(self, h):
        h = np.asarray(h, dtype=complex)
        if h.shape != (self.u_max * self.t_cp,):
            raise ValueError(f"expected compound vector of length "
                             f"{self.u_max * self.t_cp}, got shape {h.shape}")
        return h

    def _mixed(self, v: np.ndarray) -> np.ndarray:
        return v if self._mix is None else self._mix @ v

    @cached_property
    def gram_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of A A^H. In plain mode the Gram is
        (W^T conj(W)) * (F F^H) elementwise, W the pilot window values and F
        the partial-DFT block; the randomized mode mixes it to C G C^H."""
        values = self.pilots.window_values
        gram = (values.T @ np.conj(values)) * (self._dft @ np.conj(self._dft.T))
        if self._mix is not None:
            gram = self._mix @ gram @ np.conj(self._mix.T)
        return np.linalg.eigh(gram)

    def apply(self, h: np.ndarray) -> np.ndarray:
        """A @ h: a GEMM with the partial-DFT block, then the window mixer
        (randomized)."""
        h = self._check_h(h)
        taps = h.reshape(self.u_max, self.t_cp)
        return self._mixed(np.sum(self.pilots.window_values * (taps @ self._dft.T),
                                  axis=0))

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A* @ y; exact adjoint of apply."""
        y = np.asarray(y, dtype=complex)
        if y.shape != (self.m,):
            raise ValueError(f"expected window vector of length {self.m}, "
                             f"got shape {y.shape}")
        if self._mix is not None:
            y = np.conj(np.conj(y) @ self._mix)     # C^H y
        # (conj(P) * y) @ conj(F), conjugating the small product instead
        return np.conj((self.pilots.window_values * np.conj(y))
                       @ self._dft).reshape(-1)

    def columns(self, support) -> np.ndarray:
        """Dense m x |support| submatrix for the given compound indices."""
        support = np.asarray(support, dtype=int)
        if support.size == 0:
            return np.zeros((self.m, 0), dtype=complex)
        users, delays = np.divmod(support, self.t_cp)
        # in place, pilot factor first: numpy's complex multiply is not
        # bitwise commutative, and this keeps the bits of values * dft
        block = self._dft[:, delays]
        np.multiply(self.pilots.window_values[users].T, block, out=block)
        return self._mixed(block)

    def materialize(self) -> np.ndarray:
        """Full dense matrix; toy-scale oracle only."""
        n_cols = self.u_max * self.t_cp
        if n_cols > MATERIALIZE_COL_CAP:
            raise ValueError(f"materialize refused: {n_cols} columns exceeds "
                             f"cap {MATERIALIZE_COL_CAP}")
        return self.columns(np.arange(n_cols))


class DenseOperator:
    """Same protocol as SensingOperator for an explicit matrix (tests, toys)."""

    def __init__(self, mat: np.ndarray, u_max: int = 1):
        self.mat = np.asarray(mat, dtype=complex)
        self.m, n_cols = self.mat.shape
        if n_cols % u_max:
            raise ValueError("column count must divide evenly into users")
        self.u_max = u_max
        self.t_cp = n_cols // u_max

    @property
    def shape(self):
        return self.mat.shape

    def apply(self, h):
        return self.mat @ np.asarray(h, dtype=complex)

    def adjoint(self, y):
        return self.mat.conj().T @ np.asarray(y, dtype=complex)

    def columns(self, support):
        return self.mat[:, np.asarray(support, dtype=int)]

    def materialize(self):
        return self.mat.copy()

    @cached_property
    def gram_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of A A^H."""
        return np.linalg.eigh(self.mat @ self.mat.conj().T)


def build_operator(cfg: SystemConfig,
                   pilots: PilotBook | None = None) -> SensingOperator:
    if pilots is None:
        pilots = build_pilot_book(cfg)
    return SensingOperator(pilots, cfg.t_cp, xi=randomized_multiplier(cfg))


# ---------------------------------------------------------------------------
# Restricted least squares
# ---------------------------------------------------------------------------

# Largest certified condition number of a Gram B^H B that the Cholesky
# solve accepts. The normal equations lose about cond(B^H B) * eps against
# numpy's SVD lstsq (under 1.8 * bound * eps on random near-twin gathers),
# so a certified answer agrees with lstsq to about 4e-11 relative. It also
# keeps sigma_min / sigma_max > 1/317, far above lstsq's rank cutoff
# eps * max(m, n), so lstsq would call a certified gather full rank.
# CoSaMP's merged gathers certify with wide margin (below 6e3 on the desk
# and LTE profiles).
GRAM_COND_MAX = 1e5


def gram_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solution of gram @ x = rhs through the Cholesky factor L of the
    Hermitian Gram, or None when the factor fails or does not certify
    cond(gram) < GRAM_COND_MAX. The certificate is rigorous:
    lambda_max <= ||gram||_F and 1 / lambda_min = ||L^-1||_2^2 <=
    ||L^-1||_F^2."""
    try:
        inv = np.linalg.inv(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError:
        return None
    bound = float(np.linalg.norm(gram)) * float(np.vdot(inv, inv).real)
    if not bound < GRAM_COND_MAX:      # also rejects nan
        return None
    return np.conj(inv.T) @ (inv @ rhs)


def restricted_lstsq(op, y: np.ndarray, support) -> tuple[np.ndarray, bool]:
    """Least-squares fit of y on the columns in `support`, zero elsewhere.

    Returns (full-size solution, rank_deficient). A rank-deficient submatrix
    yields the minimum-norm solution and sets the flag.
    """
    support = np.asarray(support, dtype=int)
    if support.size > op.shape[0]:
        raise ValueError("support larger than the measurement dimension")
    full = np.zeros(op.shape[1], dtype=complex)
    if support.size == 0:
        return full, False
    sub = op.columns(support)
    z, _, rank, _ = np.linalg.lstsq(sub, np.asarray(y, dtype=complex), rcond=None)
    full[support] = z
    return full, bool(rank < support.size)


# ---------------------------------------------------------------------------
# Restricted isometry evaluation (exact, combinatorial; toy scale only)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RipReport:
    k: int
    delta_k: float
    support: tuple          # argmax column set
    scale: float            # global column scaling applied before evaluation

MAX_RIP_COLUMNS = 24
MAX_RIP_ORDER = 4


def rip_constant_exact(dense: np.ndarray, k: int) -> RipReport:
    """Exact RIP constant of a dense matrix by exhausting all k-supports.

    The matrix is first rescaled by a single global factor so the average
    column norm is 1 (the RIP inequality compares ||Ax||^2 against ||x||^2);
    the factor is reported. delta_k = max over supports of
    max(lambda_max - 1, 1 - lambda_min) of the submatrix Gram spectrum.
    """
    dense = np.asarray(dense, dtype=complex)
    n_cols = dense.shape[1]
    if n_cols > MAX_RIP_COLUMNS or k > MAX_RIP_ORDER:
        raise ValueError(f"exact RIP limited to {MAX_RIP_COLUMNS} columns "
                         f"and order {MAX_RIP_ORDER}")
    if not 1 <= k <= n_cols:
        raise ValueError("need 1 <= k <= number of columns")
    col_norms = np.linalg.norm(dense, axis=0)
    mean_norm = float(np.mean(col_norms))
    if mean_norm == 0.0:
        raise ValueError("zero matrix has no RIP constant")
    scaled = dense / mean_norm
    gram = scaled.conj().T @ scaled
    best = -np.inf
    best_support = None
    for support in combinations(range(n_cols), k):
        idx = np.array(support)
        eig = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])
        dev = max(eig[-1] - 1.0, 1.0 - eig[0])
        if dev > best:
            best = dev
            best_support = support
    return RipReport(k=k, delta_k=float(best), support=best_support,
                     scale=1.0 / mean_norm)


def rip_sample_complexity(n: int, k: int, delta: float, mu: float,
                          c_prime: float) -> int:
    """Window size sufficient for RIP under uniform random sampling:
    ceil(c' * delta^-2 * mu^2 * k * log^5 n)."""
    if min(n, k) < 1 or delta <= 0 or delta > 1 or mu <= 0 or c_prime <= 0:
        raise ValueError("need n, k >= 1, delta in (0,1], mu > 0, c' > 0")
    return math.ceil(c_prime * delta ** -2 * mu ** 2 * k * math.log(n) ** 5)


def export_dense_csv(mat: np.ndarray, path) -> None:
    """Write a complex matrix row-major as CSV, each entry as a re,im pair
    of adjacent columns."""
    mat = np.asarray(mat)
    interleaved = np.empty((mat.shape[0], 2 * mat.shape[1]))
    interleaved[:, 0::2] = mat.real
    interleaved[:, 1::2] = mat.imag
    np.savetxt(path, interleaved, delimiter=",")
