"""Measurement operator mapping the compound channel to window observations.

The operator A acts on h in C^{u_max * t_cp} (compound index u*t_cp + t) and
returns the m control-window samples P_B W y of the superimposed pilot
responses. Its (f, (u,t)) entry is p_hat_u(f) * exp(-2i*pi*f*t/n), so
A h = sum_u P_u * (D^T @ h_u) with D the pilot book's fixed t_cp x m
delay-major partial-DFT block (one row per delay, one column per window
subcarrier): apply and adjoint are two small GEMMs and columns() gathers
contiguous rows of D. A dense materialization is kept under a column cap as
an oracle.

Both operator classes also expose `gram_eigh`, the eigendecomposition
(eigenvalues ascending, eigenvectors as columns) of the m x m Gram A A^H,
computed on first use and cached; BPDN projects onto its residual ball
through it. And both give a complex64 twin of themselves (`complex64`), a
fresh single-precision copy whose apply/adjoint compute and return
complex64; BPDN runs its first phase on it.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from .config import SystemConfig
from .model import PilotBook, build_pilot_book


# materialize() is a toy-scale oracle; the LTE operator would take
# 839 x 30000 complex entries (about 400 MB).
MATERIALIZE_COL_CAP = 4096


class SensingOperator:
    """Matrix-free compound measurement operator with exact adjoint."""

    def __init__(self, pilots: PilotBook, t_cp: int):
        self.pilots = pilots
        self.window = pilots.window
        self.n = pilots.n
        self.u_max = pilots.u_max
        self.t_cp = t_cp
        self.m = len(self.window)
        if pilots.block.shape != (t_cp, self.m):
            raise ValueError(f"pilot book block has shape {pilots.block.shape}, "
                             f"expected ({t_cp}, {self.m})")
        # the block both GEMMs and columns() share
        self._block = pilots.block

    @property
    def shape(self):
        return (self.m, self.u_max * self.t_cp)

    def _check_h(self, h):
        h = np.asarray(h, dtype=self._block.dtype)
        if h.shape != (self.u_max * self.t_cp,):
            raise ValueError(f"expected compound vector of length "
                             f"{self.u_max * self.t_cp}, got shape {h.shape}")
        return h

    @cached_property
    def gram_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of A A^H. The Gram is
        (W^T conj(W)) * (D^T conj(D)) elementwise, W the pilot window values
        and D the delay-major block."""
        values = self.pilots.window_values
        gram = (values.T @ np.conj(values)) * (self._block.T @ np.conj(self._block))
        return np.linalg.eigh(gram)

    def apply(self, h: np.ndarray) -> np.ndarray:
        """A @ h: a GEMM with the partial-DFT block."""
        h = self._check_h(h)
        taps = h.reshape(self.u_max, self.t_cp)
        return np.sum(self.pilots.window_values * (taps @ self._block), axis=0)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A* @ y; exact adjoint of apply."""
        y = np.asarray(y, dtype=self._block.dtype)
        if y.shape != (self.m,):
            raise ValueError(f"expected window vector of length {self.m}, "
                             f"got shape {y.shape}")
        # (conj(P) * y) @ conj(D^T), conjugating the small product instead
        return np.conj((self.pilots.window_values * np.conj(y))
                       @ self._block.T).reshape(-1)

    def complex64(self) -> "SensingOperator":
        """The same operator on complex64 copies of the block and the pilot
        window values, made on each call (nothing is cached)."""
        pilots = replace(self.pilots,
                         window_values=self.pilots.window_values.astype(np.complex64),
                         block=self._block.astype(np.complex64))
        return SensingOperator(pilots, self.t_cp)

    def columns(self, support) -> np.ndarray:
        """Dense m x |support| submatrix for the given compound indices."""
        support = np.asarray(support, dtype=int)
        if support.size == 0:
            return np.zeros((self.m, 0), dtype=complex)
        users, delays = np.divmod(support, self.t_cp)
        # contiguous rows of D, scaled in place, pilot factor first: numpy's
        # complex multiply is not bitwise commutative, and this keeps the
        # bits of values * block
        rows = self._block[delays]
        np.multiply(self.pilots.window_values[users], rows, out=rows)
        return rows.T

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
        return self.mat @ np.asarray(h, dtype=self.mat.dtype)

    def adjoint(self, y):
        return self.mat.conj().T @ np.asarray(y, dtype=self.mat.dtype)

    def complex64(self) -> "DenseOperator":
        """The same operator on a complex64 copy of the matrix."""
        twin = DenseOperator(self.mat, self.u_max)
        twin.mat = self.mat.astype(np.complex64)
        return twin

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
    return SensingOperator(pilots, cfg.t_cp)


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


# Diagonal blocks up to this order are inverted by np.linalg.inv; larger
# lower-triangular factors are split in halves by _lower_inverse.
INV_BLOCK = 32


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2 x 2 blocks,
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: matmuls, with
    np.linalg.inv (a general LU inverse, about 8x the flops of a triangular
    one) only on diagonal blocks of at most INV_BLOCK rows. Raises
    LinAlgError where such a block is singular."""
    size = low.shape[0]
    if size <= INV_BLOCK:
        return np.linalg.inv(low)
    half = size // 2
    a_inv = _lower_inverse(low[:half, :half])
    c_inv = _lower_inverse(low[half:, half:])
    inv = np.zeros_like(low)
    inv[:half, :half] = a_inv
    inv[half:, half:] = c_inv
    inv[half:, :half] = -(c_inv @ (low[half:, :half] @ a_inv))
    return inv


def gram_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solution of gram @ x = rhs through the Cholesky factor L of the
    Hermitian Gram, or None when the factor fails or does not certify
    cond(gram) < GRAM_COND_MAX. The certificate is rigorous:
    lambda_max <= ||gram||_F and 1 / lambda_min = ||L^-1||_2^2 <=
    ||L^-1||_F^2."""
    try:
        inv = _lower_inverse(np.linalg.cholesky(gram))
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
