"""Quadratic eigenvalue problem (M lam^2 + D lam + L) x = 0 via the DAE pencil.

The second-order system is rewritten first order by adding one speed variable
per inertial row. Rows with m = 0 but d > 0 (frequency-dependent loads) stay
first-order dynamic; rows with m = d = 0 (connecting buses, load voltages)
stay algebraic, which makes the generalized pencil (E, J) singular and
produces the infinite eigenvalues that get filtered out. State ordering is
(dynamic z rows, speeds, algebraic z rows), so E = blockdiag(I, 0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DegenerateModeError, ReductionError, UsageError
from .network import Network

INFINITE_EIG_TOL = 1e-12     # |beta| below this times the pair norm is infinite
# The rigid uniform-angle mode is a defective double zero when damping is
# absent, so QZ noise on it reaches sqrt(eps) of the spectral scale; the
# magnitude gate is set well above that and the uniform-eigenvector test does
# the real discriminating.
ZERO_MODE_REL_TOL = 1e-6
UNIFORM_ANGLE_TOL = 1e-6
RESONANCE_GAP_REL = 1e-8
MODE_RESIDUAL_REL = 1e-9
PARTICIPATION_THRESHOLD = 0.05
ALPHA_DEGENERACY_REL = 1e-12


@dataclass(frozen=True)
class DynamicMatrices:
    """Diagonals of M and D in state order; zero rows mark algebraic variables."""

    m: np.ndarray
    d: np.ndarray


def build_dynamic_matrices(network: Network, const_v: bool = False) -> DynamicMatrices:
    """m_i = 2 h_i / omega0 on generator angle rows, d_i = D_seconds / omega0
    on every angle row; voltage rows are purely algebraic."""
    n, m = network.n, network.m
    size = n if const_v else 2 * n - m
    md = np.zeros(size)
    dd = np.zeros(size)
    md[:n] = 2.0 * np.array([b.inertia_h for b in network.buses]) / network.omega0
    dd[:n] = np.array([b.damping_d_seconds for b in network.buses]) / network.omega0
    return DynamicMatrices(m=md, d=dd)


@dataclass(frozen=True)
class Mode:
    """One eigenpair of the quadratic problem with derived summaries.

    ``x`` is in natural state order and normalized so the largest-magnitude
    generator angle component is 1+0j. ``residual`` is the backward error
    ||Q(lam) x|| / (||x|| ||Q(lam)||_F).
    """

    lam: complex
    x: np.ndarray
    residual: float
    freq_hz: float
    damping_ratio: float
    swing_profile: str
    electromechanical: bool
    warnings: tuple[str, ...] = ()

    @property
    def sigma(self) -> float:
        return self.lam.real

    @property
    def omega(self) -> float:
        return self.lam.imag


def _pencil(m_diag: np.ndarray, d_diag: np.ndarray, L: np.ndarray):
    """(E, J, zcol, inertial, n_dyn) of the DAE pencil.

    ``zcol[i]`` is the pencil column of natural state i, ``inertial`` lists the
    rows with m > 0 (in order; row ``inertial[g]`` has its speed in column
    ``n_dyn - inertial.size + g``) and ``n_dyn`` counts the dynamic states,
    speeds included: E is the identity on the first ``n_dyn`` columns.
    """
    if not (np.all(m_diag >= 0) and np.all(d_diag >= 0)):
        raise UsageError("M and D diagonals must be nonnegative")
    inertial = np.flatnonzero(m_diag > 0)
    dynamic = (m_diag > 0) | (d_diag > 0)
    damped = np.flatnonzero(dynamic & (m_diag == 0))
    algebraic = np.flatnonzero(~dynamic)
    n_dyn = np.count_nonzero(dynamic) + inertial.size
    size = m_diag.size + inertial.size
    zcol = np.empty(m_diag.size, dtype=int)
    zcol[dynamic] = np.arange(n_dyn - inertial.size)
    zcol[algebraic] = np.arange(n_dyn, size)
    speed = np.arange(n_dyn - inertial.size, n_dyn)
    E = np.zeros((size, size))
    E[np.arange(n_dyn), np.arange(n_dyn)] = 1.0
    J = np.zeros((size, size))
    J[zcol[inertial], speed] = 1.0
    J[np.ix_(zcol[damped], zcol)] = -L[damped] / d_diag[damped, None]
    J[speed, speed] = -d_diag[inertial] / m_diag[inertial]
    # Added onto the zeros, which turns a -0 quotient into +0 as it always has.
    J[np.ix_(speed, zcol)] += -L[inertial] / m_diag[inertial, None]
    J[np.ix_(zcol[algebraic], zcol)] = -L[algebraic]
    return E, J, zcol, inertial, n_dyn


def extended_jacobian(
    m_diag: np.ndarray, d_diag: np.ndarray, L: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Singular pencil (E, J) whose finite eigenstructure matches the QEP.

    State order: dynamic z rows, then one speed per inertial row, then
    algebraic z rows; E = blockdiag(I, 0). A finite eigenvector carries
    lam * x_g in its speed block.
    """
    E, J, *_ = _pencil(np.asarray(m_diag, float), np.asarray(d_diag, float), L)
    return E, J


def reduced_jacobian(
    m_diag: np.ndarray, d_diag: np.ndarray, L: np.ndarray
) -> np.ndarray:
    """Schur complement J11 - J12 J22^{-1} J21 onto the dynamic states.

    The reduction eliminates the algebraic variables; its spectrum equals the
    finite spectrum of (E, J), at the price of destroying the symmetric
    Laplacian structure.
    """
    m_diag = np.asarray(m_diag, float)
    d_diag = np.asarray(d_diag, float)
    _, J, _, _, ndyn = _pencil(m_diag, d_diag, L)
    if J.shape[0] == ndyn:
        return J
    J11 = J[:ndyn, :ndyn]
    J12 = J[:ndyn, ndyn:]
    J21 = J[ndyn:, :ndyn]
    J22 = J[ndyn:, ndyn:]
    try:
        x = np.linalg.solve(J22, J21)
    except np.linalg.LinAlgError:
        raise ReductionError(
            "algebraic block is singular; equilibrium sits at an algebraic singularity"
        ) from None
    if not np.all(np.isfinite(x)):
        raise ReductionError(
            "algebraic block is singular; equilibrium sits at an algebraic singularity"
        )
    return J11 - J12 @ x


def _first_at_max(mags: np.ndarray) -> np.ndarray:
    """Per row, the lowest column within roundoff of the row maximum, for
    deterministic gauges."""
    top = np.max(mags, axis=1, keepdims=True)
    return np.argmax(mags >= top * (1.0 - 1e-12), axis=1)


def _abs(z: np.ndarray) -> np.ndarray:
    """|z| rounded as Python's abs(complex), which np.abs does not always match."""
    return np.hypot(z.real, z.imag)


def backward_errors(
    lams: np.ndarray, X: np.ndarray, m_diag: np.ndarray, d_diag: np.ndarray, L: np.ndarray
) -> np.ndarray:
    """||Q(lam_k) x_k|| / (||x_k|| ||Q(lam_k)||_F) for each column x_k of X.

    Q(lam) = L + diag(s) with s = lam^2 m + lam d, so the residual is
    L X + S o X and ||Q||_F^2 = ||L||_F^2 + sum_i (|s_i|^2 + 2 Re(s_i) L_ii);
    no Q(lam) is formed (Tisseur & Meerbergen, SIAM Review 2001).
    """
    S = lams * lams * m_diag[:, None] + lams * d_diag[:, None]
    R = L @ X + S * X
    q_norm2 = np.linalg.norm(L) ** 2 + np.sum(
        np.abs(S) ** 2 + 2.0 * S.real * np.diag(L)[:, None], axis=0)
    return np.linalg.norm(R, axis=0) / (np.linalg.norm(X, axis=0) * np.sqrt(q_norm2))


def _swing_profiles(
    X: np.ndarray, gen_rows: np.ndarray, labels: tuple[str, ...]
) -> list[str]:
    """One "G1,G2 <-> G3" string per row of X.

    Each row's generator components are rotated so that the first largest is
    real and positive; those of at least PARTICIPATION_THRESHOLD of it are
    grouped by the sign of their real part.
    """
    if not gen_rows.size:
        return [""] * X.shape[0]
    xg = X[:, gen_rows]
    mags = np.abs(xg)
    top = np.max(mags, axis=1)
    phase = xg[np.arange(xg.shape[0]), _first_at_max(mags)]
    # An all-zero row gets a unit phase and shows no generator: its profile is empty.
    phase = np.where(top > 0, phase, 1.0)
    rotated = xg * (_abs(phase) / phase)[:, None]
    shown = ~(_abs(rotated) < PARTICIPATION_THRESHOLD * top[:, None]) & (top[:, None] > 0)
    positive = rotated.real >= 0
    names = np.array(labels, dtype=object)
    profiles = []
    for row_shown, row_pos in zip(shown, positive):
        pos = ",".join(names[row_shown & row_pos])
        neg = ",".join(names[row_shown & ~row_pos])
        profiles.append(pos + " <-> " + neg if pos and neg else pos or neg)
    return profiles


def solve_qep(
    m_diag: np.ndarray,
    d_diag: np.ndarray,
    L: np.ndarray,
    n_angles: int | None = None,
    gen_labels: tuple[str, ...] | None = None,
) -> list[Mode]:
    """All finite eigenpairs of the pencil, cleaned up and summarized.

    Infinite eigenvalues (singular E) and the uniform-angle zero mode are
    discarded; conjugate pairs are reported once with omega > 0; modes come
    back sorted by omega then sigma. ``n_angles`` tells the uniform-mode
    filter where the angle block ends (defaults to the whole vector, which is
    right for constant-voltage models).
    """
    m_diag = np.asarray(m_diag, float)
    d_diag = np.asarray(d_diag, float)
    nz = m_diag.size
    if L.shape != (nz, nz):
        raise UsageError(f"L has shape {L.shape}, expected ({nz}, {nz})")
    if n_angles is None:
        n_angles = nz
    E, J, zcol, gen_rows, _ = _pencil(m_diag, d_diag, L)
    if gen_labels is None:
        gen_labels = tuple(str(i + 1) for i in range(gen_rows.size))
    (alph, beta), vr = scipy.linalg.eig(J, E, right=True, homogeneous_eigvals=True)

    pair_scale = np.hypot(np.abs(alph), np.abs(beta))
    finite = np.abs(beta) > INFINITE_EIG_TOL * pair_scale
    all_lams = alph[finite] / beta[finite]
    spectral_scale = float(np.max(np.abs(all_lams))) if all_lams.size else 0.0
    # One eigenvector per row, in natural state order. Fancy indexing returns
    # C-contiguous rows, so each row reduction rounds as on a lone vector.
    X = vr.T[np.ix_(finite, zcol)].astype(complex, copy=False)
    mags = np.abs(X)

    keep = all_lams.imag >= 0  # a conjugate partner is reported
    if spectral_scale > 0:
        small = np.flatnonzero(_abs(all_lams) < ZERO_MODE_REL_TOL * spectral_scale)
        xa = X[small, :n_angles]
        spread = np.max(np.abs(xa - np.mean(xa, axis=1, keepdims=True)), axis=1)
        scale = np.max(mags[small], axis=1)
        scale[scale == 0] = 1.0
        keep[small[spread < UNIFORM_ANGLE_TOL * scale]] = False  # rigid uniform-angle mode
    lams, X, mags = all_lams[keep], X[keep], mags[keep]
    if not lams.size:
        return []

    # Gauge: the first generator angle of largest magnitude becomes 1; a mode
    # without generator participation is pinned at its largest component.
    cols = gen_rows if gen_rows.size else np.arange(nz)
    on_gen = np.max(mags[:, cols], axis=1) > 1e-12 * np.max(mags, axis=1)
    pivot = np.where(on_gen, cols[_first_at_max(mags[:, cols])], _first_at_max(mags))
    X = X / X[np.arange(lams.size), pivot][:, None]
    mags = np.abs(X)

    # C order, as np.column_stack gave it: a Fortran-ordered X moves residuals at roundoff.
    residuals = backward_errors(lams, np.ascontiguousarray(X.T), m_diag, d_diag, L)
    failed = np.flatnonzero(~(residuals <= MODE_RESIDUAL_REL))
    if failed.size:
        residual, lam = float(residuals[failed[0]]), complex(lams[failed[0]])
        raise ConvergenceError(
            f"eigenpair residual {residual:.2e} exceeds {MODE_RESIDUAL_REL:.0e} "
            f"for lambda = {lam:.6g}",
            residual=residual,
        )
    dist = np.abs(lams[:, None] - all_lams[None, :])
    gaps = np.min(np.where(dist > 0, dist, np.inf), axis=1)
    em = (lams.imag > 0) & (gen_rows.size > 0) & (
        np.max(mags[:, gen_rows], axis=1, initial=0.0)
        >= PARTICIPATION_THRESHOLD * np.max(mags, axis=1))
    modes: list[Mode] = []
    for lam, x, residual, gap, is_em, profile in zip(
            lams.tolist(), X, residuals.tolist(), gaps.tolist(), em.tolist(),
            _swing_profiles(X, gen_rows, gen_labels)):
        warn: list[str] = []
        if gap < RESONANCE_GAP_REL * spectral_scale:
            warn.append(
                f"near-resonant eigenvalue: gap {gap:.2e} below "
                f"{RESONANCE_GAP_REL:.0e} of spectral scale"
            )
        mag = abs(lam)
        modes.append(Mode(
            lam=lam,
            x=x,
            residual=residual,
            freq_hz=lam.imag / (2.0 * math.pi),
            damping_ratio=-lam.real / mag if mag > 0 else 0.0,
            swing_profile=profile,
            electromechanical=is_em,
            warnings=tuple(warn),
        ))
    modes.sort(key=lambda md: (md.lam.imag, md.lam.real))
    return modes


def alpha(mode: Mode, m_diag: np.ndarray, d_diag: np.ndarray) -> complex:
    """2 lam x^T M x + x^T D x with the unconjugated transpose.

    This is the denominator of the sensitivity formula, common to all
    redispatches for a fixed mode; raises if numerically degenerate.
    """
    x = mode.x
    val = 2.0 * mode.lam * (x @ (m_diag * x)) + x @ (d_diag * x)
    xnorm2 = float(np.linalg.norm(x)) ** 2
    scale = abs(mode.lam) * float(np.max(m_diag, initial=0.0)) * xnorm2 \
        + float(np.max(d_diag, initial=0.0)) * xnorm2
    if scale == 0.0 or abs(val) < ALPHA_DEGENERACY_REL * scale:
        raise DegenerateModeError(
            f"alpha = {val:.3e} is numerically zero; sensitivity undefined"
        )
    return complex(val)


def lambda_from_vector(
    x: np.ndarray, m_diag: np.ndarray, d_diag: np.ndarray, L: np.ndarray
) -> tuple[complex, ...]:
    """Eigenvalue candidates from the Hermitian quadratic x*^T Q(lam) x = 0.

    Uses the conjugated forms m(x), d(x), l(x); for an exact eigenvector one
    returned root is the mode's eigenvalue.
    """
    x = np.asarray(x, dtype=complex)
    if not np.any(x):
        raise UsageError("x must be nonzero")
    xc = np.conj(x)
    mb = complex(xc @ (m_diag * x))
    db = complex(xc @ (d_diag * x))
    lb = complex(xc @ (L @ x))
    norm2 = float(np.linalg.norm(x)) ** 2
    m_scale = float(np.max(m_diag, initial=0.0)) * norm2
    d_scale = float(np.max(d_diag, initial=0.0)) * norm2
    if abs(mb) <= 1e-14 * max(m_scale, 1e-300):
        if abs(db) <= 1e-14 * max(d_scale, 1e-300):
            raise DegenerateModeError("m(x) = d(x) = 0; quadratic undefined")
        return (-lb / db,)
    disc = cmath.sqrt(db * db - 4.0 * mb * lb)
    return ((-db + disc) / (2.0 * mb), (-db - disc) / (2.0 * mb))


def mode_summary(mode: Mode) -> tuple[float, float, str]:
    """(frequency in Hz, damping ratio in percent, swing profile)."""
    if mode.omega <= 0:
        raise UsageError("mode summary is defined for oscillatory modes only")
    return mode.freq_hz, 100.0 * mode.damping_ratio, mode.swing_profile
