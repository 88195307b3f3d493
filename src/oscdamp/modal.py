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


def _first_at_max(mags: np.ndarray) -> int:
    """Lowest index within roundoff of the maximum, for deterministic gauges."""
    top = float(np.max(mags))
    return int(np.argmax(mags >= top * (1.0 - 1e-12)))


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


def _swing_profile(x: np.ndarray, gen_rows: np.ndarray, labels: tuple[str, ...]) -> str:
    xg = x[gen_rows]
    top = np.max(np.abs(xg))
    if top == 0:
        return ""
    phase = xg[_first_at_max(np.abs(xg))]
    rotated = xg * (abs(phase) / phase)
    with_group: list[tuple[str, float]] = []
    for lab, val in zip(labels, rotated):
        if abs(val) < PARTICIPATION_THRESHOLD * top:
            continue
        with_group.append((lab, float(val.real)))
    pos = [lab for lab, re in with_group if re >= 0]
    neg = [lab for lab, re in with_group if re < 0]
    if pos and neg:
        return ",".join(pos) + " <-> " + ",".join(neg)
    return ",".join(pos or neg)


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
    lams = alph[finite] / beta[finite]
    vecs = vr[:, finite]

    spectral_scale = float(np.max(np.abs(lams))) if lams.size else 0.0

    kept: list[tuple[complex, np.ndarray]] = []
    for idx in range(lams.size):
        lam = complex(lams[idx])
        x = vecs[zcol, idx].astype(complex)
        if spectral_scale > 0 and abs(lam) < ZERO_MODE_REL_TOL * spectral_scale:
            xa = x[:n_angles]
            scale = float(np.max(np.abs(x))) or 1.0
            if np.max(np.abs(xa - np.mean(xa))) < UNIFORM_ANGLE_TOL * scale:
                continue  # rigid uniform-angle mode
        if lam.imag < 0:
            continue  # conjugate partner is reported
        xg = x[gen_rows] if gen_rows.size else x
        top = float(np.max(np.abs(xg))) if xg.size else 0.0
        if top > 1e-12 * float(np.max(np.abs(x))):
            x = x / xg[_first_at_max(np.abs(xg))]
        else:
            x = x / x[_first_at_max(np.abs(x))]
        kept.append((lam, x))
    if not kept:
        return []

    kept_lams = np.array([lam for lam, _ in kept])
    residuals = backward_errors(
        kept_lams, np.column_stack([x for _, x in kept]), m_diag, d_diag, L)
    dist = np.abs(kept_lams[:, None] - lams[None, :])
    gaps = np.min(np.where(dist > 0, dist, np.inf), axis=1)
    modes: list[Mode] = []
    for (lam, x), residual, gap in zip(kept, residuals.tolist(), gaps.tolist()):
        if not residual <= MODE_RESIDUAL_REL:
            raise ConvergenceError(
                f"eigenpair residual {residual:.2e} exceeds {MODE_RESIDUAL_REL:.0e} "
                f"for lambda = {lam:.6g}",
                residual=residual,
            )
        warn: list[str] = []
        if gap < RESONANCE_GAP_REL * spectral_scale:
            warn.append(
                f"near-resonant eigenvalue: gap {gap:.2e} below "
                f"{RESONANCE_GAP_REL:.0e} of spectral scale"
            )
        mag = abs(lam)
        zeta = -lam.real / mag if mag > 0 else 0.0
        xmax = float(np.max(np.abs(x)))
        em = lam.imag > 0 and gen_rows.size > 0 and (
            float(np.max(np.abs(x[gen_rows]))) >= PARTICIPATION_THRESHOLD * xmax
        )
        modes.append(Mode(
            lam=lam,
            x=x,
            residual=residual,
            freq_hz=lam.imag / (2.0 * math.pi),
            damping_ratio=zeta,
            swing_profile=_swing_profile(x, gen_rows, gen_labels) if gen_rows.size else "",
            electromechanical=bool(em),
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
