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
from dataclasses import dataclass, replace

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
    for i, bus in enumerate(network.buses):
        md[i] = 2.0 * bus.inertia_h / network.omega0
        dd[i] = bus.damping_d_seconds / network.omega0
    return DynamicMatrices(m=md, d=dd)


@dataclass(frozen=True)
class Mode:
    """One eigenpair of the quadratic problem with derived summaries.

    ``x`` is in natural state order and normalized so the largest-magnitude
    generator angle component is 1+0j. ``x_line`` is attached once the mode
    has been pushed through the line-coordinate map.
    """

    lam: complex
    x: np.ndarray
    alpha: complex
    residual: float
    freq_hz: float
    damping_ratio: float
    swing_profile: str
    electromechanical: bool
    warnings: tuple[str, ...] = ()
    x_line: np.ndarray | None = None

    @property
    def sigma(self) -> float:
        return self.lam.real

    @property
    def omega(self) -> float:
        return self.lam.imag


class _PencilLayout:
    """Index bookkeeping between natural z order and pencil state order."""

    def __init__(self, m_diag: np.ndarray, d_diag: np.ndarray):
        nz = m_diag.size
        self.nz = nz
        self.dyn_z = [i for i in range(nz) if m_diag[i] > 0 or d_diag[i] > 0]
        self.inertial = [i for i in range(nz) if m_diag[i] > 0]
        self.alg_z = [i for i in range(nz) if m_diag[i] == 0 and d_diag[i] == 0]
        self.n_dyn = len(self.dyn_z)
        self.n_speed = len(self.inertial)
        self.size = nz + self.n_speed
        self.zcol = np.empty(nz, dtype=int)
        for pos, i in enumerate(self.dyn_z):
            self.zcol[i] = pos
        for pos, i in enumerate(self.alg_z):
            self.zcol[i] = self.n_dyn + self.n_speed + pos
        self.speed_col = {i: self.n_dyn + g for g, i in enumerate(self.inertial)}


def _pencil(m_diag: np.ndarray, d_diag: np.ndarray, L: np.ndarray):
    lay = _PencilLayout(m_diag, d_diag)
    E = np.zeros((lay.size, lay.size))
    J = np.zeros((lay.size, lay.size))
    ndyn = lay.n_dyn + lay.n_speed
    E[np.arange(ndyn), np.arange(ndyn)] = 1.0
    for i in lay.dyn_z:
        row = lay.zcol[i]
        if m_diag[i] > 0:
            J[row, lay.speed_col[i]] = 1.0
        else:
            J[row, lay.zcol] = -L[i] / d_diag[i]
    for i in lay.inertial:
        row = lay.speed_col[i]
        J[row, row] = -d_diag[i] / m_diag[i]
        J[row, lay.zcol] += -L[i] / m_diag[i]
    for i in lay.alg_z:
        J[lay.zcol[i], lay.zcol] = -L[i]
    return E, J, lay


def extended_jacobian(
    m_diag: np.ndarray, d_diag: np.ndarray, L: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Singular pencil (E, J) whose finite eigenstructure matches the QEP.

    State order: dynamic z rows, then one speed per inertial row, then
    algebraic z rows; E = blockdiag(I, 0). A finite eigenvector carries
    lam * x_g in its speed block.
    """
    E, J, _ = _pencil(np.asarray(m_diag, float), np.asarray(d_diag, float), L)
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
    E, J, lay = _pencil(m_diag, d_diag, L)
    ndyn = lay.n_dyn + lay.n_speed
    if lay.size == ndyn:
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


def _qep_matrix(lam: complex, m_diag, d_diag, L) -> np.ndarray:
    Q = L.astype(complex).copy()
    idx = np.arange(L.shape[0])
    Q[idx, idx] += lam * lam * m_diag + lam * d_diag
    return Q


def _swing_profile(x: np.ndarray, gen_rows: list[int], labels: tuple[str, ...]) -> str:
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
    gen_rows = [i for i in range(nz) if m_diag[i] > 0]
    if gen_labels is None:
        gen_labels = tuple(str(i + 1) for i in range(len(gen_rows)))

    E, J, lay = _pencil(m_diag, d_diag, L)
    (alph, beta), vr = scipy.linalg.eig(J, E, right=True, homogeneous_eigvals=True)

    pair_scale = np.hypot(np.abs(alph), np.abs(beta))
    finite = np.abs(beta) > INFINITE_EIG_TOL * pair_scale
    lams = alph[finite] / beta[finite]
    vecs = vr[:, finite]

    spectral_scale = float(np.max(np.abs(lams))) if lams.size else 0.0

    kept: list[tuple[complex, np.ndarray]] = []
    all_finite: list[complex] = list(lams)
    for idx in range(lams.size):
        lam = complex(lams[idx])
        x = vecs[lay.zcol, idx].astype(complex)
        if spectral_scale > 0 and abs(lam) < ZERO_MODE_REL_TOL * spectral_scale:
            xa = x[:n_angles]
            scale = float(np.max(np.abs(x))) or 1.0
            if np.max(np.abs(xa - np.mean(xa))) < UNIFORM_ANGLE_TOL * scale:
                continue  # rigid uniform-angle mode
        if lam.imag < 0:
            continue  # conjugate partner is reported
        kept.append((lam, x))

    modes: list[Mode] = []
    for lam, x in kept:
        xg = x[gen_rows] if gen_rows else x
        top = float(np.max(np.abs(xg))) if xg.size else 0.0
        if top > 1e-12 * float(np.max(np.abs(x))):
            x = x / xg[_first_at_max(np.abs(xg))]
        else:
            x = x / x[_first_at_max(np.abs(x))]
        Q = _qep_matrix(lam, m_diag, d_diag, L)
        residual = float(
            np.linalg.norm(Q @ x) / (np.linalg.norm(x) * np.linalg.norm(Q))
        )
        if not residual <= MODE_RESIDUAL_REL:
            raise ConvergenceError(
                f"eigenpair residual {residual:.2e} exceeds {MODE_RESIDUAL_REL:.0e} "
                f"for lambda = {lam:.6g}",
                residual=residual,
            )
        warn: list[str] = []
        gap = min(
            (abs(lam - other) for other in all_finite if abs(lam - other) > 0),
            default=math.inf,
        )
        if gap < RESONANCE_GAP_REL * spectral_scale:
            warn.append(
                f"near-resonant eigenvalue: gap {gap:.2e} below "
                f"{RESONANCE_GAP_REL:.0e} of spectral scale"
            )
        al = 2.0 * lam * (x @ (m_diag * x)) + x @ (d_diag * x)
        mag = abs(lam)
        zeta = -lam.real / mag if mag > 0 else 0.0
        xmax = float(np.max(np.abs(x)))
        em = lam.imag > 0 and gen_rows != [] and (
            float(np.max(np.abs(x[gen_rows]))) >= PARTICIPATION_THRESHOLD * xmax
        )
        modes.append(Mode(
            lam=lam,
            x=x,
            alpha=complex(al),
            residual=residual,
            freq_hz=lam.imag / (2.0 * math.pi),
            damping_ratio=zeta,
            swing_profile=_swing_profile(x, gen_rows, gen_labels) if gen_rows else "",
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


def attach_line_coords(mode: Mode, H: np.ndarray) -> Mode:
    """Return the mode with x' = H x attached."""
    return replace(mode, x_line=H @ mode.x)
