"""Quadratic eigenvalue problem (M lam^2 + D lam + L) x = 0 via the DAE pencil.

The second-order system is rewritten first order by adding one speed variable
per inertial row. Rows with m = 0 but d > 0 (frequency-dependent loads) stay
first-order dynamic; rows with m = d = 0 (connecting buses, load voltages)
stay algebraic, which makes the generalized pencil (E, J) singular: QZ
returns its infinite eigenvalues with beta = 0. The finite ones are counted,
not thresholded: where the algebraic block of L is nonsingular, as at the
energy minimum ``study.Study`` certifies, there are exactly ``n_dyn``, one
per dynamic state. State ordering is (dynamic z rows, speeds, algebraic z
rows), so E = blockdiag(I, 0).

The pencil is solved by one LAPACK ``dggev`` (QZ) call per study, in ``qz``.
``eigenpairs`` then builds and scales only the eigenvectors it keeps, with
the same operations ``scipy.linalg.eig`` applies, so every bit matches it;
the tests check it against ``scipy.linalg.eig``. It filters and gauges
them, gates each by its backward error at the homogeneous pair
(lam, 1) / max(1, |lam|), with norms that do not overflow, and returns
arrays; ``solve_qep`` summarizes those as ``Mode``s, and a re-solve that
reads only the eigenvalues stops at the arrays. ``newton_eigenpair`` follows
one eigenpair of Q(lam) directly: it refines a pair QZ leaves above the
backward-error gate, and ``dispatch.ModePath.tracked`` follows a mode
through a redispatch with it.

The eigensolve calls three compiled routines of scipy: LAPACK ``dggev``
and the BLAS 2-norms ``dnrm2`` and ``dznrm2``. They are loaded straight
from scipy's f2py modules ``scipy/linalg/_flapack`` and ``_fblas`` by
``_linalg_extension``, because importing ``scipy.linalg`` also imports
``numpy.f2py``, ``numpy.testing``, ``numpy.ma`` and ``numpy.random``, which
dominate the start-up of a one-command process. They are the very objects
``scipy.linalg.lapack.dggev`` and ``get_blas_funcs("nrm2", ...,
ilp64="preferred")`` return, so no output bit depends on the route. The
upper Cholesky pair ``dpotrf`` and ``dpotrs``, which ``scipy.linalg.solve``
picks for a symmetric positive definite matrix, is loaded the same way: the
factor is ``study.Study.grounded_factor``, the solve on it
``dispatch.generator_gains``. No command imports ``scipy.linalg``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from types import ModuleType

import numpy as np
import scipy

from .errors import (
    ConvergenceError, DegenerateModeError, ReductionError, UsageError, ValidationError,
)
from .network import Network, OperatingPoint

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
NEWTON_MAX_STEPS = 6
NEWTON_STEP_REL = 1e-14      # a step moving lam by at most this of |lam| ends Newton


def _linalg_extension(name: str) -> ModuleType:
    """scipy's compiled module ``scipy.linalg.<name>``, loaded from its file
    without running ``scipy/linalg/__init__``.

    The module is registered under its own name, so a later
    ``import scipy.linalg`` reuses it rather than loading a second copy.
    """
    qualname = f"scipy.linalg.{name}"
    if qualname in sys.modules:
        return sys.modules[qualname]
    stem = os.path.join(scipy.__path__[0], "linalg", name)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(qualname, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            sys.modules[qualname] = module
            spec.loader.exec_module(module)
            return module
    suffixes = ", ".join(importlib.machinery.EXTENSION_SUFFIXES)
    raise ImportError(f"no compiled {qualname} at {stem} (looked for {suffixes})",
                      name=qualname, path=stem)


_DGGEV = _linalg_extension("_flapack").dggev
# scipy.linalg.solve's pair for a symmetric positive definite matrix.
_DPOTRF = _linalg_extension("_flapack").dpotrf
_DPOTRS = _linalg_extension("_flapack").dpotrs
# The BLAS 2-norms scipy.linalg.norm uses on a vector: eigenvector scaling, backward errors.
_DNRM2 = _linalg_extension("_fblas").dnrm2
_DZNRM2 = _linalg_extension("_fblas").dznrm2


@dataclass(frozen=True)
class DynamicMatrices:
    """Diagonals of M and D in state order; zero rows mark algebraic variables."""

    m: np.ndarray
    d: np.ndarray


def build_dynamic_matrices(network: Network, const_v: bool = False) -> DynamicMatrices:
    """m_i = 2 h_i / omega0 on generator angle rows, d_i = D_seconds / omega0
    on every angle row; voltage rows are purely algebraic.

    A coefficient that overflows, or a generator's m_i that underflows to
    zero, raises ValidationError naming the first such bus; numpy warns of
    the overflow as the caller's error state says (``cli.main``'s: never).
    """
    n, m = network.n, network.m
    size = n if const_v else 2 * n - m
    md = np.zeros(size)
    dd = np.zeros(size)
    md[:n] = 2.0 * np.array([b.inertia_h for b in network.buses]) / network.omega0
    dd[:n] = np.array([b.damping_d_seconds for b in network.buses]) / network.omega0
    bad = ~(np.isfinite(md[:n]) & np.isfinite(dd[:n]))
    bad[:m] |= ~(md[:m] > 0)
    if bad.any():
        label = network.buses[int(np.argmax(bad))].label
        raise ValidationError(
            f"the dynamic coefficients 2H/omega0 and D/omega0 of bus {label!r} "
            "leave the float range")
    return DynamicMatrices(m=md, d=dd)


@dataclass(frozen=True)
class Mode:
    """One eigenpair of the quadratic problem with derived summaries.

    ``x`` is in natural state order and normalized so the largest-magnitude
    generator angle component is 1+0j. ``residual`` is the backward error
    ||Q(lam) x|| / (||x|| ||Q(lam)||_F). ``swing_groups`` holds the labels of
    the generators that swing together, one group per sign of their rotated
    angle component; either may be empty. Frequency, damping ratio and the
    ``swing_profile`` text are derived from these fields.
    """

    lam: complex
    x: np.ndarray
    residual: float
    swing_groups: tuple[tuple[str, ...], tuple[str, ...]]
    electromechanical: bool
    warnings: tuple[str, ...] = ()

    @property
    def swing_profile(self) -> str:
        """The swing groups as text, "G1,G2 <-> G3", or one group alone."""
        return " <-> ".join(",".join(group) for group in self.swing_groups if group)

    @property
    def sigma(self) -> float:
        return self.lam.real

    @property
    def omega(self) -> float:
        return self.lam.imag

    @property
    def freq_hz(self) -> float:
        return self.lam.imag / (2.0 * math.pi)

    @property
    def damping_ratio(self) -> float:
        return damping_ratio(self.lam)


def angle_only(network: Network, op: OperatingPoint, mode: Mode) -> bool:
    """Whether ``mode`` is of the angle-only (constant-voltage) model of ``network``:
    the one rule that ties a mode to the state ``op`` it is read at.

    Its eigenvector has n entries there and 2n - m in the full model; any
    other size, or a model other than the one ``op`` records, is a usage error.
    """
    n, size = network.n, mode.x.size
    if size not in (n, 2 * n - network.m):
        raise UsageError(f"mode has {size} entries; modes of this network have "
                         f"{n} (angle-only) or {2 * n - network.m} (full model)")
    if (size == n) != op.const_v:
        model = "angle-only" if op.const_v else "full"
        raise UsageError(f"the operating point is of the {model} model and the mode is not")
    return op.const_v


def damping_ratio(lam: complex) -> float:
    """-sigma / |lam|, and 0 for lam = 0."""
    mag = abs(lam)
    return -lam.real / mag if mag > 0 else 0.0


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
        x = None
    if x is None or not np.all(np.isfinite(x)):
        raise ReductionError(
            "algebraic block is singular; equilibrium sits at an algebraic singularity")
    return J11 - J12 @ x


@lru_cache(maxsize=64)
def _dggev_lwork(n: int) -> int:
    """LAPACK's optimal ``dggev`` workspace for a pencil of order n.

    The query reads only n, not the entries, so one query serves every
    pencil of that order.
    """
    a = np.zeros((n, n))
    return int(_DGGEV(a, a, lwork=-1)[-2][0])


def qz(J: np.ndarray, E: np.ndarray):
    """(alphar, alphai, beta, vr) of the real pencil (J, E) from one LAPACK
    ``dggev`` call (QZ; Moler & Stewart, SINUM 1973), which may overwrite
    both matrices.

    Eigenvalue j is (alphar[j] + i alphai[j]) / beta[j]. A conjugate pair
    has alphai[j] > 0 and its eigenvector vr[:, j] + i vr[:, j + 1], not
    normalized. The workspace is the size LAPACK's query returns, as in
    ``scipy.linalg.eig``, so the results match it bit for bit.
    """
    if not np.all(np.isfinite(J)):
        raise ConvergenceError("the DAE pencil has a non-finite entry; QZ not attempted")
    alphar, alphai, beta, _, vr, _, info = _DGGEV(
        J, E, compute_vl=0, lwork=_dggev_lwork(J.shape[0]), overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise ConvergenceError(f"QZ iteration failed (LAPACK dggev info = {info})")
    return alphar, alphai, beta, vr


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
    """||Q x_k|| / (||x_k|| ||Q||_F) for each column x_k of X, where Q =
    alpha^2 M + alpha beta D + beta^2 L at (alpha, beta) = (lam_k, 1) / max(1, |lam_k|).

    The ratio is that of Q(lam_k) (Tisseur & Meerbergen, SIAM Review 2001),
    but the homogeneous pair keeps the entries of Q within those of M, D and
    L (Dedieu & Tisseur, LAA 2003). No Q is formed: the residual is
    beta^2 L X + S o X with s = alpha^2 m + alpha beta d, ||Q||_F is the hypot
    of beta^2 ||offdiag L||_F and ||beta^2 diag L + s||, and every norm is nrm2's.
    """
    beta = 1.0 / np.maximum(1.0, _abs(lams))
    alpha = lams * beta
    S = alpha * alpha * m_diag[:, None] + alpha * beta * d_diag[:, None]
    R = beta * (beta * (L @ X)) + S * X
    off_norm = _DNRM2((L - np.diag(np.diag(L))).ravel())
    Q_diag = beta * (beta * np.diag(L)[:, None]) + S
    r, x, q = (np.array([_DZNRM2(col) for col in A.T.copy()]) for A in (R, X, Q_diag))
    return r / (x * np.hypot(beta * (beta * off_norm), q))


def newton_eigenpair(
    lam: complex, x: np.ndarray, m_diag: np.ndarray, d_diag: np.ndarray, L: np.ndarray,
    k: int,
) -> tuple[complex, np.ndarray, float] | None:
    """One eigenpair of Q(lam) = lam^2 M + lam D + L by Newton's method from (lam, x).

    Entry k of x is held fixed, so each step solves the bordered system
    Q(lam) dx + dlam Q'(lam) x = -Q(lam) x as one complex n-sized solve: column
    k of Q(lam) becomes Q'(lam) x = (2 lam M + D) x and its unknown is dlam
    (Ruhe, SINUM 1973). Returns (lam, x, backward error) after the first step
    that moves lam by at most NEWTON_STEP_REL of |lam|, and None when
    NEWTON_MAX_STEPS steps do not get there or a step is singular or not finite.
    """
    lam, x = complex(lam), np.array(x, dtype=complex)
    diag = np.diag_indices_from(L)
    for _ in range(NEWTON_MAX_STEPS):
        Q = L.astype(complex)
        Q[diag] += lam * lam * m_diag + lam * d_diag
        rhs = -(Q @ x)
        Q[:, k] = (2.0 * lam * m_diag + d_diag) * x
        try:
            step = np.linalg.solve(Q, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        dlam = complex(step[k])
        step[k] = 0.0
        x += step
        lam += dlam
        if abs(dlam) <= NEWTON_STEP_REL * abs(lam):
            residual = backward_errors(np.array([lam]), x[:, None], m_diag, d_diag, L)[0]
            return lam, x, float(residual)
    return None


def _swing_groups(
    X: np.ndarray, gen_rows: np.ndarray, labels: tuple[str, ...]
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """One ``Mode.swing_groups`` per row of X.

    Each row's generator components are rotated so that the first largest is
    real and positive; those of at least PARTICIPATION_THRESHOLD of it are
    grouped by the sign of their real part, nonnegative first.
    """
    if not gen_rows.size:
        return [((), ())] * X.shape[0]
    xg = X[:, gen_rows]
    mags = np.abs(xg)
    top = np.max(mags, axis=1)
    phase = xg[np.arange(xg.shape[0]), _first_at_max(mags)]
    # An all-zero row gets a unit phase and shows no generator: both groups are empty.
    phase = np.where(top > 0, phase, 1.0)
    rotated = xg * (_abs(phase) / phase)[:, None]
    shown = ~(_abs(rotated) < PARTICIPATION_THRESHOLD * top[:, None]) & (top[:, None] > 0)
    positive = rotated.real >= 0
    return [(tuple(lab for lab, s, p in zip(labels, row_shown, row_pos) if s and p),
             tuple(lab for lab, s, p in zip(labels, row_shown, row_pos) if s and not p))
            for row_shown, row_pos in zip(shown.tolist(), positive.tolist())]


@dataclass(frozen=True)
class Eigenpairs:
    """The finite eigenpairs a QEP keeps, as arrays sorted by omega then sigma.

    Row k of ``X`` is the eigenvector of ``lams[k]`` in natural state order,
    gauged as ``Mode.x`` is, and ``residuals[k]`` its backward error.
    ``spectrum`` holds every finite eigenvalue, conjugates and the discarded
    zero mode included, ``spectral_scale`` the largest of their magnitudes
    and ``gen_rows`` the inertial (generator) rows.
    """

    lams: np.ndarray
    X: np.ndarray
    residuals: np.ndarray
    spectrum: np.ndarray
    spectral_scale: float
    gen_rows: np.ndarray


def eigenpairs(
    m_diag: np.ndarray,
    d_diag: np.ndarray,
    L: np.ndarray,
    n_angles: int | None = None,
) -> Eigenpairs:
    """Every finite eigenpair of the pencil that a mode is made from.

    The finite eigenvalues are those QZ returns with beta != 0; any count
    but ``n_dyn`` means the algebraic block is singular, the ReductionError of
    ``reduced_jacobian``. The infinite ones and the uniform-angle zero mode are
    discarded, and a conjugate pair is kept once, as its omega > 0 member.
    Each kept eigenvector is gauged and must pass the MODE_RESIDUAL_REL
    backward-error gate; a pair QZ leaves above it is first refined by
    ``newton_eigenpair`` with its gauge entry held. ``n_angles`` tells the
    uniform-mode filter where the angle block ends (defaults to the whole
    vector, which is right for constant-voltage models).
    """
    m_diag = np.asarray(m_diag, float)
    d_diag = np.asarray(d_diag, float)
    nz = m_diag.size
    if L.shape != (nz, nz):
        raise UsageError(f"L has shape {L.shape}, expected ({nz}, {nz})")
    if n_angles is None:
        n_angles = nz
    E, J, zcol, gen_rows, n_dyn = _pencil(m_diag, d_diag, L)
    if not nz:
        # LAPACK rejects an empty pencil.
        return Eigenpairs(np.zeros(0, complex), np.zeros((0, 0), complex), np.zeros(0),
                          np.zeros(0, complex), 0.0, gen_rows)
    alphar, alphai, beta, vr = qz(J, E)
    finite = beta != 0
    if np.count_nonzero(finite) != n_dyn:
        raise ReductionError(
            "algebraic block is singular; equilibrium sits at an algebraic singularity")

    # Eigenvalues as scipy.linalg.eig forms them, so that every digit matches.
    alph = alphar + 1j * alphai
    all_lams = alph[finite] / beta[finite]
    spectral_scale = float(np.max(np.abs(all_lams))) if all_lams.size else 0.0
    # Only the upper eigenvalue of a conjugate pair is reported, so only its
    # vector is built: the real part is LAPACK's row r and the imaginary part
    # row r + 1, copied so that no sign of zero changes.
    upper = alphai[finite] >= 0
    rows, lams, at = np.flatnonzero(finite)[upper], all_lams[upper], np.flatnonzero(upper)
    vt = vr.T
    if np.all(alphai == 0):
        V, nrm2 = vt[rows], _DNRM2
    else:
        V, nrm2 = np.zeros((rows.size, vt.shape[1]), complex), _DZNRM2
        V.real = vt[rows]
        pos = alphai[rows] > 0
        V.imag[pos] = vt[rows[pos] + 1]
    V /= np.array([nrm2(v) for v in V])[:, None]
    # One eigenvector per row, in natural state order. Fancy indexing returns
    # C-contiguous rows, so each row reduction rounds as on a lone vector.
    X = V[:, zcol].astype(complex, copy=False)
    mags = np.abs(X)

    keep = np.ones(lams.size, dtype=bool)
    if spectral_scale > 0:
        small = np.flatnonzero(_abs(lams) < ZERO_MODE_REL_TOL * spectral_scale)
        xa = X[small, :n_angles]
        spread = np.max(np.abs(xa - np.mean(xa, axis=1, keepdims=True)), axis=1)
        scale = np.max(mags[small], axis=1)
        scale[scale == 0] = 1.0
        keep[small[spread < UNIFORM_ANGLE_TOL * scale]] = False  # rigid uniform-angle mode
    lams, X, mags = lams[keep], X[keep], mags[keep]
    rows, at = rows[keep], at[keep]

    # Gauge: the first generator angle of largest magnitude becomes 1; a mode
    # without generator participation is pinned at its largest component.
    cols = gen_rows if gen_rows.size else np.arange(nz)
    on_gen = np.max(mags[:, cols], axis=1) > 1e-12 * np.max(mags, axis=1)
    pivot = np.where(on_gen, cols[_first_at_max(mags[:, cols])], _first_at_max(mags))
    X = X / X[np.arange(lams.size), pivot][:, None]

    # C order, as np.column_stack gave it: a Fortran-ordered X moves residuals at roundoff.
    residuals = backward_errors(lams, np.ascontiguousarray(X.T), m_diag, d_diag, L)
    # A pair QZ leaves above the gate is refined by Newton's method with its
    # gauge entry held, in the spectrum too, and gated again.
    for i in np.flatnonzero(~(residuals <= MODE_RESIDUAL_REL)):
        refined = newton_eigenpair(lams[i], X[i], m_diag, d_diag, L, pivot[i])
        if refined is not None:
            lams[i], X[i], residuals[i] = refined
            all_lams[at[i]] = lams[i]
            if alphai[rows[i]] > 0:
                all_lams[at[i] + 1] = np.conj(lams[i])
    failed = np.flatnonzero(~(residuals <= MODE_RESIDUAL_REL))
    if failed.size:
        residual, lam = float(residuals[failed[0]]), complex(lams[failed[0]])
        raise ConvergenceError(
            f"eigenpair residual {residual:.2e} exceeds {MODE_RESIDUAL_REL:.0e} "
            f"for lambda = {lam:.6g}")
    # After the gate, whose message names the first failure in QZ order.
    order = np.lexsort((lams.real, lams.imag))
    return Eigenpairs(lams[order], X[order], residuals[order], all_lams, spectral_scale,
                      gen_rows)


def solve_qep(
    m_diag: np.ndarray,
    d_diag: np.ndarray,
    L: np.ndarray,
    n_angles: int | None = None,
    gen_labels: tuple[str, ...] | None = None,
) -> list[Mode]:
    """All finite eigenpairs of the pencil, cleaned up and summarized.

    The eigenpairs are those of ``eigenpairs``, in its order (by omega, then
    sigma); each becomes a ``Mode`` with its swing groups, its
    electromechanical flag and a warning when another eigenvalue lies
    within RESONANCE_GAP_REL of the spectral scale.
    """
    pairs = eigenpairs(m_diag, d_diag, L, n_angles=n_angles)
    lams, X, gen_rows = pairs.lams, pairs.X, pairs.gen_rows
    if gen_labels is None:
        gen_labels = tuple(str(i + 1) for i in range(gen_rows.size))
    if not lams.size:
        return []
    mags = np.abs(X)
    dist = np.abs(lams[:, None] - pairs.spectrum[None, :])
    gaps = np.min(np.where(dist > 0, dist, np.inf), axis=1)
    em = (lams.imag > 0) & (gen_rows.size > 0) & (
        np.max(mags[:, gen_rows], axis=1, initial=0.0)
        >= PARTICIPATION_THRESHOLD * np.max(mags, axis=1))
    modes: list[Mode] = []
    for lam, x, residual, gap, is_em, groups in zip(
            lams.tolist(), X, pairs.residuals.tolist(), gaps.tolist(), em.tolist(),
            _swing_groups(X, gen_rows, gen_labels)):
        warn: list[str] = []
        if gap < RESONANCE_GAP_REL * pairs.spectral_scale:
            warn.append(
                f"near-resonant eigenvalue: gap {gap:.2e} below "
                f"{RESONANCE_GAP_REL:.0e} of spectral scale"
            )
        modes.append(Mode(
            lam=lam,
            x=x,
            residual=residual,
            swing_groups=groups,
            electromechanical=is_em,
            warnings=tuple(warn),
        ))
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
