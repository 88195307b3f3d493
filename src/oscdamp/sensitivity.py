"""First-order eigenvalue sensitivity to operating-point changes.

For a fixed mode (lam, x) of the symmetric quadratic problem, the change in
the eigenvalue under a change dL of the energy Hessian is

    dlam = - x^T (dL) x / alpha,      alpha = 2 lam x^T M x + x^T D x

with the unconjugated transpose throughout. This module expands x^T dL x into
per-line coefficients of d(theta_k) and per-load-bus coefficients of
d(ln V_i), using the exact differential of the bus-coordinate Hessian written
in line quantities:

    theta_coeff_k = [2 x^ln_i x^ln_j - (x'_theta_k)^2] p_k
                    - 2 x'_theta_k x'_nu_k q_k
    vln_coeff_i   = sum_k |A_ik| [ -(x'_theta_k)^2 q_k
                    + 2 x'_theta_k (x'_nu_k - x^ln_i) p_k ] - 2 (x^ln_i)^2 Q_i

where x^ln_i = x_{V_i} / V_i and the 2 x^ln_i x^ln_j term appears only when
both ends of line k are load buses. These coefficients reproduce the
directional derivative of x^T L x for arbitrary state directions, which a
finite-difference eigenvalue oracle confirms to ~1e-10 relative along
redispatch directions. Everything is quadratic in x, so the assembled dlam is
invariant under rescaling of the eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modal
from .errors import UsageError
from .network import Network, OperatingPoint
from .laplacian import LaplacianBundle

UNDAMPED_SIGMA_REL = 1e-10


@dataclass(frozen=True)
class SensitivityReport:
    """Numerator coefficients of the sensitivity formula for one mode.

    ``theta_coeff`` has one complex entry per line, ``vln_coeff`` one per load
    bus (empty in constant-voltage models). dlam for a given state move is
    -(theta_coeff . dtheta + vln_coeff . dvln) / alpha.
    """

    theta_coeff: np.ndarray
    vln_coeff: np.ndarray
    alpha: complex


@dataclass(frozen=True)
class ConstVCoefficients:
    """Real dsigma/domega line gains for constant-voltage models.

    dsigma = a_r . dtheta and domega = a_I . dtheta. For an undamped mode the
    nonnegative gains a_k = (x'_theta_k)^2 p_k / (2 omega x^T M x) are also
    provided; then a_r = 0 and a_I = -a.
    """

    a_r: np.ndarray
    a_I: np.ndarray
    a: np.ndarray | None = None

    def undamped_gains(self) -> np.ndarray:
        if self.a is None:
            raise UsageError(
                "undamped line gains are defined for zero-damping modes only"
            )
        return self.a


def sensitivity_coefficients(
    network: Network,
    op: OperatingPoint,
    mode: modal.Mode,
    bundle: LaplacianBundle,
    dyn: modal.DynamicMatrices,
) -> SensitivityReport:
    """Assemble the per-line and per-load-bus numerator coefficients.

    ``bundle`` and ``dyn`` are the Hessian bundle and dynamic matrices of
    ``network`` at ``op``, as a ``Study`` holds them; the voltage model is
    the bundle's.
    """
    n, m, nl = network.n, network.m, network.n_lines
    al = modal.alpha(mode, dyn.m, dyn.d)
    x = mode.x
    xp = bundle.H @ x
    xt = xp[:nl]
    p, q = bundle.lp_theta_nu, bundle.lp_nu_nu

    if bundle.const_v:
        theta_coeff = -(xt ** 2) * p
        vln_coeff = np.zeros(0, dtype=complex)
    else:
        _, q_inj = network.injections()
        xv = xp[nl:]
        xln = x[n:] / op.v_load
        # x^ln per bus, zero on generator buses; only load-load lines get the
        # 2 x^ln_i x^ln_j term.
        xln_bus = np.concatenate([np.zeros(m), xln])
        f, t = network.endpoints()
        both = np.where((f >= m) & (t >= m), xln_bus[f] * xln_bus[t], 0.0)
        theta_coeff = (2.0 * both - xt ** 2) * p - 2.0 * xt * xv * q
        abs_a_loads = np.abs(bundle.A[m:])
        vln_coeff = abs_a_loads @ (-(xt ** 2) * q + 2.0 * xt * xv * p) \
            - 2.0 * xln * (abs_a_loads @ (xt * p)) - 2.0 * xln ** 2 * q_inj[m:]

    return SensitivityReport(
        theta_coeff=theta_coeff,
        vln_coeff=vln_coeff,
        alpha=al,
    )


def dlambda(
    report: SensitivityReport,
    dtheta: np.ndarray,
    dvln: np.ndarray | None = None,
) -> complex | np.ndarray:
    """First-order eigenvalue change for given line-coordinate moves.

    With one move per column of ``dtheta`` and ``dvln`` the result has one
    entry per column.
    """
    num = report.theta_coeff @ np.asarray(dtheta)
    if report.vln_coeff.size:
        if dvln is None:
            raise UsageError("this report has voltage coefficients; dvln is required")
        num = num + report.vln_coeff @ np.asarray(dvln)
    if np.ndim(num) == 0:
        num = complex(num)  # Python complex division; NumPy's rounds differently
    return -num / report.alpha


def const_v_coefficients(
    mode: modal.Mode,
    bundle: LaplacianBundle,
    dyn: modal.DynamicMatrices,
) -> ConstVCoefficients:
    """Real/imaginary split of the constant-voltage sensitivity into line gains."""
    if not bundle.const_v or mode.x.size != bundle.H.shape[1]:
        raise UsageError(
            "constant-voltage coefficients need a mode from the constant-voltage model"
        )
    if mode.omega <= 0:
        raise UsageError("line gains are defined for oscillatory modes only")
    H, p = bundle.H, bundle.lp_theta_nu
    xt = H @ mode.x
    al = modal.alpha(mode, dyn.m, dyn.d)
    ar, ai = al.real, al.imag
    denom = ar * ar + ai * ai
    xt2 = xt ** 2
    a_r = (ar * xt2.real + ai * xt2.imag) * p / denom
    a_I = (ar * xt2.imag - ai * xt2.real) * p / denom

    a = None
    if abs(mode.sigma) <= UNDAMPED_SIGMA_REL * abs(mode.lam):
        # Zero damping: the eigenvector rotates to a real vector, making the
        # gains exactly real and nonnegative for flow-oriented lines.
        xr = mode.x.real
        mx = float(xr @ (dyn.m * xr))
        xtr = H @ xr
        a = (xtr ** 2) * p / (2.0 * mode.omega * mx)
    return ConstVCoefficients(a_r=a_r, a_I=a_I, a=a)
