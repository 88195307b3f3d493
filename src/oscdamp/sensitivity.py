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
both ends of line k are load buses. Since dtheta = A^T ddelta and
dln V = dV / V, the numerator is one covector in state coordinates,

    c = (A theta_coeff, vln_coeff / V),      dlam = - c . dz / alpha,

for a state move dz = (ddelta, dV). It reproduces the directional derivative
of x^T L x for arbitrary state directions, which a finite-difference
eigenvalue oracle confirms to ~1e-10 relative along redispatch directions.
Everything is quadratic in x, so the assembled dlam is invariant under
rescaling of the eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modal
from .errors import UsageError
from .study import Study


@dataclass(frozen=True)
class SensitivityReport:
    """Numerator coefficients of the sensitivity formula for one mode.

    ``theta_coeff`` has one complex entry per line, ``vln_coeff`` one per load
    bus (empty in constant-voltage models). ``state_coeff`` is the same
    numerator in state coordinates, one entry per entry of the mode's x:
    dlam for a state move dz is -state_coeff . dz / alpha.
    """

    theta_coeff: np.ndarray
    vln_coeff: np.ndarray
    state_coeff: np.ndarray
    alpha: complex


def sensitivity_coefficients(study: Study, mode: modal.Mode) -> SensitivityReport:
    """Assemble the per-line and per-load-bus numerator coefficients of
    ``mode`` at the study's state, from its bundle and dynamic matrices.

    The voltage model is the one the study's operating point records, and
    ``mode`` must come from it (``modal.angle_only``).
    """
    network, op = study.network, study.op
    const_v = modal.angle_only(network, op, mode)
    dyn, bundle = study.dyn, study.bundle
    n, m, nl = network.n, network.m, network.n_lines
    al = modal.alpha(mode, dyn.m, dyn.d)
    x = mode.x
    xp = bundle.H @ x
    xt = xp[:nl]
    p, q = bundle.lp_theta_nu, bundle.lp_nu_nu

    if const_v:
        theta_coeff = -(xt ** 2) * p
        vln_coeff = vln_state = np.zeros(0, dtype=complex)
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
        vln_state = vln_coeff / op.v_load

    return SensitivityReport(
        theta_coeff=theta_coeff,
        vln_coeff=vln_coeff,
        state_coeff=np.concatenate([bundle.A @ theta_coeff, vln_state]),
        alpha=al,
    )


def dlambda(report: SensitivityReport, dz: np.ndarray) -> complex:
    """First-order eigenvalue change for one state move dz = (ddelta, dV)."""
    # Python complex division; NumPy's rounds differently.
    return -complex(report.state_coeff @ dz) / report.alpha


def const_v_coefficients(mode: modal.Mode, report: SensitivityReport) -> np.ndarray:
    """Complex line gains -theta_coeff / alpha of a constant-voltage report.

    Their real and imaginary parts are the real line gains a_r and a_I:
    dsigma = a_r . dtheta and domega = a_I . dtheta. For an undamped mode
    a_r = 0 and a_I = -a with the nonnegative gains
    a_k = (x'_theta_k)^2 p_k / (2 omega x^T M x).
    """
    if report.vln_coeff.size:
        raise UsageError(
            "constant-voltage coefficients need a mode from the constant-voltage model"
        )
    if mode.omega <= 0:
        raise UsageError("line gains are defined for oscillatory modes only")
    return -report.theta_coeff / report.alpha
