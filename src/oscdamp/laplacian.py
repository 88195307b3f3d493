"""Energy Hessian in bus coordinates and its line-coordinate factorization.

The bundle carries the pieces the sensitivity formula works with: the full
Hessian L, the Jacobian H of the line-coordinate map (theta, nu), the three
diagonal blocks of the line-coordinate Hessian as vectors, and the diagonal
bus complement that makes

    L = H^T L'_line H + L_bus

an exact identity at any state. The complement is assembled in closed form
(not by matrix subtraction): the line-route product puts sum_k |A_ik| q_k /
V_i^2 on each load-voltage diagonal where the bus-coordinate Hessian has
sum_k b_k + Q_i / V_i^2, so the bus part absorbs the difference. At an
equilibrium the complement equals 2 * sum of incident susceptances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (
    Network,
    OperatingPoint,
    build_incidence,
    hessian_matrix,
    incident_b_sums,
    line_states,
)


@dataclass(frozen=True)
class LaplacianBundle:
    """Hessian L plus its line-coordinate factorization pieces.

    The 2x2 block structure of L'_line has the diagonals (-q, p, q); the
    bundle keeps ``lp_theta_nu = p`` and ``lp_nu_nu = q``. With
    ``const_v`` there are no voltage coordinates: H has only the theta rows
    and ``l_bus_diag`` is empty.
    """

    L: np.ndarray
    H: np.ndarray
    lp_theta_nu: np.ndarray
    lp_nu_nu: np.ndarray
    l_bus_diag: np.ndarray
    const_v: bool = False

    @property
    def A(self) -> np.ndarray:
        """Signed bus-line incidence (n x ell): the angle block of H, transposed."""
        nl = self.lp_nu_nu.size
        return self.H[:nl, :self.L.shape[0] - self.l_bus_diag.size].T

    def assemble_from_parts(self) -> np.ndarray:
        """H^T L'_line H + L_bus, for checking the factorization identity."""
        nl = self.lp_nu_nu.size
        Ht = self.H[:nl]
        out = Ht.T @ (-self.lp_nu_nu[:, None] * Ht)
        if not self.const_v:
            Hv = self.H[nl:]
            out += Ht.T @ (self.lp_theta_nu[:, None] * Hv)
            out += Hv.T @ (self.lp_theta_nu[:, None] * Ht)
            out += Hv.T @ (self.lp_nu_nu[:, None] * Hv)
            nloads = self.l_bus_diag.size
            idx = np.arange(out.shape[0] - nloads, out.shape[0])
            out[idx, idx] += self.l_bus_diag
        return out


def coord_jacobian(network: Network, op: OperatingPoint) -> np.ndarray:
    """Jacobian of the map from bus to line coordinates.

    Rows 1..ell carry the signed incidence transpose in the angle columns;
    rows ell+1..2*ell carry |A_ik| / V_i in the load-voltage columns.
    """
    n, m, nl = network.n, network.m, network.n_lines
    A, absA = build_incidence(network)
    H = np.zeros((2 * nl, 2 * n - m))
    H[:nl, :n] = A.T
    H[nl:, n:] = absA[m:].T / op.v_load
    return H


def hessian(
    network: Network, op: OperatingPoint, const_v: bool = False
) -> LaplacianBundle:
    """Analytic Hessian bundle at the given state (no numerical differentiation).

    ``const_v`` builds L in the angle coordinates alone, and H is then the
    signed incidence transpose A^T, the angle block of ``coord_jacobian``.
    """
    n, m, nl = network.n, network.m, network.n_lines
    L = hessian_matrix(network, op, const_v=const_v)
    ls = line_states(network, op)
    if const_v:
        H = np.ascontiguousarray(build_incidence(network)[0].T)
        l_bus = np.zeros(0)
    else:
        H = coord_jacobian(network, op)
        _, q_inj = network.injections()
        q_incident = np.abs(H[:nl, m:n]).T @ ls.q
        l_bus = (incident_b_sums(network)[m:] + q_inj[m:] / op.v_load ** 2) \
            - q_incident / op.v_load ** 2
    return LaplacianBundle(
        L=L,
        H=H,
        lp_theta_nu=ls.p.copy(),
        lp_nu_nu=ls.q.copy(),
        l_bus_diag=l_bus,
        const_v=const_v,
    )
