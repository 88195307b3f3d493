"""Redispatch chain: dP -> dz -> dlambda, predictions, rankings.

dlambda is the state covector c of the sensitivity report applied to the
state move dz, -c . dz / alpha. For a single plan (``sens``, ``sweep``,
``verify``) the linearized load flow L dz = (dP, 0) is solved with the
least-squares pseudo-inverse. Pair ranking instead solves the adjoint: with
the bus-1 angle pinned (the uniform-angle vector is the only nullspace of the
symmetric L), one solve L y = c gives the gain g_k = -y_k / alpha of the
shift from generator 1 to generator k, and every ordered pair is
g_up - g_down. Either way the right-hand side must lie in the range of the
singular Laplacian, so the residual is checked rather than assumed. The
first-order eigenvalue formula is evaluated once at the base point;
predictions for finite r are lambda + r * dlambda and are compared against a
full re-solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import modal, sensitivity
from .errors import (
    ConvergenceError,
    ModeMatchingError,
    OracleError,
    SingularityError,
    UsageError,
    ValidationError,
)
from .network import Network, OperatingPoint
from .laplacian import LaplacianBundle, hessian
from .study import build_study

PINV_RCOND = 1e-10
FLOW_RESIDUAL_TOL = 1e-9
BALANCE_REL_TOL = 1e-12
MATCH_AMBIGUITY_GAP = 0.1


@dataclass(frozen=True)
class RedispatchPlan:
    """Balanced generator shift: dp per generator bus, positive = more output."""

    dp: np.ndarray
    description: str = ""

    def __post_init__(self):
        dp = np.asarray(self.dp, dtype=float)
        object.__setattr__(self, "dp", dp)
        scale = float(np.max(np.abs(dp))) if dp.size else 0.0
        if abs(float(np.sum(dp))) > BALANCE_REL_TOL * max(1.0, scale):
            raise ValidationError(
                f"redispatch plan is unbalanced: sum dp = {float(np.sum(dp)):.3e}"
            )


def plan_between(network: Network, up: str, down: str) -> RedispatchPlan:
    """Plan shifting one unit from generator ``down`` to generator ``up`` (labels)."""
    labels = network.gen_labels()
    if up not in labels or down not in labels:
        raise ValidationError(f"unknown generator pair {up}:{down}; generators are {labels}")
    if up == down:
        raise ValidationError("redispatch pair must name two distinct generators")
    dp = np.zeros(network.m)
    dp[labels.index(up)] = 1.0
    dp[labels.index(down)] = -1.0
    return RedispatchPlan(dp=dp, description=f"{up}->{down}")


@dataclass(frozen=True)
class ModePrediction:
    r: float
    lambda_approx: complex
    lambda_exact: complex | None
    error: float | None
    oracle_failure: str | None = None


@dataclass(frozen=True)
class PairSensitivity:
    up: str
    down: str
    dlambda_dr: complex
    dsigma_dr: float
    domega_dr: float
    dzeta_dr: float


def _check_in_range(L: np.ndarray, dz: np.ndarray, rhs: np.ndarray) -> None:
    """Raise unless L dz = rhs holds; NaN fails the check."""
    resid = np.linalg.norm(L @ dz - rhs)
    if not resid <= FLOW_RESIDUAL_TOL * max(1.0, np.linalg.norm(rhs)):
        raise SingularityError(
            f"right-hand side not in the range of L (residual {resid:.3e}); "
            "equilibrium is near a singularity"
        )


def flow_response(network: Network, L: np.ndarray, plan: RedispatchPlan) -> np.ndarray:
    """Linearized load-flow response dz = L^+ (dP, 0) for a balanced plan.

    The angle part comes back in the gauge the pseudo-inverse delivers (zero
    component along the uniform-angle nullvector); dlambda is gauge-invariant
    anyway.
    """
    m = network.m
    if plan.dp.shape != (m,):
        raise ValidationError(f"plan has {plan.dp.size} entries, network has {m} generators")
    rhs = np.zeros(L.shape[0])
    rhs[:m] = plan.dp
    dz = np.linalg.pinv(L, rcond=PINV_RCOND) @ rhs
    _check_in_range(L, dz, rhs)
    return dz


def angle_only(network: Network, mode: modal.Mode) -> bool:
    """Whether ``mode`` comes from the angle-only (constant-voltage) model.

    Its eigenvector has n entries there and 2n - m in the full model; any
    other size is a usage error.
    """
    n, size = network.n, mode.x.size
    if size not in (n, 2 * n - network.m):
        raise UsageError(f"mode has {size} entries; modes of this network have "
                         f"{n} (angle-only) or {2 * n - network.m} (full model)")
    return size == n


def _sensitivity(
    network: Network, op: OperatingPoint, mode: modal.Mode
) -> tuple[LaplacianBundle, sensitivity.SensitivityReport]:
    """Hessian bundle and sensitivity report in the mode's own voltage model."""
    const_v = angle_only(network, mode)
    bundle = hessian(network, op, const_v=const_v)
    dyn = modal.build_dynamic_matrices(network, const_v=const_v)
    return bundle, sensitivity.sensitivity_coefficients(network, op, mode, bundle, dyn)


def unit_dlambda(
    network: Network, op: OperatingPoint, mode: modal.Mode, plan: RedispatchPlan
) -> complex:
    """dlambda/dr for a unit application of the plan, via the full chain."""
    bundle, report = _sensitivity(network, op, mode)
    return sensitivity.dlambda(report, flow_response(network, bundle.L, plan))


def match_mode(
    reference: modal.Mode, candidates: list[modal.Mode] | tuple[modal.Mode, ...]
) -> modal.Mode:
    """Pick the oscillatory candidate whose eigenvector correlates best.

    Correlation is |conj(x_ref) . x| / (|x_ref| |x|); a gap below 0.1 between
    the two best candidates is treated as ambiguous.
    """
    pool = [md for md in candidates if md.omega > 0]
    if not pool:
        raise ModeMatchingError("no oscillatory modes in the re-solved spectrum")
    X = np.array([md.x for md in pool])
    x_ref = reference.x
    scores = np.abs(X @ np.conj(x_ref)) / (np.linalg.norm(x_ref) * np.linalg.norm(X, axis=1))
    order = np.argsort(-scores, kind="stable")
    if len(pool) > 1 and scores[order[0]] - scores[order[1]] < MATCH_AMBIGUITY_GAP:
        raise ModeMatchingError(
            f"ambiguous mode match: correlations {scores[order[0]]:.3f} "
            f"vs {scores[order[1]]:.3f}"
        )
    return pool[order[0]]


def exact_mode(
    network: Network, op: OperatingPoint, mode: modal.Mode, plan: RedispatchPlan,
    r: float,
) -> complex:
    """Eigenvalue of ``mode`` tracked through a full re-solve at redispatch r,
    in the mode's own voltage model."""
    const_v = angle_only(network, mode)
    if r == 0.0:
        return mode.lam
    shifted = network.with_redispatch(r * plan.dp)
    st = build_study(shifted, const_v=const_v, initial=op)
    return match_mode(mode, st.modes).lam


def sweep(
    network: Network,
    op: OperatingPoint,
    mode: modal.Mode,
    plan: RedispatchPlan,
    r_values,
    const_v: bool | None = None,
) -> list[ModePrediction]:
    """One prediction per redispatch amount; oracle failures recorded per row.

    The voltage model is the mode's; a ``const_v`` naming the other one is
    rejected.
    """
    if const_v not in (None, angle_only(network, mode)):
        raise UsageError("const_v disagrees with the voltage model of the mode")
    slope = unit_dlambda(network, op, mode, plan)
    rows = []
    for r in map(float, r_values):
        approx = mode.lam + r * slope
        exact, failure = None, None
        try:
            exact = exact_mode(network, op, mode, plan, r)
        except (ConvergenceError, OracleError) as exc:
            failure = str(exc)
        rows.append(ModePrediction(
            r=r, lambda_approx=approx, lambda_exact=exact,
            error=None if exact is None else abs(exact - approx),
            oracle_failure=failure,
        ))
    return rows


def generator_gains(
    L: np.ndarray, report: sensitivity.SensitivityReport, m: int
) -> np.ndarray:
    """dlambda/dr per generator for a unit shift from generator 1 to it.

    The shift's response dz_k solves L dz_k = e_k - e_1 with the bus-1 angle
    pinned to zero, so by the symmetry of L, c . dz_k = y_k for the adjoint
    L y = c (same pin), c being the report's state covector. The real and
    imaginary parts of c are solved in one real factorization; L need not be
    definite. Entry 0 of the result (generator 1 against itself) is zero, and
    the plan moving one unit from ``down`` to ``up`` has
    dlambda = g[up] - g[down].
    """
    c = report.state_coeff
    y = np.zeros(L.shape[0], dtype=complex)
    try:
        parts = scipy.linalg.solve(
            L[1:, 1:], np.column_stack([c.real[1:], c.imag[1:]]), check_finite=False)
    except np.linalg.LinAlgError:
        raise SingularityError(
            "linearized load flow is singular beyond the angle-reference nullspace"
        ) from None
    y[1:] = parts[:, 0] + 1j * parts[:, 1]
    _check_in_range(L, y, c)
    return np.concatenate([[0.0], -y[1:m] / report.alpha])


def rank_pairs(
    network: Network, op: OperatingPoint, mode: modal.Mode
) -> list[PairSensitivity]:
    """Unit-r sensitivities for every ordered generator pair, best damping first.

    Each pair is the difference of two per-generator gains from
    ``generator_gains``, so the whole ranking costs one grounded solve.
    """
    if network.m < 2:
        raise ValidationError("pair ranking needs at least two generators")
    bundle, report = _sensitivity(network, op, mode)
    gains = generator_gains(bundle.L, report, network.m)
    sigma, omega = mode.sigma, mode.omega
    mag3 = (sigma * sigma + omega * omega) ** 1.5
    labels = network.gen_labels()
    out = []
    for i, up in enumerate(labels):
        for j, down in enumerate(labels):
            if i == j:
                continue
            dl = complex(gains[i] - gains[j])
            dzeta = (-omega * omega * dl.real + sigma * omega * dl.imag) / mag3
            out.append(PairSensitivity(
                up=up, down=down, dlambda_dr=dl,
                dsigma_dr=dl.real, domega_dr=dl.imag, dzeta_dr=dzeta,
            ))
    out.sort(key=lambda p: (-p.dzeta_dr, p.up, p.down))
    return out
