"""Redispatch chain: dP -> dz -> dlambda, predictions, rankings.

dlambda is the state covector c of the sensitivity report applied to the
state move dz, -c . dz / alpha, everything read off one ``Study`` (network,
op). The forward chain (``unit_dlambda``, used only by ``verify`` and the
fixture checks of ``cases``) takes the caller's study and solves the
linearized load flow L dz = (dP, 0) with the least-squares pseudo-inverse.
``rank`` and ``sweep`` solve the adjoint (``generator_gains``) on a study
of their (network, op) that is never eigensolved: with the bus-1 angle
pinned (the uniform-angle vector is the only nullspace of the symmetric L),
one solve L y = c on the study's ``grounded_factor`` gives the gain
g_k = -y_k / alpha of the shift from generator 1 to generator k. Every
ordered pair is g_up - g_down, and a plan's slope is dp . g. Either way the
right-hand side must lie in the range of the singular Laplacian, so the
residual is checked rather than assumed. The first-order eigenvalue formula
is evaluated once at the base point; predictions for finite r are
lambda + r * dlambda and are compared against the exact eigenvalue at r.
The voltage model is the one the operating point records; every entry point
refuses a mode of the other one (``modal.angle_only``), before any solve.

Every re-solve goes through one ``ModePath``, whose study builds the dynamic
matrices once, on construction: ``sweep`` has one for its slope and rows,
the finite-difference oracle one for its two steps. A re-solve at r is one
power flow and one Hessian. ``exact`` eigensolves it (``modal.eigenpairs``,
with every check of a whole study) and runs ``match_mode``, building no
bundle and no ``Mode`` summaries; the oracle uses it as it is. A ``sweep``
row (``tracked``) follows the mode by Newton's method from the base pair
instead, under three guards (convergence, the backward-error gate, the
eigenvector correlation), and falls back to ``exact``'s eigensolve and
match of that same Hessian.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modal, sensitivity
from .errors import (
    ModeMatchingError,
    OscdampError,
    SingularityError,
    UsageError,
    ValidationError,
)
from .network import Network, OperatingPoint, _Unbalanced, hessian_matrix, solve_power_flow
from .study import Study

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
        dp = np.array(self.dp, dtype=float)  # a copy, so the caller cannot unbalance it
        dp.flags.writeable = False
        object.__setattr__(self, "dp", dp)
        if not np.all(np.isfinite(dp)):
            raise ValidationError("redispatch plan has a non-finite entry")
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
    oracle_failure: str | None = None

    @property
    def error(self) -> float | None:
        """|lambda_exact - lambda_approx|, None where the re-solve failed."""
        return None if self.lambda_exact is None else abs(self.lambda_exact - self.lambda_approx)


@dataclass(frozen=True)
class PairSensitivity:
    up: str
    down: str
    dlambda_dr: complex  # real part d(sigma)/dr, imaginary part d(omega)/dr
    dzeta_dr: float


def _check_in_range(L: np.ndarray, dz: np.ndarray, rhs: np.ndarray) -> None:
    """Raise unless L dz = rhs holds; NaN fails the check."""
    resid = np.linalg.norm(L @ dz - rhs)
    if not resid <= FLOW_RESIDUAL_TOL * max(1.0, np.linalg.norm(rhs)):
        raise SingularityError(
            f"right-hand side not in the range of L (residual {resid:.3e}); "
            "equilibrium is near a singularity"
        )


def check_plan_size(network: Network, plan: RedispatchPlan) -> None:
    """Raise unless the plan has one entry per generator of the network."""
    if plan.dp.shape != (network.m,):
        raise ValidationError(
            f"plan has {plan.dp.size} entries, network has {network.m} generators")


def flow_response(study: Study, plan: RedispatchPlan) -> np.ndarray:
    """Linearized load-flow response dz = L^+ (dP, 0) for a balanced plan,
    with L the Hessian of the study's bundle.

    The angle part comes back in the gauge the pseudo-inverse delivers (zero
    component along the uniform-angle nullvector); dlambda is gauge-invariant
    anyway.
    """
    check_plan_size(study.network, plan)
    L = study.bundle.L
    rhs = np.zeros(L.shape[0])
    rhs[:study.network.m] = plan.dp
    dz = np.linalg.pinv(L, rcond=PINV_RCOND) @ rhs
    _check_in_range(L, dz, rhs)
    return dz


def unit_dlambda(study: Study, mode: modal.Mode, plan: RedispatchPlan) -> complex:
    """dlambda/dr for a unit application of the plan, via the forward chain
    on the study's bundle; ``mode`` must come from the study's voltage model."""
    report = sensitivity.sensitivity_coefficients(study, mode)
    return sensitivity.dlambda(report, flow_response(study, plan))


def _correlations(x_ref: np.ndarray, X: np.ndarray) -> np.ndarray:
    """|conj(x_ref) . x| / (|x_ref| |x|) for each row x of X."""
    return np.abs(X @ np.conj(x_ref)) / (np.linalg.norm(x_ref) * np.linalg.norm(X, axis=1))


def match_mode(reference: modal.Mode, lams: np.ndarray, X: np.ndarray) -> int:
    """Index of the oscillatory candidate whose eigenvector correlates best.

    The candidates are eigenvalues ``lams`` with eigenvectors the rows of
    ``X``, in the order of ``modal.eigenpairs`` and ``solve_qep`` (by
    omega, then sigma), which breaks ties. Correlation is
    |conj(x_ref) . x| / (|x_ref| |x|); a gap below 0.1 between the two best
    candidates is treated as ambiguous.
    """
    pool = np.flatnonzero(lams.imag > 0)
    if not pool.size:
        raise ModeMatchingError("no oscillatory modes in the re-solved spectrum")
    scores = _correlations(reference.x, X[pool])
    order = np.argsort(-scores, kind="stable")
    if pool.size > 1 and scores[order[0]] - scores[order[1]] < MATCH_AMBIGUITY_GAP:
        raise ModeMatchingError(
            f"ambiguous mode match: correlations {scores[order[0]]:.3f} "
            f"vs {scores[order[1]]:.3f}"
        )
    return int(pool[order[0]])


class ModePath:
    """``mode`` followed from ``op`` along the redispatch ``plan``, in the voltage
    model ``op`` records (``modal.angle_only``). Redispatch moves neither M nor
    D, so the path's ``Study(network, op)`` builds them once, on
    construction, and its slope reads that study's bundle. Every re-solve at
    r starts its power flow from ``op`` and its Newton iteration from the
    base pair; at r = 0 it is ``mode.lam``."""

    def __init__(self, network: Network, op: OperatingPoint, mode: modal.Mode,
                 plan: RedispatchPlan):
        check_plan_size(network, plan)
        modal.angle_only(network, op, mode)
        self.study, self.mode, self.plan = Study(network, op), mode, plan
        self.study.dyn  # built here, so a refused coefficient fails the construction

    def slope(self) -> complex:
        """dlambda/dr for a unit application of the plan, as the plan's sum of
        ``generator_gains``: one bundle and one grounded Cholesky solve."""
        return complex(self.plan.dp @ generator_gains(self.study, self.mode))

    def _hessian_at(self, r: float) -> np.ndarray:
        """Hessian of the grid redispatched by r, at its power flow solved from ``op``."""
        op = self.study.op
        try:
            shifted = self.study.network.with_redispatch(r * self.plan.dp)
        except _Unbalanced as exc:  # a balance check, which the unshifted grid passes
            raise ValidationError(
                f"real power does not balance: redispatching by r = {r:g} lost the balance to "
                f"rounding (sum of injections = {exc.imbalance:.3e})") from None
        return hessian_matrix(shifted, solve_power_flow(shifted, initial=op, const_v=op.const_v))

    def _matched(self, L: np.ndarray) -> complex:
        """The eigenvalue ``match_mode`` picks for the mode out of a whole
        eigensolve of the Hessian L."""
        dyn = self.study.dyn
        pairs = modal.eigenpairs(dyn.m, dyn.d, L, n_angles=self.study.network.n)
        return complex(pairs.lams[match_mode(self.mode, pairs.lams, pairs.X)])

    def exact(self, r: float) -> complex:
        """Eigenvalue of the mode at redispatch r by a QZ re-solve and ``match_mode``."""
        if r == 0.0:
            return self.mode.lam
        return self._matched(self._hessian_at(r))

    def tracked(self, r: float) -> complex:
        """Eigenvalue of the mode at redispatch r, followed from the base pair.

        ``modal.newton_eigenpair`` starts from (lam, x) of the base mode, never
        from the first-order prediction, and holds the largest entry of x
        fixed. Its pair is taken if Newton converges, the pair passes the
        MODE_RESIDUAL_REL backward-error gate and its eigenvector correlates
        with the base one to at least 1 - MATCH_AMBIGUITY_GAP; otherwise the
        value is ``exact``'s eigensolve and ``match_mode`` of the same Hessian.
        """
        if r == 0.0:
            return self.mode.lam
        L, x, dyn = self._hessian_at(r), self.mode.x, self.study.dyn
        pair = modal.newton_eigenpair(self.mode.lam, x, dyn.m, dyn.d, L,
                                      int(np.argmax(np.abs(x))))
        if pair is not None:
            lam, x_r, residual = pair
            if (residual <= modal.MODE_RESIDUAL_REL
                    and _correlations(x, x_r[None])[0] >= 1.0 - MATCH_AMBIGUITY_GAP):
                return lam
        return self._matched(L)


def sweep(
    network: Network,
    op: OperatingPoint,
    mode: modal.Mode,
    plan: RedispatchPlan,
    r_values,
    const_v: bool | None = None,
) -> list[ModePrediction]:
    """One prediction per redispatch amount; re-solve failures recorded per row.

    One ``ModePath`` gives the slope and every row's ``tracked`` eigenvalue,
    so a row that ``match_mode`` would find ambiguous can get a value. Any
    package error of the re-solve at r, as in the finite-difference oracle,
    is the row's failure and leaves the other rows standing. The slope is the
    plan's sum of ``generator_gains``, so a saddle raises the ``SingularityError``
    of ``Study.grounded_factor``. The voltage model is ``op``'s and the mode's;
    a ``const_v`` naming the other one is rejected.
    """
    if const_v not in (None, modal.angle_only(network, op, mode)):
        raise UsageError("const_v disagrees with the voltage model of the mode")
    r_values = [float(r) for r in r_values]
    if not np.all(np.isfinite(r_values)):
        raise UsageError("redispatch amounts must be finite")
    path = ModePath(network, op, mode, plan)
    slope = path.slope()
    rows = []
    for r in r_values:
        approx = mode.lam + r * slope
        exact, failure = None, None
        try:
            exact = path.tracked(r)
        except OscdampError as exc:
            failure = str(exc)
        rows.append(ModePrediction(r=r, lambda_approx=approx, lambda_exact=exact,
                                   oracle_failure=failure))
    return rows


def generator_gains(study: Study, mode: modal.Mode) -> np.ndarray:
    """dlambda/dr of ``mode`` per generator for a unit shift from generator 1
    to it, at the study's state.

    The shift's response dz_k solves L dz_k = e_k - e_1 with the bus-1 angle
    pinned to zero, so by the symmetry of L, c . dz_k = y_k for the adjoint
    L y = c (same pin), c being the state covector of the mode's sensitivity
    report, with L the Hessian of the study's bundle. The real and
    imaginary parts of c are solved in one LAPACK ``dpotrs`` call on the
    study's ``grounded_factor``, which raises ``SingularityError`` at a
    singular equilibrium or a saddle of the energy function. Entry 0 of the
    result (generator 1 against itself) is zero, and the plan moving one
    unit from ``down`` to ``up`` has dlambda = g[up] - g[down].
    """
    report = sensitivity.sensitivity_coefficients(study, mode)
    L, c = study.bundle.L, report.state_coeff
    y = np.zeros(L.shape[0], dtype=complex)
    parts, _ = modal._DPOTRS(study.grounded_factor,
                             np.column_stack([c.real[1:], c.imag[1:]]), lower=0)
    y[1:] = parts[:, 0] + 1j * parts[:, 1]
    _check_in_range(L, y, c)
    return np.concatenate([[0.0], -y[1:study.network.m] / report.alpha])


def rank_pairs(
    network: Network, op: OperatingPoint, mode: modal.Mode
) -> list[PairSensitivity]:
    """Unit-r sensitivities for every ordered generator pair, best damping first.

    Each pair is the difference of two per-generator gains from
    ``generator_gains``, so the whole ranking costs one grounded solve.
    """
    if network.m < 2:
        raise ValidationError("pair ranking needs at least two generators")
    gains = generator_gains(Study(network, op), mode)
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
            out.append(PairSensitivity(up=up, down=down, dlambda_dr=dl, dzeta_dr=dzeta))
    out.sort(key=lambda p: (-p.dzeta_dr, p.up, p.down))
    return out
