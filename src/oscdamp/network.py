"""Static network description, grid-file parsing, and the lossless AC power flow.

The model is the structure-preserving one: every bus keeps its voltage angle
as a coordinate, load buses additionally keep their voltage magnitude, and
generator voltage magnitudes are fixed parameters. All line and bus data are
per unit; inertia and damping are in seconds and are converted to dynamic
coefficients elsewhere (2h/omega0 and d/omega0).

Sign conventions, fixed here once and relied on everywhere else:

* b_k > 0 is the absolute susceptance of line k (b = 1/x for a pure
  reactance),
* the diagonal admittance term b_ii is the *signed* sum of incident line
  susceptances, i.e. b_ii = -sum_k b_k, which is what makes the flat state an
  equilibrium of the zero-injection network,
* load demand is recorded positive in grid files; internal net injections are
  P_i = p_gen - p_load and Q_i = -q_load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    GridFormatError,
    SingularityError,
    ValidationError,
)

DEFAULT_OMEGA0 = 2.0 * math.pi * 60.0

POWER_BALANCE_TOL = 1e-9
PF_ACCEPT_TOL = 1e-10
PF_ACCEPT_ULPS = 64
PF_TARGET_TOL = 1e-13
PF_MAX_ITER = 50


@dataclass(frozen=True)
class Bus:
    """One bus. ``index`` is 1-based; generators occupy 1..m, loads m+1..n."""

    label: str
    index: int
    kind: str  # "G" or "L"
    v_set: float = 1.0
    p_gen: float = 0.0
    p_load: float = 0.0
    q_load: float = 0.0
    inertia_h: float = 0.0
    damping_d_seconds: float = 0.0

    @property
    def is_generator(self) -> bool:
        return self.kind == "G"


@dataclass(frozen=True)
class Line:
    """One lossless line; ``from_bus``/``to_bus`` are 1-based bus indices."""

    label: str
    index: int
    from_bus: int
    to_bus: int
    b: float


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    omega0: float = DEFAULT_OMEGA0

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def m(self) -> int:
        return sum(1 for b in self.buses if b.is_generator)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def injections(self) -> tuple[np.ndarray, np.ndarray]:
        """Net (P, Q) injection vectors over all buses, load-demand sign folded in."""
        p = np.array([b.p_gen - b.p_load for b in self.buses])
        q = np.array([-b.q_load for b in self.buses])
        return p, q

    def gen_labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.buses if b.is_generator)

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based (from, to) bus positions, one entry per line in line order."""
        f = np.array([ln.from_bus - 1 for ln in self.lines], dtype=int)
        t = np.array([ln.to_bus - 1 for ln in self.lines], dtype=int)
        return f, t

    def susceptances(self) -> np.ndarray:
        """Line susceptances b_k in line order."""
        return np.array([ln.b for ln in self.lines], dtype=float)

    def with_redispatch(self, dp: np.ndarray) -> "Network":
        """Return a copy with generator outputs shifted by ``dp`` (one entry per generator)."""
        dp = np.asarray(dp, dtype=float)
        if dp.shape != (self.m,):
            raise ValidationError(
                f"redispatch vector has shape {dp.shape}, expected ({self.m},)"
            )
        buses = list(self.buses)
        for g in range(self.m):
            buses[g] = replace(buses[g], p_gen=buses[g].p_gen + dp[g])
        return Network(buses=tuple(buses), lines=self.lines, omega0=self.omega0)


@dataclass(frozen=True)
class OperatingPoint:
    """Bus angles (rad, delta[0] = 0 reference) and load voltage magnitudes."""

    delta: np.ndarray
    v_load: np.ndarray
    residual_norm: float = math.nan


@dataclass(frozen=True)
class LineState:
    """Per-line angle, log-voltage-product, and the flow pair (p, q)."""

    theta: np.ndarray
    nu: np.ndarray
    p: np.ndarray
    q: np.ndarray


# ---------------------------------------------------------------------------
# Grid file parsing
# ---------------------------------------------------------------------------

def _parse_kv(tokens: list[str], lineno: int) -> dict[str, float]:
    out: dict[str, float] = {}
    for tok in tokens:
        if "=" not in tok:
            raise GridFormatError(f"line {lineno}: expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        try:
            out[key] = float(val)
        except ValueError:
            raise GridFormatError(
                f"line {lineno}: {key}={val!r} is not a number"
            ) from None
        if not math.isfinite(out[key]):
            raise GridFormatError(f"line {lineno}: {key}={val!r} is not a finite number")
    return out


def parse_grid_file(text: str) -> Network:
    """Parse the line-oriented grid format and validate the resulting network.

    Buses are re-indexed so that all generators precede all loads (file order
    preserved within each group); line records may give either ``b=`` or
    ``x=`` (b = 1/x).
    """
    omega0 = DEFAULT_OMEGA0
    raw_buses: list[Bus] = []
    raw_lines: list[tuple[int, str, str, str, float]] = []
    seen_bus: set[str] = set()
    seen_line: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        rec = tokens[0]
        if rec == "system":
            kv = _parse_kv(tokens[1:], lineno)
            if "omega0" in kv:
                if kv["omega0"] <= 0:
                    raise GridFormatError(f"line {lineno}: omega0 must be positive")
                omega0 = kv["omega0"]
        elif rec == "bus":
            if len(tokens) < 3:
                raise GridFormatError(f"line {lineno}: bus record needs a label and a kind")
            label, kind = tokens[1], tokens[2]
            if label in seen_bus:
                raise GridFormatError(f"line {lineno}: duplicate bus label {label!r}")
            seen_bus.add(label)
            kv = _parse_kv(tokens[3:], lineno)
            if kind == "G":
                unknown = set(kv) - {"V", "Pg", "H", "D"}
                if unknown:
                    raise GridFormatError(
                        f"line {lineno}: unknown generator fields {sorted(unknown)}"
                    )
                if "V" not in kv:
                    raise GridFormatError(f"line {lineno}: generator bus needs V=")
                if "H" not in kv:
                    raise GridFormatError(f"line {lineno}: generator bus needs H=")
                raw_buses.append(Bus(
                    label=label, index=0, kind="G",
                    v_set=kv["V"], p_gen=kv.get("Pg", 0.0),
                    inertia_h=kv["H"], damping_d_seconds=kv.get("D", 0.0),
                ))
            elif kind == "L":
                unknown = set(kv) - {"Pl", "Ql", "D"}
                if unknown:
                    raise GridFormatError(
                        f"line {lineno}: unknown load fields {sorted(unknown)}"
                    )
                raw_buses.append(Bus(
                    label=label, index=0, kind="L",
                    p_load=kv.get("Pl", 0.0), q_load=kv.get("Ql", 0.0),
                    damping_d_seconds=kv.get("D", 0.0),
                ))
            else:
                raise GridFormatError(f"line {lineno}: bus kind must be G or L, got {kind!r}")
        elif rec == "line":
            if len(tokens) < 5:
                raise GridFormatError(
                    f"line {lineno}: line record needs label, endpoints and b= or x="
                )
            label, frm, to = tokens[1], tokens[2], tokens[3]
            if label in seen_line:
                raise GridFormatError(f"line {lineno}: duplicate line label {label!r}")
            seen_line.add(label)
            kv = _parse_kv(tokens[4:], lineno)
            if ("b" in kv) == ("x" in kv):
                raise GridFormatError(
                    f"line {lineno}: give exactly one of b= or x="
                )
            b = kv["b"] if "b" in kv else (1.0 / kv["x"] if kv["x"] != 0 else math.inf)
            raw_lines.append((lineno, label, frm, to, b))
        else:
            raise GridFormatError(f"line {lineno}: unknown record type {rec!r}")

    if not raw_buses:
        raise GridFormatError("no bus records found")

    # Re-index: generators first, loads after, original order kept within groups.
    ordered = [b for b in raw_buses if b.is_generator] + \
              [b for b in raw_buses if not b.is_generator]
    buses = tuple(replace(b, index=i + 1) for i, b in enumerate(ordered))
    idx = {b.label: b.index for b in buses}

    lines = []
    for k, (lineno, label, frm, to, b) in enumerate(raw_lines):
        for lab in (frm, to):
            if lab not in idx:
                raise GridFormatError(f"line {lineno}: unknown bus {lab!r}")
        lines.append(Line(label=label, index=k + 1,
                          from_bus=idx[frm], to_bus=idx[to], b=b))

    network = Network(buses=buses, lines=tuple(lines), omega0=omega0)
    validate_network(network)
    return network


def validate_network(network: Network) -> None:
    """Raise ValidationError on any violated structural invariant."""
    n, m = network.n, network.m
    for bus in network.buses:
        values = (bus.v_set, bus.p_gen, bus.p_load, bus.q_load,
                  bus.inertia_h, bus.damping_d_seconds)
        if not all(math.isfinite(x) for x in values):
            raise ValidationError(f"bus {bus.label!r} has a non-finite value")
        if bus.damping_d_seconds < 0:
            raise ValidationError(f"bus {bus.label!r} needs damping D >= 0")
        if bus.is_generator:
            if not bus.inertia_h > 0:
                raise ValidationError(f"generator bus {bus.label!r} needs inertia H > 0")
            if not bus.v_set > 0:
                raise ValidationError(f"generator bus {bus.label!r} needs V > 0")
        elif bus.inertia_h != 0:
            raise ValidationError(f"load bus {bus.label!r} must have zero inertia")
    for ln in network.lines:
        if ln.b <= 0 or not math.isfinite(ln.b):
            raise ValidationError(f"line {ln.label!r} needs a positive finite susceptance")
        if ln.from_bus == ln.to_bus:
            raise ValidationError(f"line {ln.label!r} joins a bus to itself")
        if ln.from_bus <= m and ln.to_bus <= m:
            raise ValidationError(
                f"line {ln.label!r} joins two generator buses; model generators "
                "behind a common step-up transformer as one bus instead"
            )
    # Connectivity.
    if n > 0:
        adjacency: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
        for ln in network.lines:
            adjacency[ln.from_bus].add(ln.to_bus)
            adjacency[ln.to_bus].add(ln.from_bus)
        seen = {1}
        stack = [1]
        while stack:
            for j in adjacency[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            labels = [network.buses[i - 1].label for i in missing]
            raise ValidationError(f"network graph is disconnected; unreachable buses {labels}")
    p, _ = network.injections()
    imbalance = float(np.sum(p))
    if not abs(imbalance) <= POWER_BALANCE_TOL:
        raise ValidationError(
            f"real power does not balance: sum of injections = {imbalance:.3e} "
            "(the lossless model has no slack bus)"
        )


# ---------------------------------------------------------------------------
# Incidence and per-line/state quantities
# ---------------------------------------------------------------------------

def build_incidence(network: Network) -> tuple[np.ndarray, np.ndarray]:
    """Signed and unsigned bus-line incidence matrices, each n x ell."""
    f, t = network.endpoints()
    k = np.arange(network.n_lines)
    A = np.zeros((network.n, network.n_lines))
    A[f, k] = 1.0
    A[t, k] = -1.0
    return A, np.abs(A)


def flat_start(network: Network) -> OperatingPoint:
    return OperatingPoint(
        delta=np.zeros(network.n),
        v_load=np.ones(network.n - network.m),
    )


def bus_voltages(network: Network, op: OperatingPoint) -> np.ndarray:
    """Voltage magnitudes over all buses: fixed set-points then load states."""
    v_set = [b.v_set for b in network.buses[:network.m]]
    return np.concatenate([v_set, op.v_load])


def line_states(network: Network, op: OperatingPoint) -> LineState:
    """Per-line theta, nu = ln(V_i V_j), and the flows p = b e^nu sin(theta),
    q = -b e^nu cos(theta)."""
    v = bus_voltages(network, op)
    if np.any(v <= 0):
        raise DomainError("nonpositive voltage magnitude; ln V undefined")
    f, t = network.endpoints()
    theta = op.delta[f] - op.delta[t]
    nu = np.log(v[f] * v[t])
    b = network.susceptances()
    p = b * np.exp(nu) * np.sin(theta)
    q = -b * np.exp(nu) * np.cos(theta)
    return LineState(theta=theta, nu=nu, p=p, q=q)


def _onto_buses(
    network: Network,
    at_from: np.ndarray,
    at_to: np.ndarray,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Per-bus sums of per-line values, added onto ``start`` (default zeros):
    line k adds ``at_from[k]`` to its from-bus and ``at_to[k]`` to its to-bus.

    ``np.add.at`` is unbuffered, so each bus receives its terms in line order,
    from-end before to-end. ``A @ v`` would reorder the sums and move
    roundoff-level digits that the CLI prints.
    """
    f, t = network.endpoints()
    out = np.zeros(network.n) if start is None else np.array(start, dtype=float)
    np.add.at(out, np.column_stack([f, t]).ravel(),
              np.column_stack([at_from, at_to]).ravel())
    return out


def incident_b_sums(network: Network) -> np.ndarray:
    """sum of b_k over lines incident to each bus (= -b_ii)."""
    b = network.susceptances()
    return _onto_buses(network, b, b)


def potential_energy(network: Network, op: OperatingPoint) -> float:
    """Scalar energy function R at the given state (bus-coordinate evaluation).

    The line part is -sum b V_i V_j cos(delta_i - delta_j); the bus part is
    -sum (P_i delta_i + 0.5 b_ii V_i^2 + Q_i ln V_i) with b_ii = -sum of
    incident susceptances.
    """
    v = bus_voltages(network, op)
    if np.any(v <= 0):
        raise DomainError("nonpositive voltage magnitude; ln V undefined")
    p_inj, q_inj = network.injections()
    f, t = network.endpoints()
    d = op.delta
    line_part = np.sum(network.susceptances() * v[f] * v[t] * np.cos(d[f] - d[t]))
    bii = -incident_b_sums(network)
    bus_part = np.sum(p_inj * d + 0.5 * bii * v ** 2 + q_inj * np.log(v))
    return float(-line_part - bus_part)


def residual_vectors(
    network: Network, op: OperatingPoint
) -> tuple[np.ndarray, np.ndarray]:
    """Steady-state power balance residuals (the gradient of R).

    Returns (real over all buses, reactive over load buses); the reactive
    residual is the voltage-scaled form, i.e. dR/dV_i.
    """
    ls = line_states(network, op)
    p_inj, q_inj = network.injections()
    v = bus_voltages(network, op)
    real = _onto_buses(network, ls.p, -ls.p, start=-p_inj)
    qsum = _onto_buses(network, ls.q, ls.q)
    b_sum = incident_b_sums(network)
    loads = np.arange(network.m, network.n)
    reactive = qsum[loads] / v[loads] + b_sum[loads] * v[loads] - q_inj[loads] / v[loads]
    return real, reactive


def hessian_matrix(network: Network, op: OperatingPoint, const_v: bool = False) -> np.ndarray:
    """Weighted-Laplacian Hessian of R in bus coordinates at the given state.

    State ordering is (delta_1..delta_n, V_{m+1}..V_n); with ``const_v`` the
    voltage block is absent and the matrix is the n x n angle Hessian at the
    frozen voltage profile.
    """
    n, m = network.n, network.m
    v = bus_voltages(network, op)
    d = op.delta
    size = n if const_v else 2 * n - m
    f, t = network.endpoints()
    w = network.susceptances() * v[f] * v[t]
    wc = w * np.cos(d[f] - d[t])
    ws = w * np.sin(d[f] - d[t])
    sf, st, c, zero = ws / v[f], ws / v[t], -(wc / (v[f] * v[t])), np.zeros_like(w)
    # The Hessian of line k's term -b V_f V_t cos(delta_f - delta_t) over
    # (delta_f, delta_t, V_f, V_t); a V coordinate exists only at a load end.
    block = np.moveaxis(np.array([[wc, -wc, sf, st],
                                  [-wc, wc, -sf, -st],
                                  [sf, -sf, zero, c],
                                  [st, -st, c, zero]]), -1, 0)
    k = 2 if const_v else 4
    coord = np.stack([f, t, n + f - m, n + t - m], axis=1)[:, :k]
    every = np.ones(f.size, dtype=bool)
    exists = np.stack([every, every, f >= m, t >= m], axis=1)[:, :k]
    keep = exists[:, :, None] & exists[:, None, :]
    # Line-major, so that as in _onto_buses each entry sums its terms in line order.
    L = np.zeros((size, size))
    np.add.at(L, (np.broadcast_to(coord[:, :, None], keep.shape)[keep],
                  np.broadcast_to(coord[:, None, :], keep.shape)[keep]),
              block[:, :k, :k][keep])
    if not const_v:
        _, q_inj = network.injections()
        diag = np.arange(n, size)
        L[diag, diag] += incident_b_sums(network)[m:] + q_inj[m:] / v[m:] ** 2
    return L


# ---------------------------------------------------------------------------
# Power flow
# ---------------------------------------------------------------------------

def solve_power_flow(
    network: Network,
    initial: OperatingPoint | None = None,
    const_v: bool = False,
    max_iter: int = PF_MAX_ITER,
) -> OperatingPoint:
    """Newton solve of the lossless power flow from a flat (or given) start.

    The state is z = (delta - delta_1, V_load), or the angles alone under
    ``const_v``, which keeps the voltages of the start. The angle reference
    z_1 = 0 is pinned and the bus-1 real-power equation dropped (redundant
    under exact balance). Steps are halved when the residual norm would
    increase. The iteration targets well below the acceptance tolerance so
    downstream finite differencing stays clean, but stops once the residual
    is accepted and a step no longer lowers it. The residual is accepted at
    PF_ACCEPT_TOL, or at PF_ACCEPT_ULPS roundoff units of the largest
    incident susceptance sum when that is larger: the line terms of a stiff
    grid cancel to no better than that.
    """
    n = network.n
    op = initial if initial is not None else flat_start(network)
    z = op.delta - op.delta[0]
    if not const_v:
        z = np.concatenate([z, op.v_load])

    def point(z: np.ndarray) -> OperatingPoint:
        return OperatingPoint(delta=z[:n], v_load=op.v_load if const_v else z[n:])

    def residual(z: np.ndarray) -> np.ndarray:
        # Real then reactive balance; the reactive part has no unknowns under const_v.
        return np.concatenate(residual_vectors(network, point(z)))[:z.size]

    res = residual(z)
    norm = float(np.max(np.abs(res)))
    tol = max(PF_ACCEPT_TOL,
              PF_ACCEPT_ULPS * np.finfo(float).eps * float(np.max(incident_b_sums(network))))
    for _ in range(max_iter):
        if norm < PF_TARGET_TOL:
            break
        J = hessian_matrix(network, point(z), const_v=const_v)[1:, 1:]
        try:
            step = np.linalg.solve(J, res[1:])
        except np.linalg.LinAlgError:
            raise SingularityError(
                "power-flow Jacobian is singular beyond the angle-reference nullspace"
            ) from None
        if not np.all(np.isfinite(step)):
            raise SingularityError(
                "power-flow Jacobian is singular beyond the angle-reference nullspace"
            )
        scale, improved = 1.0, False
        for _halving in range(40):
            z_try = z.copy()
            z_try[1:] -= scale * step
            if not np.any(z_try[n:] <= 0):
                res_try = residual(z_try)
                norm_try = float(np.max(np.abs(res_try)))
                improved = norm_try < norm
                # An accepted residual that a step cannot lower is at roundoff.
                if improved or norm <= tol:
                    break
            scale *= 0.5
        if not improved:
            break  # no progress possible; the final check below decides
        z, res, norm = z_try, res_try, norm_try
    if not norm <= tol:
        raise ConvergenceError(
            f"power flow did not converge: residual max-norm {norm:.3e} > {tol:.1e}",
            residual=norm,
        )
    return replace(point(z), residual_norm=norm)
