"""Static network description, grid-file parsing, and the lossless AC power flow.

The model is the structure-preserving one: every bus keeps its voltage angle
as a coordinate, load buses additionally keep their voltage magnitude, and
generator voltage magnitudes are fixed parameters. All line and bus data are
per unit; inertia and damping are in seconds and are converted to dynamic
coefficients elsewhere (2h/omega0 and d/omega0).

A ``Network`` is valid from construction (``dataclasses.replace`` included),
and a ``with_redispatch`` copy shares its parent's checked structure.

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
from functools import cached_property

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
    """One bus. Its position in ``Network.buses`` is its index: generators
    occupy positions 1..m, loads m+1..n (1-based)."""

    label: str
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
    """One lossless line; ``from_bus``/``to_bus`` are 1-based positions in
    ``Network.buses``."""

    label: str
    from_bus: int
    to_bus: int
    b: float


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Topology:
    """The arrays of one grid that redispatch cannot change.

    Each depends only on the lines, the bus order and kinds and the generator
    voltage set-points, never on ``p_gen``. Each is built on first use and is
    read-only, so a grid and every ``with_redispatch`` copy of it share one
    ``_Topology``. The bus order is the validated one: generators at 1..m.
    """

    def __init__(self, buses: tuple[Bus, ...], lines: tuple[Line, ...]):
        self.buses, self.lines = buses, lines
        self.n = len(buses)
        self.m = sum(1 for b in buses if b.is_generator)

    @cached_property
    def gen_labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.buses if b.is_generator)

    @cached_property
    def gen_v_set(self) -> np.ndarray:
        return _read_only(np.array([b.v_set for b in self.buses[:self.m]], dtype=float))

    @cached_property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        return (_read_only(np.array([ln.from_bus - 1 for ln in self.lines], dtype=int)),
                _read_only(np.array([ln.to_bus - 1 for ln in self.lines], dtype=int)))

    @cached_property
    def susceptances(self) -> np.ndarray:
        return _read_only(np.array([ln.b for ln in self.lines], dtype=float))

    @cached_property
    def b_sums(self) -> np.ndarray:
        b = self.susceptances
        return _read_only(self.onto_buses(b, b))

    @cached_property
    def _bus_of_end(self) -> np.ndarray:
        """The bus of each line end, interleaved: line k's from-end, then its to-end."""
        return _read_only(np.column_stack(self.endpoints).ravel())

    def onto_buses(
        self, at_from: np.ndarray, at_to: np.ndarray, start: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-bus sums of per-line values, added onto ``start`` (default zeros):
        line k adds ``at_from[k]`` to its from-bus and ``at_to[k]`` to its to-bus.

        ``np.add.at`` is unbuffered, so each bus receives its terms in line order,
        from-end before to-end. ``A @ v`` would reorder the sums and move
        roundoff-level digits that the CLI prints.
        """
        out = np.zeros(self.n) if start is None else np.array(start, dtype=float)
        np.add.at(out, self._bus_of_end, np.column_stack([at_from, at_to]).ravel())
        return out

    @cached_property
    def hessian_scatter(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(take, flat, diag) for ``hessian_matrix``.

        Line k's 4 x 4 block couples (delta_f, delta_t, V_f, V_t); a V
        coordinate exists only at a load end. ``take`` picks the existing
        entries, line-major, out of the flattened (4, 4, ell) block array,
        ``flat`` is the flat position of each in the Hessian and ``diag``
        lists the load-voltage diagonal.
        """
        n, m = self.n, self.m
        size = 2 * n - m
        f, t = self.endpoints
        coord = np.stack([f, t, n + f - m, n + t - m], axis=1)
        every = np.ones(f.size, dtype=bool)
        exists = np.stack([every, every, f >= m, t >= m], axis=1)
        keep = exists[:, :, None] & exists[:, None, :]
        line, row, col = np.nonzero(keep)
        return (_read_only((row * 4 + col) * f.size + line),
                _read_only((coord[:, :, None] * size + coord[:, None, :])[keep]),
                _read_only(np.arange(n, size)))

    @cached_property
    def angle_scatter(self) -> np.ndarray:
        """Flat positions, line-major, of each line's 2 x 2 angle block
        (delta_f, delta_t) in the n x n angle Hessian."""
        f, t = self.endpoints
        coord = np.stack([f, t], axis=1)
        return _read_only((coord[:, :, None] * self.n + coord[:, None, :]).ravel())


@dataclass(frozen=True)
class Network:
    """Buses and lines of one grid.

    The index and injection arrays below are built once per grid, on first
    use, and come back read-only: every caller shares them.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    omega0: float = DEFAULT_OMEGA0

    def __post_init__(self) -> None:
        validate_network(self)

    @cached_property
    def _topology(self) -> _Topology:
        return _Topology(self.buses, self.lines)

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def m(self) -> int:
        return self._topology.m

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @cached_property
    def _injections(self) -> tuple[np.ndarray, np.ndarray]:
        return (_read_only(np.array([b.p_gen - b.p_load for b in self.buses])),
                _read_only(np.array([-b.q_load for b in self.buses])))

    @property
    def _gen_v_set(self) -> np.ndarray:
        return self._topology.gen_v_set

    def injections(self) -> tuple[np.ndarray, np.ndarray]:
        """Net (P, Q) injection vectors over all buses, load-demand sign folded in."""
        return self._injections

    def gen_labels(self) -> tuple[str, ...]:
        return self._topology.gen_labels

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based (from, to) bus positions, one entry per line in line order."""
        return self._topology.endpoints

    def susceptances(self) -> np.ndarray:
        """Line susceptances b_k in line order."""
        return self._topology.susceptances

    def with_redispatch(self, dp: np.ndarray) -> "Network":
        """Return a copy with generator outputs shifted by ``dp`` (one entry per
        generator). The copy shares every array but the injections, and checks
        only that the outputs stay finite and balance, as ``validate_network`` does."""
        dp = np.asarray(dp, dtype=float)
        if dp.shape != (self.m,):
            raise ValidationError(f"redispatch vector has shape {dp.shape}, expected ({self.m},)")
        gens = tuple(Bus(**{**vars(b), "p_gen": b.p_gen + d})
                     for b, d in zip(self.buses, dp.tolist()))
        for bus in gens:
            if not math.isfinite(bus.p_gen):
                raise ValidationError(f"bus {bus.label!r} has a non-finite value")
        # Past __init__ and its validation; _topology is cached_property's slot.
        copy = object.__new__(Network)
        copy.__dict__.update(buses=gens + self.buses[self.m:], lines=self.lines,
                             omega0=self.omega0, _topology=self._topology)
        _check_balance(copy, POWER_BALANCE_TOL)
        return copy


@dataclass(frozen=True)
class OperatingPoint:
    """Bus angles (rad, delta[0] = 0 reference) and load voltage magnitudes, in the
    model ``const_v`` names: True for angle-only, whose load voltages are fixed."""

    delta: np.ndarray
    v_load: np.ndarray
    residual_norm: float = math.nan
    const_v: bool = False


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

# Each record kind: its name in messages, its fields mapped to the Bus or
# Network attribute each sets (an unset one keeps the dataclass default), and
# the fields it requires. A line gives exactly one of b= and x=, and sets b.
_RECORDS: dict[str, tuple[str, dict[str, str], tuple[str, ...]]] = {
    "system": ("system record", {"omega0": "omega0"}, ()),
    "G": ("generator bus",
          {"V": "v_set", "Pg": "p_gen", "H": "inertia_h", "D": "damping_d_seconds"},
          ("V", "H")),
    "L": ("load bus", {"Pl": "p_load", "Ql": "q_load", "D": "damping_d_seconds"}, ()),
    "line": ("line record", {"b": "b", "x": "x"}, ()),
}


def _read_fields(tokens: list[str], kind: str, lineno: int) -> dict[str, float]:
    """Values of the ``key=value`` tokens of one record, keyed by attribute.

    Rejects a field the record kind does not allow, a repeated field, a value
    that is not a finite number, and a missing required field.
    """
    name, fields, required = _RECORDS[kind]
    out: dict[str, float] = {}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq:
            raise GridFormatError(f"line {lineno}: expected key=value, got {tok!r}")
        if key not in fields:
            raise GridFormatError(
                f"line {lineno}: {name} has no field {key!r} (allowed: {' '.join(fields)})"
            )
        if fields[key] in out:
            raise GridFormatError(f"line {lineno}: {key}= given twice")
        try:
            value = float(val)
        except ValueError:
            raise GridFormatError(f"line {lineno}: {key}={val!r} is not a number") from None
        if not math.isfinite(value):
            raise GridFormatError(f"line {lineno}: {key}={val!r} is not a finite number")
        out[fields[key]] = value
    for key in required:
        if fields[key] not in out:
            raise GridFormatError(f"line {lineno}: {name} needs {key}=")
    return out


def parse_grid_file(text: str) -> Network:
    """Parse the line-oriented grid format into a ``Network``, valid from
    construction; its redispatch copies share its checked structure.

    Buses are re-indexed so that all generators precede all loads (file order
    preserved within each group); line records may give either ``b=`` or
    ``x=`` (b = 1/x).
    """
    system: dict[str, float] | None = None
    buses: dict[str, tuple[str, dict[str, float]]] = {}
    lines: dict[str, tuple[int, str, str, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        rec = tokens[0]
        if rec == "system":
            if system is not None:
                raise GridFormatError(f"line {lineno}: second system record")
            system = _read_fields(tokens[1:], "system", lineno)
            if system.get("omega0", DEFAULT_OMEGA0) <= 0:
                raise GridFormatError(f"line {lineno}: omega0 must be positive")
        elif rec == "bus":
            if len(tokens) < 3:
                raise GridFormatError(f"line {lineno}: bus record needs a label and a kind")
            label, kind = tokens[1], tokens[2]
            if label in buses:
                raise GridFormatError(f"line {lineno}: duplicate bus label {label!r}")
            if kind not in ("G", "L"):
                raise GridFormatError(f"line {lineno}: bus kind must be G or L, got {kind!r}")
            buses[label] = (kind, _read_fields(tokens[3:], kind, lineno))
        elif rec == "line":
            if len(tokens) < 4:
                raise GridFormatError(
                    f"line {lineno}: line record needs a label and two endpoints")
            label, frm, to = tokens[1:4]
            if label in lines:
                raise GridFormatError(f"line {lineno}: duplicate line label {label!r}")
            kv = _read_fields(tokens[4:], "line", lineno)
            if len(kv) != 1:
                raise GridFormatError(f"line {lineno}: give exactly one of b= or x=")
            b = kv["b"] if "b" in kv else (1.0 / kv["x"] if kv["x"] != 0 else math.inf)
            lines[label] = (lineno, frm, to, b)
        else:
            raise GridFormatError(f"line {lineno}: unknown record type {rec!r}")

    if not buses:
        raise GridFormatError("no bus records found")
    # Re-index: generators first, loads after, file order kept within groups.
    ordered = sorted(buses, key=lambda label: buses[label][0] != "G")
    idx = {label: i for i, label in enumerate(ordered, start=1)}
    for lineno, frm, to, _ in lines.values():
        for lab in (frm, to):
            if lab not in idx:
                raise GridFormatError(f"line {lineno}: unknown bus {lab!r}")
    return Network(
        buses=tuple(Bus(label=label, kind=buses[label][0], **buses[label][1])
                    for label in ordered),
        lines=tuple(Line(label=label, from_bus=idx[frm], to_bus=idx[to], b=b)
                    for label, (_, frm, to, b) in lines.items()),
        **(system or {}),
    )


def validate_network(network: Network) -> None:
    """Raise ValidationError on any violated invariant; constructing a ``Network`` runs it."""
    n, m = network.n, network.m
    if not network.lines:
        raise ValidationError("grid has no lines")
    if not (math.isfinite(network.omega0) and network.omega0 > 0):
        raise ValidationError(f"omega0 must be positive and finite, got {network.omega0!r}")
    # Labels name buses and lines in messages and generators in plans and pairs.
    for what, items in (("bus", network.buses), ("line", network.lines)):
        seen: set[str] = set()
        for item in items:
            if item.label in seen:
                raise ValidationError(f"duplicate {what} label {item.label!r}")
            seen.add(item.label)
    # Every array of the model reads the first m buses as the generators.
    for position, bus in enumerate(network.buses):
        if bus.kind not in ("G", "L"):
            raise ValidationError(f"bus {bus.label!r} has kind {bus.kind!r}, not G or L")
        if bus.is_generator != (position < m):
            raise ValidationError(
                f"bus {bus.label!r} at position {position + 1} is out of order: "
                f"the {m} generator buses must come first"
            )
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
        for end in (ln.from_bus, ln.to_bus):
            # Every array of the model reads an endpoint as a 1-based bus position.
            if not (isinstance(end, (int, np.integer)) and not isinstance(end, bool)
                    and 1 <= end <= n):
                raise ValidationError(
                    f"line {ln.label!r} ends at {end!r}, which is not a bus position 1..{n}")
        if ln.b <= 0 or not math.isfinite(ln.b):
            raise ValidationError(f"line {ln.label!r} needs a positive finite susceptance")
        if ln.from_bus == ln.to_bus:
            raise ValidationError(f"line {ln.label!r} joins a bus to itself")
        if ln.from_bus <= m and ln.to_bus <= m:
            raise ValidationError(
                f"line {ln.label!r} joins two generator buses; model generators "
                "behind a common step-up transformer as one bus instead"
            )
    with np.errstate(over="ignore"):
        finite_sums = np.isfinite(incident_b_sums(network))
    if not finite_sums.all():
        label = network.buses[int(np.argmin(finite_sums))].label
        raise ValidationError(f"the line susceptances at bus {label!r} sum past the float range")
    # Connectivity; a grid with lines has buses.
    adjacency: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    for ln in network.lines:
        adjacency[ln.from_bus].add(ln.to_bus)
        adjacency[ln.to_bus].add(ln.from_bus)
    seen, stack = {1}, [1]
    while stack:
        fresh = adjacency[stack.pop()] - seen
        seen |= fresh
        stack.extend(fresh)
    if len(seen) != n:
        labels = [bus.label for i, bus in enumerate(network.buses, start=1) if i not in seen]
        raise ValidationError(f"network graph is disconnected; unreachable buses {labels}")
    _check_balance(network, POWER_BALANCE_TOL)


class _Unbalanced(ValidationError):
    """Real injections that sum to ``imbalance``, not to zero."""


def _check_balance(network: Network, tol: float) -> None:
    """Raise ``_Unbalanced`` unless the real injections sum to within ``tol``."""
    imbalance = float(np.sum(network.injections()[0]))
    if not abs(imbalance) <= tol:
        exc = _Unbalanced(f"real power does not balance: sum of injections = {imbalance:.3e} "
                          "(the lossless model has no slack bus)")
        exc.imbalance = imbalance
        raise exc


# ---------------------------------------------------------------------------
# Incidence and per-line/state quantities
# ---------------------------------------------------------------------------

def build_incidence(network: Network) -> tuple[np.ndarray, np.ndarray]:
    """Signed and unsigned bus-line incidence matrices, each n x ell."""
    f, t = network.endpoints()
    k = np.arange(f.size)
    A = np.zeros((network.n, f.size))
    A[f, k] = 1.0
    A[t, k] = -1.0
    return A, np.abs(A)


def flat_start(network: Network) -> OperatingPoint:
    return OperatingPoint(
        delta=np.zeros(network.n),
        v_load=np.ones(network.n - network.m),
    )


def bus_voltages(network: Network, op: OperatingPoint) -> np.ndarray:
    """Voltage magnitudes over all buses: fixed set-points then load states.

    Raises DomainError if any is not positive: ln V, and so R, is undefined there.
    """
    v = np.concatenate([network._gen_v_set, op.v_load])
    if np.any(v <= 0):
        raise DomainError("nonpositive voltage magnitude; ln V undefined")
    return v


def line_states(network: Network, op: OperatingPoint) -> LineState:
    """Per-line theta, nu = ln(V_i V_j), and the flows p = b e^nu sin(theta),
    q = -b e^nu cos(theta)."""
    theta, nu, w = _line_terms(network, op, bus_voltages(network, op))
    return LineState(theta=theta, nu=nu, p=w * np.sin(theta), q=-w * np.cos(theta))


def _line_terms(
    network: Network, op: OperatingPoint, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-line theta, nu = ln(V_f V_t) and the flow scale w = b e^nu at the
    bus voltages ``v``; p = w sin(theta) and q = -w cos(theta)."""
    f, t = network.endpoints()
    nu = np.log(v[f] * v[t])
    return op.delta[f] - op.delta[t], nu, network.susceptances() * np.exp(nu)


def incident_b_sums(network: Network) -> np.ndarray:
    """sum of b_k over lines incident to each bus (= -b_ii), built once per
    grid and read-only."""
    return network._topology.b_sums


def potential_energy(network: Network, op: OperatingPoint) -> float:
    """Scalar energy function R at the given state (bus-coordinate evaluation).

    The line part is -sum b V_i V_j cos(delta_i - delta_j); the bus part is
    -sum (P_i delta_i + 0.5 b_ii V_i^2 + Q_i ln V_i) with b_ii = -sum of
    incident susceptances.
    """
    v = bus_voltages(network, op)
    f, t = network.endpoints()
    d = op.delta
    line_part = np.sum(network.susceptances() * v[f] * v[t] * np.cos(d[f] - d[t]))
    return float(-line_part + bus_energy(network, op))


def bus_energy(network: Network, op: OperatingPoint) -> float:
    """The bus part of R, -sum (P_i delta_i + 0.5 b_ii V_i^2 + Q_i ln V_i)."""
    v = bus_voltages(network, op)
    p_inj, q_inj = network.injections()
    bii = -incident_b_sums(network)
    return float(-np.sum(p_inj * op.delta + 0.5 * bii * v ** 2 + q_inj * np.log(v)))


def residual_vectors(network: Network, op: OperatingPoint) -> tuple[np.ndarray, np.ndarray]:
    """Steady-state power balance residuals (the gradient of R).

    Returns (real over all buses, reactive over load buses); the reactive
    residual is the voltage-scaled form, i.e. dR/dV_i. At an angle-only ``op``
    the load voltages are parameters, not unknowns, so the reactive residual
    is not computed and comes back empty; the real one has the same bits.
    """
    v = bus_voltages(network, op)
    theta, _, w = _line_terms(network, op, v)
    p_inj, q_inj = network.injections()
    topology = network._topology
    p = w * np.sin(theta)
    real = topology.onto_buses(p, -p, start=-p_inj)
    if op.const_v:
        return real, np.empty(0)
    q = -w * np.cos(theta)
    qsum = topology.onto_buses(q, q)
    b_sum = incident_b_sums(network)
    loads = np.arange(network.m, network.n)
    reactive = qsum[loads] / v[loads] + b_sum[loads] * v[loads] - q_inj[loads] / v[loads]
    return real, reactive


def hessian_matrix(network: Network, op: OperatingPoint) -> np.ndarray:
    """Weighted-Laplacian Hessian of R in bus coordinates at the given state.

    State ordering is (delta_1..delta_n, V_{m+1}..V_n). The leading n x n
    block is the angle Hessian of the angle-only model at the voltage profile
    of ``op``: no voltage term reaches it. At an angle-only ``op`` only that
    block is built; each entry adds the same line terms in the same order as
    in the full matrix, so it has the same bits.
    """
    n, m = network.n, network.m
    v = bus_voltages(network, op)
    d = op.delta
    f, t = network.endpoints()
    w = network.susceptances() * v[f] * v[t]
    wc = w * np.cos(d[f] - d[t])
    topology = network._topology
    if op.const_v:
        size, flat = n, topology.angle_scatter
        weights = np.stack([wc, -wc, -wc, wc], axis=1).ravel()
    else:
        size = 2 * n - m
        ws = w * np.sin(d[f] - d[t])
        sf, st, c, zero = ws / v[f], ws / v[t], -(wc / (v[f] * v[t])), np.zeros_like(w)
        # The Hessian of line k's term -b V_f V_t cos(delta_f - delta_t) over
        # (delta_f, delta_t, V_f, V_t), as a (4, 4, ell) array.
        block = np.array([[wc, -wc, sf, st],
                          [-wc, wc, -sf, -st],
                          [sf, -sf, zero, c],
                          [st, -st, c, zero]])
        take, flat, diag = topology.hessian_scatter
        weights = block.ravel()[take]
    # Line-major, so that as in onto_buses each entry sums its terms in line
    # order: bincount, like np.add.at, adds its weights in input order.
    L = np.bincount(flat, weights=weights, minlength=size * size).reshape(size, size)
    if not op.const_v:
        _, q_inj = network.injections()
        L[diag, diag] += incident_b_sums(network)[m:] + q_inj[m:] / v[m:] ** 2
    return L


# ---------------------------------------------------------------------------
# Power flow
# ---------------------------------------------------------------------------

def solve_power_flow(
    network: Network,
    initial: OperatingPoint | None = None,
    const_v: bool = False,
) -> OperatingPoint:
    """Newton solve of the lossless power flow from a flat (or given) start.

    The state is z = (delta - delta_1, V_load), or the angles alone under
    ``const_v``, which keeps the voltages of the start; the point returned
    records that model. The angle reference z_1 = 0 is pinned and the bus-1
    real-power equation dropped (redundant under exact balance). Steps are
    halved when the residual norm would increase. The iteration targets well
    below the acceptance tolerance so downstream finite differencing stays
    clean, but stops once the residual is accepted and a step no longer
    lowers it. The residual is accepted at PF_ACCEPT_TOL, or at
    PF_ACCEPT_ULPS roundoff units of the largest incident susceptance sum
    when that is larger: the line terms of a stiff grid cancel to no better
    than that. Real injections that do not balance to within that tolerance
    raise ValidationError before any Newton step.
    """
    n = network.n
    op = initial if initial is not None else flat_start(network)
    z = op.delta - op.delta[0]
    if not const_v:
        z = np.concatenate([z, op.v_load])

    def point(z: np.ndarray) -> OperatingPoint:
        return OperatingPoint(delta=z[:n], v_load=op.v_load if const_v else z[n:],
                              const_v=const_v)

    def residual(z: np.ndarray) -> np.ndarray:
        # Real then reactive balance; the reactive part is empty under const_v.
        return np.concatenate(residual_vectors(network, point(z)))

    tol = max(PF_ACCEPT_TOL,
              PF_ACCEPT_ULPS * np.finfo(float).eps * float(np.max(incident_b_sums(network))))
    # At any solution the dropped bus-1 residual is -sum P, so no step can
    # bring an imbalance above tol under it.
    _check_balance(network, tol)
    res = residual(z)
    norm = float(np.max(np.abs(res)))
    for _ in range(PF_MAX_ITER):
        if norm < PF_TARGET_TOL:
            break
        J = hessian_matrix(network, point(z))[1:, 1:]
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
                # A trial point may overflow; its non-finite norm then fails
                # the test below, so numpy's warning would report nothing.
                with np.errstate(all="ignore"):
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
            f"power flow did not converge: residual max-norm {norm:.3e} > {tol:.1e}")
    return replace(point(z), residual_norm=norm)
