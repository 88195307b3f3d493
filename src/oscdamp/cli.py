"""Command-line surface: pf, modes, sens, sweep, rank, verify.

Exit codes: 0 success, 3 failed verification, 141 when the reader closes
stdout early; a package error prints one line on stderr and exits with its
class's ``exit_code`` (see ``errors``).
All numeric output uses 6 significant digits and identical invocations
produce byte-identical stdout. A command with ``--csv`` writes the file
before it prints anything (``_emit``), so an unwritable path exits 64 with
stdout empty.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import os
import sys
from collections.abc import Sequence

import numpy as np

from . import cases, dispatch, laplacian, modal, sensitivity
from .errors import GridFormatError, OscdampError, UsageError, ValidationError
from .network import Network, bus_voltages, line_states, parse_grid_file, solve_power_flow
from .study import Study, build_study

EXIT_OK = 0
EXIT_VERIFY_FAILED = 3
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def g6(x: float) -> str:
    return format(float(x), ".6g")


def _cells(z: complex | None) -> list[str]:
    """A complex value as its real and imaginary cells; blanks for None, a
    re-solve that failed."""
    return ["", ""] if z is None else [g6(z.real), g6(z.imag)]


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _load_network(args) -> Network:
    if not os.path.exists(args.grid):
        raise UsageError(f"file not found: {args.grid}")
    try:
        with open(args.grid, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.grid}: {exc.strerror or exc}") from None
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # The decoder counts from after a byte-order mark, the message from the file's start.
        start = exc.start + (len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0)
        raise GridFormatError(
            f"{args.grid} is not UTF-8 text: {exc.reason} at byte {start}") from None
    return parse_grid_file(text)


def _load_study(args) -> Study:
    return build_study(_load_network(args), const_v=args.const_v)


def _dump_matrices(bundle: laplacian.LaplacianBundle, outdir: str) -> None:
    blocks = np.vstack([-bundle.lp_nu_nu, bundle.lp_theta_nu, bundle.lp_nu_nu])
    try:
        os.makedirs(outdir, exist_ok=True)
        for name, matrix in (("L.csv", bundle.L), ("H.csv", bundle.H), ("Lp_blocks.csv", blocks)):
            np.savetxt(os.path.join(outdir, name), matrix, delimiter=",", fmt="%.17g")
    except OSError as exc:
        raise _cannot_write(outdir, exc) from None


def _select_mode(st: Study, args) -> modal.Mode:
    osc = st.oscillatory()
    if not osc:
        raise ValidationError("no oscillatory modes in this system")
    if args.mode_hz is not None:
        try:
            lo_s, hi_s = args.mode_hz.split(":")
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            raise UsageError(f"bad --mode-hz window {args.mode_hz!r}, expected LO:HI") from None
        hits = [md for md in osc if lo <= md.freq_hz <= hi]
        if len(hits) != 1:
            raise UsageError(
                f"--mode-hz {args.mode_hz} selects {len(hits)} modes; need exactly 1"
            )
        return hits[0]
    if args.mode is not None:
        if not 1 <= args.mode <= len(osc):
            raise UsageError(
                f"--mode {args.mode} out of range 1..{len(osc)}"
            )
        return osc[args.mode - 1]
    raise UsageError("select a mode with --mode INDEX or --mode-hz LO:HI")


def _cannot_write(path: str, exc: OSError) -> UsageError:
    """The error for a failed write to the user's ``path``; ``exc.filename``
    is None when the write fails at flush or close."""
    return UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _emit(args, header: list[str], rows: list[list[str]],
          before: Sequence[str] = (), after: Sequence[str] = ()) -> int:
    """Write the table to ``args.csv`` if given, then print the ``before``
    lines, the table and the ``after`` lines."""
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        except OSError as exc:
            raise _cannot_write(args.csv, exc) from None
    for line in before:
        print(line)
    print(_table(rows, header))
    for line in after:
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_pf(args) -> int:
    net = _load_network(args)
    st = Study(net, solve_power_flow(net, const_v=args.const_v))
    st.grounded_factor  # build_study's certificate, without its eigensolve
    if args.dump_matrices:
        _dump_matrices(st.bundle, args.dump_matrices)
    v = bus_voltages(net, st.op)
    rows = [[b.label, b.kind, g6(st.op.delta[i]), g6(v[i])] for i, b in enumerate(net.buses)]
    print(_table(rows, ["bus", "kind", "delta_rad", "V"]))
    ls = line_states(net, st.op)
    lrows = []
    for k, ln in enumerate(net.lines):
        lrows.append([
            ln.label, net.buses[ln.from_bus - 1].label, net.buses[ln.to_bus - 1].label,
            g6(ls.theta[k]), g6(ls.nu[k]), g6(ls.p[k]), g6(ls.q[k]),
        ])
    print()
    print(_table(lrows, ["line", "from", "to", "theta", "nu", "p", "q"]))
    print()
    print(f"residual max-norm: {g6(st.op.residual_norm)}")
    return EXIT_OK


def cmd_modes(args) -> int:
    st = _load_study(args)
    header = ["idx", "re", "im", "f_hz", "zeta_pct", "swing_profile", "class"]
    rows = [[str(i), *_cells(md.lam), g6(md.freq_hz), g6(100 * md.damping_ratio),
             md.swing_profile, "em" if md.electromechanical else ""]
            for i, md in enumerate(st.oscillatory(), start=1)]
    hidden = len(st.modes) - len(rows)
    return _emit(args, header, rows,
                 after=[f"({hidden} non-oscillatory modes not shown)"] if hidden else [])


def cmd_sens(args) -> int:
    st = _load_study(args)
    mode = _select_mode(st, args)
    report = sensitivity.sensitivity_coefficients(st, mode)
    print(f"mode: lambda = {g6(mode.sigma)} + {g6(mode.omega)}j  "
          f"f = {g6(mode.freq_hz)} Hz  zeta = {g6(100 * mode.damping_ratio)} %")
    print(f"alpha = {g6(report.alpha.real)} + {g6(report.alpha.imag)}j")
    print()
    def coeff_rows(items, coeffs):
        return [[it.label, *_cells(c), g6(abs(c / report.alpha))]
                for it, c in zip(items, coeffs)]

    print(_table(coeff_rows(st.network.lines, report.theta_coeff),
                 ["line", "dtheta_coeff_re", "dtheta_coeff_im", "|coeff/alpha|"]))
    if report.vln_coeff.size:
        print()
        print(_table(coeff_rows(st.network.buses[st.network.m:], report.vln_coeff),
                     ["bus", "dvln_coeff_re", "dvln_coeff_im", "|coeff/alpha|"]))
    return EXIT_OK


def _parse_pair(st: Study, spec_str: str) -> dispatch.RedispatchPlan:
    """The plan of ``--pair GA:GB``. A label may contain ':', so the pair is
    the one split at a ':' whose two halves both name generators."""
    splits = [(spec_str[:i], spec_str[i + 1:]) for i, c in enumerate(spec_str) if c == ":"]
    if not splits:
        raise UsageError(f"bad --pair {spec_str!r}, expected GA:GB")
    labels = st.network.gen_labels()
    named = [(up, down) for up, down in splits if up in labels and down in labels]
    if len(named) > 1:
        raise UsageError(f"ambiguous --pair {spec_str!r}: it splits into generator "
                         f"labels as {' or '.join(f'{up} : {down}' for up, down in named)}")
    up, down = named[0] if named else splits[0]
    try:
        return dispatch.plan_between(st.network, up, down)
    except ValidationError as exc:
        raise UsageError(str(exc)) from None


def cmd_sweep(args) -> int:
    st = _load_study(args)
    mode = _select_mode(st, args)
    plan = _parse_pair(st, args.pair)
    try:
        r_values = [float(tok) for tok in args.r.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad --r list {args.r!r}") from None
    if not r_values:
        raise UsageError("--r needs at least one value")
    preds = dispatch.sweep(st.network, st.op, mode, plan, r_values)
    header = ["r", "sigma_exact", "omega_exact", "sigma_approx", "omega_approx",
              "zeta_exact", "zeta_approx"]
    rows = [[g6(pr.r), *_cells(pr.lambda_exact), *_cells(pr.lambda_approx),
             "" if pr.lambda_exact is None else g6(modal.damping_ratio(pr.lambda_exact)),
             g6(modal.damping_ratio(pr.lambda_approx))]
            for pr in preds]
    return _emit(args, header, rows,
                 before=[f"redispatch {plan.description}, mode lambda = "
                         f"{g6(mode.sigma)} + {g6(mode.omega)}j"],
                 after=[f"oracle unavailable at r = {g6(pr.r)}: {pr.oracle_failure}"
                        for pr in preds if pr.lambda_exact is None])


def cmd_rank(args) -> int:
    st = _load_study(args)
    mode = _select_mode(st, args)
    ranked = dispatch.rank_pairs(st.network, st.op, mode)
    header = ["up", "down", "dzeta_dr", "dsigma_dr", "domega_dr"]
    rows = [[p.up, p.down, g6(p.dzeta_dr), *_cells(p.dlambda_dr)] for p in ranked]
    return _emit(args, header, rows,
                 before=[f"mode lambda = {g6(mode.sigma)} + {g6(mode.omega)}j"])


SPOTCHECK_DRAWS = 3  # random networks the verify spot-check draws


def _verify_random_spotcheck(seed: int) -> list[str]:
    """Formula-vs-oracle agreement on seeded random networks, each solved once."""
    failures = []
    rng = np.random.default_rng(seed)
    for i in range(SPOTCHECK_DRAWS):
        st = cases.random_network(int(rng.integers(0, 2 ** 31)))
        net = st.network
        mode = st.electromechanical()[0]
        labels = net.gen_labels()
        plan = dispatch.plan_between(net, labels[0], labels[1])
        slope = dispatch.unit_dlambda(st, mode, plan)
        fd = cases.finite_difference_sensitivity(net, st.op, mode, plan)
        err = abs(slope - fd) / max(1.0, abs(slope))
        ok = err < 1e-6
        print(f"{'PASS' if ok else 'FAIL'} random[{i}] n={net.n} m={net.m} "
              f"formula vs oracle rel err {g6(err)}")
        if not ok:
            failures.append(f"random[{i}]: rel err {err:.3e}")
    return failures


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    all_ok = True
    for name in cases.FIXTURE_NAMES:
        rep = cases.reproduce_case(name)
        status = "ok" if rep.ok else "FAILED"
        lock = "locked" if rep.locked else "contingent data unlocked"
        print(f"== {name}: {status} ({lock})")
        for ln in rep.lines:
            exp = ln.expectation
            mark = "PASS" if ln.passed else ("WARN" if exp.status == "contingent" else "FAIL")
            print(f"{mark} {exp.quantity:<24} computed {g6(ln.computed.real)}"
                  f"{'+' + g6(ln.computed.imag) + 'j' if ln.computed.imag else ''}"
                  f" expected {g6(exp.value.real)}"
                  f"{'+' + g6(exp.value.imag) + 'j' if exp.value.imag else ''}"
                  f" tol {g6(exp.tol)} [{exp.status}] {exp.provenance}")
        all_ok = all_ok and rep.ok
    print("== random spot-check")
    failures = _verify_random_spotcheck(args.seed)
    if failures:
        all_ok = False
    print()
    print("verification " + ("PASSED" if all_ok else "FAILED") +
          " (contingent mismatches are warnings)")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="oscdamp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_mode=False):
        p.add_argument("grid", help="grid description file")
        p.add_argument("--const-v", action="store_true", dest="const_v",
                       help="freeze all voltage magnitudes (angle-only model)")
        if needs_mode:
            selector = p.add_mutually_exclusive_group()
            selector.add_argument("--mode", type=int,
                                  help="1-based oscillatory mode index")
            selector.add_argument("--mode-hz", dest="mode_hz", metavar="LO:HI",
                                  help="frequency window in Hz selecting exactly one mode")

    p = sub.add_parser("pf", help="solve the power flow, certify the energy minimum and print it")
    add_common(p)
    p.add_argument("--dump-matrices", metavar="DIR",
                   help="dump L, H and the line-coordinate blocks as CSV")
    p.set_defaults(func=cmd_pf)

    p = sub.add_parser("modes", help="print the oscillatory modes")
    add_common(p)
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("sens", help="print sensitivity coefficients for one mode")
    add_common(p, needs_mode=True)
    p.set_defaults(func=cmd_sens)

    p = sub.add_parser("sweep", help="compare exact vs first-order modes over redispatch amounts")
    add_common(p, needs_mode=True)
    p.add_argument("--pair", required=True, metavar="GA:GB",
                   help="generator that increases : generator that decreases")
    p.add_argument("--r", required=True,
                   help="comma-separated redispatch amounts; a list that starts "
                        "with a negative amount needs the = form, as in --r=-0.01,0.01")
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rank", help="rank generator pairs by damping-ratio improvement")
    add_common(p, needs_mode=True)
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("verify", help="reproduce the shipped fixtures and run the oracle spot-check")
    p.add_argument("--seed", type=int, default=0, help="seed for the random spot-check")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):
            code = args.func(args)
        sys.stdout.flush()
        return code
    except OscdampError as exc:
        print(f"oscdamp: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The reader closed stdout (``oscdamp rank ... | head -1``). Point it
        # at the null device so the flush at exit cannot raise again, and
        # exit as a shell reports a process ended by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
