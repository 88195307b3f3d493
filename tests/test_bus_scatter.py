"""The array forms of the bus sums against the per-line loops they replaced.

``incident_b_sums``, ``residual_vectors`` and ``hessian_matrix`` add each
line's terms onto its end buses in line order, as these loops do, so the two
must agree bit for bit, sign of zero included: the CLI prints digits at
roundoff level, and a reordered sum moves them.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from oscdamp import parse_grid_file
from oscdamp.network import (
    bus_voltages,
    flat_start,
    hessian_matrix,
    incident_b_sums,
    line_states,
    residual_vectors,
    solve_power_flow,
)

from conftest import assert_same_bits, stiff_star_grid


def _loop_b_sums(network):
    s = np.zeros(network.n)
    for ln in network.lines:
        s[ln.from_bus - 1] += ln.b
        s[ln.to_bus - 1] += ln.b
    return s


def _loop_residuals(network, op):
    ls = line_states(network, op)
    p_inj, q_inj = network.injections()
    v = bus_voltages(network, op)
    real = -p_inj.copy()
    qsum = np.zeros(network.n)
    for k, ln in enumerate(network.lines):
        f, t = ln.from_bus - 1, ln.to_bus - 1
        real[f] += ls.p[k]
        real[t] -= ls.p[k]
        qsum[f] += ls.q[k]
        qsum[t] += ls.q[k]
    b_sum = _loop_b_sums(network)
    loads = np.arange(network.m, network.n)
    reactive = qsum[loads] / v[loads] + b_sum[loads] * v[loads] - q_inj[loads] / v[loads]
    return real, reactive


def _loop_hessian(network, op, const_v):
    n, m = network.n, network.m
    v = bus_voltages(network, op)
    d = op.delta
    size = n if const_v else 2 * n - m
    L = np.zeros((size, size))
    for ln in network.lines:
        f, t = ln.from_bus - 1, ln.to_bus - 1
        w = ln.b * v[f] * v[t]
        wc = w * math.cos(d[f] - d[t])
        ws = w * math.sin(d[f] - d[t])
        L[f, f] += wc
        L[t, t] += wc
        L[f, t] -= wc
        L[t, f] -= wc
        if const_v:
            continue
        for e in (f, t):
            if e >= m:
                col = n + e - m
                L[f, col] += ws / v[e]
                L[col, f] += ws / v[e]
                L[t, col] -= ws / v[e]
                L[col, t] -= ws / v[e]
        if f >= m and t >= m:
            L[n + f - m, n + t - m] -= wc / (v[f] * v[t])
            L[n + t - m, n + f - m] -= wc / (v[f] * v[t])
    if not const_v:
        b_sum = _loop_b_sums(network)
        _, q_inj = network.injections()
        for i in range(m, n):
            L[n + i - m, n + i - m] += b_sum[i] + q_inj[i] / v[i] ** 2
    return L


@pytest.fixture(scope="module")
def solved(fixture_studies, random_suite):
    """(network, const_v, solved op) for every fixture, the random suite and
    two stiff stars, each in both voltage models."""
    nets = [fx.network for fx, _ in fixture_studies.values()]
    nets += [net for net, _ in random_suite]
    nets += [parse_grid_file(stiff_star_grid(b)) for b in (1e2, 1e6)]
    return [(net, const_v, solve_power_flow(net, const_v=const_v))
            for net in nets for const_v in (False, True)]


def test_incident_b_sums_match_line_loop(solved):
    for net, _, _ in solved:
        assert_same_bits(incident_b_sums(net), _loop_b_sums(net))


def test_residual_vectors_match_line_loop(solved):
    for net, _, op in solved:
        full = replace(op, const_v=False)  # the loop computes both residuals
        for got, want in zip(residual_vectors(net, full), _loop_residuals(net, op)):
            assert_same_bits(got, want)


def test_hessian_matrix_matches_line_loop(solved):
    for net, const_v, op in solved:
        for state in (op, flat_start(net)):
            want = _loop_hessian(net, state, const_v)
            size = want.shape[0]
            assert_same_bits(hessian_matrix(net, state)[:size, :size], want)
