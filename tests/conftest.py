from __future__ import annotations

import importlib
import inspect
import io
import pkgutil
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from oscdamp import cases, modal
from oscdamp.cli import main
from oscdamp.network import Network
from oscdamp.study import build_study

RANDOM_SUITE_SIZE = 50
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def fixture_studies():
    """Every shipped fixture solved once: name -> (CaseFixture, Study)."""
    out = {}
    for name in cases.FIXTURE_NAMES:
        fx = cases.load_fixture(name)
        out[name] = (fx, build_study(fx.network, const_v=fx.const_v))
    return out


@pytest.fixture(scope="session")
def random_suite():
    """Fifty seeded random networks with their solved studies."""
    out = []
    for seed in range(RANDOM_SUITE_SIZE):
        st = cases.random_network(seed)
        out.append((st.network, st))
    return out


class CallCounter(Counter):
    """Python calls of the functions at the given dotted names, counted while
    the counter is entered.

    A call is matched by the code object it runs, so it counts however the
    function is bound: module attribute, name import, alias or method. A
    wrapped function (``np.linalg.pinv``) is counted by the implementation it
    wraps. ``counter[name]`` counts every call, ``counter[name, module]`` the
    calls made from code in ``module``, and ``returned`` keeps the return
    values of the function named ``keep``. Compiled routines, such as the
    LAPACK handles of ``modal``, run no Python code and are not seen.
    """

    def __init__(self, *names: str, keep: str | None = None):
        super().__init__()
        self._names = {inspect.unwrap(pkgutil.resolve_name(name)).__code__: name
                       for name in names}
        self._keep = inspect.unwrap(pkgutil.resolve_name(keep)).__code__ if keep else None
        self.returned: list = []

    def _profile(self, frame, event, arg):
        if event == "call" and frame.f_code in self._names:
            name = self._names[frame.f_code]
            self[name] += 1
            self[name, frame.f_back.f_globals.get("__name__")] += 1
        elif event == "return" and frame.f_code is self._keep:
            self.returned.append(arg)

    def clear(self):
        super().clear()
        self.returned.clear()

    def __enter__(self) -> CallCounter:
        self._previous = sys.getprofile()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._previous)


def perfbench_module(name: str):
    """The benchmark's module ``perfbench/<name>.py``, imported as the
    benchmark imports it: by its bare name, with ``perfbench/`` on the path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def data_path(name: str) -> str:
    """Path of the file ``name`` shipped in the package's ``data`` directory."""
    return str(resources.files("oscdamp").joinpath("data", name))


def run_cli(argv) -> tuple[int, str, str]:
    """``oscdamp argv`` run in this process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_refused(result: tuple[int, str, str], code: int, message: str | None = None) -> None:
    """The CLI's failure contract: exit ``code``, nothing on stdout, and one
    line ``oscdamp: <message>`` on stderr (any message when it is None)."""
    assert result[:2] == (code, ""), result
    if message is None:
        assert re.fullmatch(r"oscdamp: [^\n]+\n", result[2]), result
    else:
        assert result[2] == f"oscdamp: {message}\n"


def assert_same_bits(a, b) -> None:
    """``a`` and ``b`` are the same array bit for bit: dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def companion_spectrum(m_diag, d_diag, L) -> np.ndarray:
    """Finite eigenvalues of the QEP by an independent route: its first
    companion pencil of size 2 nz."""
    # Not imported with the module: oscdamp.modal, imported first, then loads
    # scipy's LAPACK extension from its file as a CLI run does.
    import scipy.linalg

    nz = L.shape[0]
    A = np.zeros((2 * nz, 2 * nz))
    B = np.zeros((2 * nz, 2 * nz))
    A[:nz, :nz] = -np.diag(d_diag)
    A[:nz, nz:] = -L
    A[nz:, :nz] = np.eye(nz)
    B[:nz, :nz] = np.diag(m_diag)
    B[nz:, nz:] = np.eye(nz)
    alph, beta = scipy.linalg.eig(A, B, right=False, homogeneous_eigvals=True)
    keep = np.abs(beta) > 1e-12 * np.hypot(np.abs(alph), np.abs(beta))
    return alph[keep] / beta[keep]


def zero_damping_variant(network: Network) -> Network:
    """Copy of the network with every damping constant set to zero."""
    return replace(network, buses=tuple(replace(b, damping_d_seconds=0.0)
                                        for b in network.buses))


def stiff_star_grid(b: float) -> str:
    """Three generators on one load bus over four lines of susceptance ``b``."""
    return (
        "bus G1 G V=1.0 Pg=0.5 H=2 D=1\n"
        "bus G2 G V=1.02 Pg=0.3 H=1 D=1\n"
        "bus G3 G V=0.99 Pg=-0.2 H=4.42 D=1\n"
        "bus L4 L Pl=0.6 Ql=0.1\n"
        f"line 1 G1 L4 b={b:g}\n"
        f"line 2 G1 L4 b={b:g}\n"
        f"line 3 G2 L4 b={b:g}\n"
        f"line 4 G3 L4 b={b:g}\n"
    )


def fail_qz(monkeypatch) -> None:
    """Make every eigenvector call of LAPACK ``dggev`` report ``info = 1``."""
    ggev = modal._DGGEV

    def failing(a, b, **kwargs):
        out = ggev(a, b, **kwargs)
        return out if kwargs.get("lwork") == -1 else out[:-1] + (1,)

    monkeypatch.setattr(modal, "_DGGEV", failing)


def balanced_directions(rng: np.random.Generator, m: int, count: int) -> list[np.ndarray]:
    """Unit-norm balanced redispatch directions over m generators."""
    dirs = []
    while len(dirs) < count:
        dp = rng.standard_normal(m)
        dp -= dp.mean()
        norm = np.linalg.norm(dp)
        if norm < 1e-3:
            continue
        dirs.append(dp / norm)
    return dirs
