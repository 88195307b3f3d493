from __future__ import annotations

import numpy as np
import pytest

from oscdamp import cases, modal
from oscdamp.study import build_study

RANDOM_SUITE_SIZE = 50


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
