"""One state of a network, its certificate as a minimum of the energy
function, and every modal quantity derived from it once."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import laplacian, modal
from .errors import SingularityError
from .network import Network, OperatingPoint, solve_power_flow


@dataclass(frozen=True)
class Study:
    """``network`` at its operating point ``op``, in the voltage model ``op``
    records. Its bundle, grounded factor, dynamic matrices and modes are
    derived from those two on first use, once each, so all readers agree."""

    network: Network
    op: OperatingPoint

    @property
    def const_v(self) -> bool:
        """The voltage model, as the operating point records it: True for angle-only."""
        return self.op.const_v

    @cached_property
    def bundle(self) -> laplacian.LaplacianBundle:
        return laplacian.hessian(self.network, self.op)

    @cached_property
    def grounded_factor(self) -> np.ndarray:
        """Upper Cholesky factor (LAPACK ``dpotrf``) of L[1:, 1:]. It exists exactly at
        a minimum of the energy function, which the first-order formula assumes;
        a singular equilibrium or a saddle raises ``SingularityError``."""
        factor, info = modal._DPOTRF(self.bundle.L[1:, 1:], lower=0, clean=1)
        if info != 0:
            raise SingularityError(f"grounded Laplacian is not positive definite (LAPACK dpotrf "
                                   f"info = {info}); the equilibrium is singular or a saddle "
                                   "of the energy function")
        return factor

    @cached_property
    def dyn(self) -> modal.DynamicMatrices:
        return modal.build_dynamic_matrices(self.network, const_v=self.op.const_v)

    @cached_property
    def modes(self) -> tuple[modal.Mode, ...]:
        bundle, dyn = self.bundle, self.dyn
        return tuple(modal.solve_qep(dyn.m, dyn.d, bundle.L, n_angles=self.network.n,
                                     gen_labels=self.network.gen_labels()))

    def oscillatory(self) -> tuple[modal.Mode, ...]:
        return tuple(md for md in self.modes if md.omega > 0)

    def electromechanical(self) -> tuple[modal.Mode, ...]:
        return tuple(md for md in self.modes if md.electromechanical)


def build_study(network: Network, const_v: bool = False) -> Study:
    """Solve the equilibrium of a network (valid from construction), certify it
    a minimum by ``grounded_factor``, then solve its modes: a failed power flow,
    a saddle and a failed eigensolve each raise here, in that order."""
    st = Study(network, solve_power_flow(network, const_v=const_v))
    st.grounded_factor
    st.modes
    return st
