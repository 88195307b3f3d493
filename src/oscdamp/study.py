"""One state of a network, and every modal quantity derived from it once."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import laplacian, modal
from .network import Network, OperatingPoint, solve_power_flow


@dataclass(frozen=True)
class Study:
    """``network`` at its operating point ``op``, in the voltage model ``op``
    records. The Hessian bundle, dynamic matrices and modes are derived from
    those two on first use, once each, so every reader reads the same state."""

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


def build_study(
    network: Network,
    const_v: bool = False,
    initial: OperatingPoint | None = None,
) -> Study:
    """Solve the equilibrium of a network (valid from construction, as are its
    redispatch copies) and its modes, so a failed power flow or eigensolve
    raises here."""
    st = Study(network, solve_power_flow(network, initial=initial, const_v=const_v))
    st.modes
    return st
