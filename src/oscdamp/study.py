"""One-stop pipeline: power flow, Hessian bundle, dynamic matrices, modes."""

from __future__ import annotations

from dataclasses import dataclass

from . import laplacian, modal
from .network import Network, OperatingPoint, solve_power_flow


@dataclass(frozen=True)
class Study:
    network: Network
    op: OperatingPoint
    bundle: laplacian.LaplacianBundle
    dyn: modal.DynamicMatrices
    modes: tuple[modal.Mode, ...]

    @property
    def const_v(self) -> bool:
        """The voltage model, as the operating point records it: True for angle-only."""
        return self.op.const_v

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
    redispatch copies) and compute every modal quantity downstream of it."""
    op = solve_power_flow(network, initial=initial, const_v=const_v)
    bundle = laplacian.hessian(network, op)
    dyn = modal.build_dynamic_matrices(network, const_v=const_v)
    modes = modal.solve_qep(
        dyn.m, dyn.d, bundle.L,
        n_angles=network.n,
        gen_labels=network.gen_labels(),
    )
    return Study(network=network, op=op, bundle=bundle, dyn=dyn, modes=tuple(modes))
