"""Numerical laboratory for geometric measure theory on Poisson configuration spaces.

Finite point patterns in box windows carry the Poisson measure with Lebesgue
intensity; the package implements the lifted calculus (cylinder functions and
fields, gradients, adjoint divergences), the stratum-wise Neumann heat
semigroup, codimension-m Poisson surface measures, BV/perimeter functionals,
and a verification harness that checks each theorem-level identity against
independent Monte Carlo and quadrature oracles.
"""

from .configuration import MCEstimate, SetSpec
from .geometry import (BoxDomain, HeatKernel1D, SmoothFunction, SmoothVectorField,
                       interval, neumann_kernel)
from .cylinder import (CylinderFunction, CylinderVectorField,
                       ExponentialCylinderFunction, OuterFunction)
from .montecarlo import MCPlan

__all__ = [
    "BoxDomain", "CylinderFunction", "CylinderVectorField",
    "ExponentialCylinderFunction", "HeatKernel1D", "MCEstimate", "MCPlan",
    "OuterFunction", "SetSpec", "SmoothFunction", "SmoothVectorField",
    "interval", "neumann_kernel",
]

__version__ = "0.1.0"
