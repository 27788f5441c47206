"""Verification engine for Lie-algebra-valued exterior calculus on charts.

Every coefficient function is an exact rational polynomial or a lazy
field read by its value and first partials at a probe; forms, coframe
minors, covariant derivatives and gauge transports are built on top; the
model layers reproduce the Euler-Lagrange systems and decomposition
identities of the Yang-Mills, Kaluza-Klein and dynamical-fibration gravity
variational models at desk scale.
"""

from .algebra import (LieAlgebra, SplitAlgebra, bracket, build_algebra,
                      check_algebra, coadjoint, dexp_right, exp_adjoint,
                      killing_form, killing_pairing)
from .algebra_io import load_algebra, save_algebra
from .forms import Coframe, Form, Slot, contracted_wedge, decompose, exterior_d, \
    interior, wedge
from .kappa import (KappaTensor, build_kappa, epsilon_double_contraction,
                    holst_kernel_factor, kappa_invariance_residual,
                    lambda_constant)
from .scalars import Polynomial, poly_field
from .suites import SuiteConfig, run_suite

__all__ = [
    "LieAlgebra", "SplitAlgebra", "bracket", "build_algebra", "check_algebra",
    "coadjoint", "dexp_right", "exp_adjoint", "killing_form", "killing_pairing",
    "load_algebra", "save_algebra",
    "Coframe", "Form", "Slot", "contracted_wedge", "decompose", "exterior_d",
    "interior", "wedge",
    "KappaTensor", "build_kappa", "epsilon_double_contraction",
    "holst_kernel_factor", "kappa_invariance_residual", "lambda_constant",
    "Polynomial", "poly_field",
    "SuiteConfig", "run_suite",
]

__version__ = "0.1.0"
