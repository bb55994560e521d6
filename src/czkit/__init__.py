"""czkit: exact and numerical tools for smooth homogeneous singular kernels.

Three layers:

* exact algebra (``exact``, ``polyalg``, ``kernels``) -- the scalar ring
  Q[sqrt(pi), i], sparse rational polynomials with harmonic decomposition,
  and finite-layer kernel specifications;
* exact decision and verification (``admissibility``, ``identities``) --
  the divisor/non-vanishing check that decides control of the maximal
  singular integral, and verifiers for the combinatorial identities behind
  the fundamental-solution calculus;
* a numerical operator lab (``gridops``, ``experiments``) -- singular
  integrals, their maximal truncations and maximal functions on grid
  functions, and the scripted experiments exposed through the ``czkit`` CLI.
"""

__version__ = "0.1.0"

from .exact import (
    SymScalar,
    binomial,
    fundamental_normalization,
    gamma_half_integer,
    riesz_multiplier,
)
from .polyalg import (
    HarmonicComponent,
    MultiPoly,
    apply_diffop,
    divide_exact,
    harmonic_decompose,
    laplacian,
)
from .kernels import KernelSpec, kernel_from_polynomial, load_kernel_spec
from .admissibility import CheckReport, check_maximal_control
from .identities import run_identity_suite
from .gridops import (
    GridFunction,
    TruncationGrid,
    beurling_maximal,
    hardy_littlewood,
    hilbert_maximal,
    iterated_m2,
)

__all__ = [
    "SymScalar",
    "binomial",
    "gamma_half_integer",
    "riesz_multiplier",
    "fundamental_normalization",
    "MultiPoly",
    "HarmonicComponent",
    "laplacian",
    "apply_diffop",
    "harmonic_decompose",
    "divide_exact",
    "KernelSpec",
    "kernel_from_polynomial",
    "load_kernel_spec",
    "CheckReport",
    "check_maximal_control",
    "run_identity_suite",
    "GridFunction",
    "TruncationGrid",
    "hilbert_maximal",
    "hardy_littlewood",
    "iterated_m2",
    "beurling_maximal",
    "__version__",
]
