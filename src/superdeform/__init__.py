"""superdeform: exact deformations of Poisson superalgebras.

Everything is computed symbolically over exact coefficient rings (rationals
extended by pi, square roots, a formal hbar and odd theta parameters), so
every identity check here is an exact zero test, never a numerical one.

The command-line module ``cli`` and its ``parse_*`` functions load on first
use, so that ``python -m superdeform.cli`` runs the module only once.
"""

import importlib

from .brackets import antibracket, bidiff_power, moyal_bracket, poisson_bracket
from .cochains import (Cochain, anti_form, d_ad, jacobiator, jzeta_form,
                       m0_form, m1_form, m23_form, m3_form, moyal_form,
                       mu_form, mzeta_form)
from .deformations import (build_C1, build_C1c, build_C3, build_anti_even,
                           build_anti_odd, build_general_odd,
                           check_constraints, check_equivalence, solve_eta,
                           t1_bar_multiplier, t1_euler)
from .errors import (ArityError, ContextMismatchError, DeformationError,
                     NotIntegrableError, ParseError)
from .scalars import RadicalNumber, Scalar, ScalarContext
from .superfunc import SuperFunction, SymplecticContext, sf_mul
from .verify import (SampleSpec, VerificationReport, check_bar_vanishing,
                     check_cocycle, check_d_squared, check_grading,
                     check_jacobi, check_signs, sample_superfunctions,
                     sample_tuples)

__version__ = "0.1.0"

_CLI_NAMES = ("parse_cochain", "parse_deformation", "parse_expression",
              "parse_t1")


def __getattr__(name):
    if name == "cli" or name in _CLI_NAMES:
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArityError", "Cochain", "ContextMismatchError", "DeformationError",
    "NotIntegrableError", "ParseError", "RadicalNumber", "SampleSpec",
    "Scalar", "ScalarContext", "SuperFunction", "SymplecticContext",
    "VerificationReport", "anti_form", "antibracket", "bidiff_power",
    "build_C1", "build_C1c", "build_C3", "build_anti_even",
    "build_anti_odd", "build_general_odd", "check_bar_vanishing",
    "check_cocycle", "check_constraints", "check_d_squared",
    "check_equivalence", "check_grading", "check_jacobi", "check_signs",
    "d_ad", "jacobiator", "jzeta_form", "m0_form", "m1_form", "m23_form",
    "m3_form", "moyal_bracket", "moyal_form", "mu_form", "mzeta_form",
    "parse_cochain", "parse_deformation", "parse_expression", "parse_t1",
    "poisson_bracket", "sample_superfunctions", "sample_tuples", "sf_mul",
    "solve_eta", "t1_bar_multiplier", "t1_euler",
]
