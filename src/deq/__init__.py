"""Exact tools for the operator equation R12 R23 = R23 R12.

Membership checks for the equation and its relatives, the universal
bialgebra of a solution, Long dimodules and graded modules, D-maps with
their convolution calculus, and exhaustive classification over small
prime fields.
"""

from .fields import (Field, FunctionField, MathError, PrimeField, QQ,
                     UsageError, field_from_header)
from .linalg import Matrix, matrix_inverse, rref
from .tensor_ops import (EndoPair, FormVerdicts, check_d,
                         check_equivalent_forms, check_hopf, check_pentagon,
                         check_qybe, diagonal_solution, first_violation,
                         identity_pair, invert, lift, product_solution)
from .coalg import (BilinearForm, Coalgebra, Comodule, comatrix, convolve,
                    counit_form, grouplike_coalgebra)
from .frt import (FrtPresentation, NotASolutionError, QuotientCoalgebra,
                  d_bialgebra, frt_col_order, obstruction_coideal,
                  relation_strings, require_solution)
from .dimodule import (FinAlgebra, FinBialgebra, GradedModule, LongDimodule,
                       dimodule_from_grading, group_bialgebra, r_from_dimodule,
                       tensor_dimodule, trivial_module)
from .dmap import (DMap, convolution_inverse_of_sigma, first_symmetry_violation,
                   is_dmap, sigma_from_r, strong_dmap_from_symmetric)
from .fileio import (ParseError, read_cayley, read_graded_module, read_matrix,
                     write_cayley, write_graded_module, write_matrix,
                     write_report)
from . import catalog

# The census needs numpy; its names are imported on first use (PEP 562), so
# that the exact layers and the command line load without it.
_CENSUS = ("CensusReport", "enumerate_solutions", "operator_count", "orbit_reduce")


def __getattr__(name):
    if name in _CENSUS:
        from . import classify
        return getattr(classify, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["classify", *_CENSUS])
