"""Exact symbolic computations in finitely presented superalgebras.

The package builds PBW-style normal forms for enveloping algebras of
finite-dimensional Lie superalgebras, equips them and their parity smash
products with Hopf structure maps, and verifies identities, normality,
biproduct decompositions, and filtration growth with exact rational
arithmetic and explicit certificates.
"""

from .algebra import (AlgebraPresentation, ConfluenceReport, Element,
                      Generator, TensorElement, check_overlaps,
                      polynomial_presentation)
from .catalog import Session, load_session
from .errors import (AlgebraError, DegreeBudgetError, NonTerminationError,
                     ParseError, PresentationError, UnsupportedFieldError)
from .exprs import parse, parse_list
from .growth import (FiltrationClosure, GrowthReport, centralizer_degree_bounded,
                     growth_series)
from .hopf import BosonizedAlgebra, HopfStructureMaps, bosonize, enveloping
from .liesuper import (LieSuperAlgebra, SubSuperSpace, ad_eigen, load_algebra_file,
                       matrix_superalgebra, pl11, subalgebra_generated,
                       upper_triangular_subalgebra)
from .verify import (CertificateReport, adjoint_left, adjoint_right,
                     biproduct_decomposition, check_ad_equals_bracket,
                     check_antipode, check_bialgebra, check_coassociativity,
                     check_counit, check_grouplike, check_nilpotent_ideal,
                     check_shift_identity, find_skew_primitives, growth_obstruction,
                     hopf_axiom_suite, is_normal, module_finite_check, random_element,
                     render_reports, render_summary, zero_divisor_scan)

__version__ = "0.1.0"
