"""rmcode: exact invariants, duality certificates, and evaluation codes of
finite projective point sets."""

__version__ = "0.1.0"

from .errors import RMCodeError
from .gf import Field
from .polyring import GREVLEX, Poly, TermOrder, parse_poly
from .groebner import (
    GroebnerBasis,
    gb_certify,
    minimal_generator_count,
    standard_monomials_upto,
)
from .variety import (
    HilbertData,
    PointSet,
    VanishingIdeal,
    hilbert_data,
    points_full_projective,
    points_parameterized,
    points_parse,
    points_torus,
    projective_closure,
    symmetry_equiv_check,
    vanishing_ideal,
)
from .indicators import IndicatorSet, standard_indicators
from .codes import (
    LinearCode,
    WeightMatrix,
    dual_code,
    ghw,
    min_distance,
    weight_distribution,
    weight_matrix,
)
from .duality import (
    DualityCertificate,
    global_duality,
    gorenstein_crosscheck,
    gorenstein_selfdual_classify,
    local_duality_verify,
    self_dual_report,
    self_orthogonal,
)
from .artinian import (
    ArtinianClassification,
    artinian_reduce,
    classify,
    find_regular_linear_form,
    socle,
    verify_socle_identities,
)
from .analysis import Analysis
