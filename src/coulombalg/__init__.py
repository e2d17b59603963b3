"""Exact symbolic computation of Coulomb branch algebras.

The library builds the massive pure branch of a torus-times-SU(2) gauge
group, translates it along rational sections of its Toda projection, cuts
out the matter subring of elements with regular translates, presents that
subring by generators and relations, and checks the computations against
the localized equivariant cohomology model of the representation ball.
"""

from .coulomb import (
    MembershipResult,
    RingPresentation,
    SectionSpec,
    abelian_matter_generators,
    blowup_equal,
    blowup_presentation,
    blowup_relations,
    euler_section,
    euler_translation,
    expand,
    matter_membership,
    matter_presentation,
    mu_zero_fiber,
    pure_branch,
    reynolds,
    to_blowup_polynomial,
    translate_by_section,
    weyl_group,
    weyl_symmetrized_generators,
)
from .errors import (
    AlgebraError,
    ExpressionError,
    MorphismError,
    ProblemError,
    ReductionError,
    TableMismatchError,
)
from .fracs import FactoredFraction, FactorSet, unit_decompose
from .groebner import (
    GREVLEX,
    LEX,
    EncodedRing,
    GroebnerBasis,
    Ideal,
    MonomialOrder,
    buchberger,
    elimination_order,
    encode_ring,
    evaluate_tags,
    normal_form,
    ring_map_kernel,
)
from .morphisms import RingMorphism, identity_morphism
from .parsing import parse_expression
from .poly import ExactPolynomial, VariableTable, exact_divide
from .printing import format_element, format_fraction, format_polynomial
from .problems import (
    ProblemFile,
    default_generators,
    load_problem,
    parse_problem_text,
    standard_block_generators,
)
from .rootdata import (
    ROOT_CONVENTION,
    AmbientRing,
    CoulombProblem,
    RootDatum,
    ambient_table,
    weyl_generator_morphisms,
)
from .shmodel import (
    DiagramReport,
    EquivariantRing,
    LocalizedRing,
    acceleration_membership,
    diagonal_seidel,
    equivariant_ring,
    section_homomorphism,
    section_homomorphism_map,
    seidel_operator,
    symplectic_cohomology,
    verify_diagram,
)

__version__ = "0.1.0"
