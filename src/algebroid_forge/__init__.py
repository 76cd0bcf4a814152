"""algebroid-forge: exact symbolic verification for the calculus of Poisson
quasi-Nijenhuis Lie algebroids on rational-function charts."""

from .calculus import (
    AlgebroidPresentation,
    BundleMorphism,
    GradedSection,
    check_axioms,
    differential,
    insert,
    lie_derivative,
    pairing,
    pullback,
    schouten,
    tangent_algebroid,
    wedge,
)
from .courant import (
    CourantDouble,
    CourantSection,
    GeneralizedDirac,
    SplitSubbundle,
    Submanifold,
    build_morphism_graph,
    check_generalized_dirac,
    check_split_dirac,
    conjugate,
    dorfman,
    product,
    qlb_double,
    skew_bracket,
    standard_double,
    twisted_double,
    verify_courant_axioms,
)
from .paired import (
    PairedOperator,
    build_deformed_double,
    check_generalized_complex,
    check_paired,
    check_theorem_pqn_from_paired,
    check_torsion_blocks,
    courant_nijenhuis_torsion,
    deformed_courant_bracket,
)
from .pn import (
    PqnStructure,
    QuasiLieBialgebroid,
    build_qlb_from_pqn,
    check_compatible,
    check_pqn,
    check_qlb,
    check_qlb_morphism,
    check_twisted_poisson,
    d_n,
    deformed_bracket,
    magri_morosi,
    nijenhuis_torsion,
    nstar_pullback,
    pi_sharp,
    poisson_bracket,
    qlb_from_closed3form,
    qlb_from_twisted_poisson,
    twisted_bracket,
    twisted_differential,
    verify_lemma_tnstar,
)
from .rational import Polynomial, RationalFunction, parse_scalar
from .reporting import Clause, Report

__version__ = "0.1.0"
