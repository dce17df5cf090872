"""Exact structure tables, cyclic gradings and thin loop algebras of
modular Lie algebras of Zassenhaus and Hamiltonian type."""

from .errors import (
    ConsecutiveDiamonds,
    DenominatorZero,
    FieldSizeMismatch,
    FieldTooLarge,
    MalformedDiamond,
    Mu3InPrimeField,
    NoAnnihilator,
    NonPrimeCharacteristic,
    NoRootInField,
    NotAdditivelyClosed,
    NotAnIdeal,
    NotASubalgebra,
    NotStabilized,
    ReducibleModulus,
    StructuralFailure,
    TableMismatch,
    ThetaNotAdditive,
    ThinlieError,
)
from .ffield import (
    FieldElement,
    FieldSpec,
    combine_residues,
    field_create,
    find_roots,
    frobenius,
    in_prime_field,
    pth_root,
)
from .liealg import (
    DegreeMap,
    Element,
    MapCheck,
    StructureTable,
    bracket,
    center,
    check_structure_map,
    extend_to_generators,
    quotient_by_ideal,
    subalgebra_table,
    validate_grading,
    validate_table,
)
from .cartan import (
    AlbertFrankSpec,
    CartanParams,
    binom_mod_p,
    build_albert_frank,
    build_H2_phi1,
    build_H2_phi_tau_derived,
    build_H2_second_derived,
    build_W1n,
    coeff_N,
    coeff_Nprime,
    zassenhaus_group_basis,
)
from .grading import (
    EigenBasis,
    ToralParams,
    closed_eigen_table,
    eigenbasis,
    grade_finite,
    grade_mixed,
    params_from_mu3,
    sigma_zero_subalgebra,
    toral_element,
    toral_params,
)
from .thinloop import (
    INFINITY,
    DiamondRecord,
    LoopExpansion,
    ThinReport,
    centralizer_chain,
    check_covering,
    choose_generators,
    classify_type,
    detect_diamonds,
    loop_expand,
    parameter_k,
    thin_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
