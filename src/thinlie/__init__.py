"""Exact structure tables, cyclic gradings and thin loop algebras of
modular Lie algebras of Zassenhaus and Hamiltonian type.

The public names resolve on first read (PEP 562): ``thinlie.X`` and
``from thinlie import X`` import the submodule that defines X and cache X
in this package, so ``import thinlie.ffield`` loads errors and ffield
alone.
"""

from importlib import import_module

# each submodule re-exported here, with the public names it defines
_EXPORTS = {
    "errors": (
        "ConsecutiveDiamonds",
        "DenominatorZero",
        "FieldSizeMismatch",
        "FieldTooLarge",
        "MalformedDiamond",
        "Mu3InPrimeField",
        "NoAnnihilator",
        "NonPrimeCharacteristic",
        "NoRootInField",
        "NotAdditivelyClosed",
        "NotAnIdeal",
        "NotASubalgebra",
        "NotStabilized",
        "ReducibleModulus",
        "StructuralFailure",
        "TableMismatch",
        "ThetaNotAdditive",
        "ThinlieError",
    ),
    "ffield": (
        "FieldElement",
        "FieldSpec",
        "combine_residues",
        "field_create",
        "find_roots",
        "frobenius",
        "in_prime_field",
        "pth_root",
    ),
    "liealg": (
        "DegreeMap",
        "Element",
        "MapCheck",
        "StructureTable",
        "bracket",
        "center",
        "check_structure_map",
        "validate_grading",
        "validate_table",
    ),
    "cartan": (
        "AlbertFrankSpec",
        "CartanParams",
        "binom_mod_p",
        "build_albert_frank",
        "build_H2_phi1",
        "build_H2_phi_tau_derived",
        "build_H2_second_derived",
        "build_W1n",
        "coeff_N",
        "coeff_Nprime",
        "zassenhaus_group_basis",
    ),
    "grading": (
        "EigenBasis",
        "ToralParams",
        "eigenbasis",
        "grade_finite",
        "grade_mixed",
        "params_from_mu3",
        "sigma_zero_subalgebra",
        "toral_element",
        "toral_params",
    ),
    "thinloop": (
        "INFINITY",
        "DiamondRecord",
        "LoopExpansion",
        "ThinReport",
        "centralizer_chain",
        "check_covering",
        "choose_generators",
        "classify_type",
        "detect_diamonds",
        "loop_expand",
        "parameter_k",
        "thin_report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return __all__
