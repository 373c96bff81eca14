"""Walsh spectra of x -> Tr(x^d) over GF(2^m) and weight distributions of the
cyclic codes whose two nonzeros are alpha^-d and alpha^-1."""

from .errors import (
    DomainError,
    NonInvertibleError,
    UnsupportedError,
    WalshLabError,
)
from .field import DEFAULT_TABLE_CAP, PRIMITIVE_POLY, Field, make_field, mod_inverse
from .walsh import (
    Histogram,
    Spectrum,
    fwht,
    fwht_columns,
    sign_transforms,
    subfield_sum_check,
    tables_per_block,
    truth_table,
    walsh_coefficient,
    walsh_coefficients_at,
    walsh_coefficients,
    walsh_coefficients_naive,
    walsh_spectrum,
)
from .code import (
    Codeword,
    WeightDistribution,
    codeword,
    exhaustive_weight_histogram,
    is_degenerate_exponent,
    min_distance,
    spectrum_to_weights,
    weight_distribution,
    weight_of_pair,
)
from .analysis import (
    BoundCheck,
    CensusReport,
    CharacterSum,
    ExponentProfile,
    NoSixReport,
    PowerMultiset,
    SarwateCheck,
    SolutionSet,
    SquareIdentitySummary,
    SubfieldIdentities,
    character_sum_from_multiset,
    check_bound,
    check_exponents,
    check_no_six,
    check_sarwate,
    conjugate_power_multiset,
    coset_leaders,
    dickson_is_permutation,
    dickson_value,
    exponent_profile,
    family_spectrum,
    sextic_census,
    subfield_character_sum,
    subfield_identities,
    walsh_from_solutions,
    walsh_solution_set,
    weighted_walsh_identity,
)
from .predict import (
    SpectrumComparison,
    compare,
    predicted_spectrum,
    predicted_spectrum_t_even,
    predicted_spectrum_t_odd,
)

__version__ = "0.1.0"
