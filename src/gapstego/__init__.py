"""Steganography in the gap structure of secret numerical semigroups.

The sender and receiver share a private generating set.  Payload bytes
travel as integers that are gaps of the shared semigroup, chosen so the
residue of each value mod 16 carries one nibble; anyone without the key
sees a stream of integers whose values sit in a set of density one half
and whose residues are uniform only for uniformly random payloads.
"""

from __future__ import annotations

from .analysis import (
    AnalysisReport,
    ResidueTally,
    build_report,
    gap_density,
    residue_histogram,
)
from .codec import (
    CipherStream,
    GapIndex,
    SaltSpec,
    build_gap_index,
    decode_message,
    desalt_stream,
    encode_message,
    generator_from,
    measure_salt_gap_preservation,
    salt_stream,
    verify_stream,
)
from .errors import (
    DegenerateProgressionError,
    ElementOneError,
    EmptyClassError,
    EmptySetError,
    FormatError,
    GapstegoError,
    GcdNotOneError,
    InsufficientSamplesError,
    LimitError,
    NegativeInputError,
    NonPositiveElementError,
    NotCoprimeError,
    OddLengthError,
    ValueExceedsPeriodError,
    ViabilityFailure,
)
from .formats import (
    KeyFile,
    parse_key,
    parse_stream,
    read_stream,
    serialize_key,
    serialize_stream,
)
from .formulas import (
    BoundReport,
    GeometricSpec,
    ProgressionSpec,
    davison_check,
    geometric_frobenius,
    progression_frobenius,
    sigma,
    sylvester,
    wilf_check,
)
from .keygen import (
    KeyViability,
    KeygenParams,
    check_viability,
    choose_salt_pair,
    generate_key,
)
from .semigroup import (
    GeneratingSet,
    SemigroupTable,
    brute_force_sieve,
    build_table,
    is_telescopic,
    minimal_generators,
    validate_generators,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BoundReport",
    "CipherStream",
    "DegenerateProgressionError",
    "ElementOneError",
    "EmptyClassError",
    "EmptySetError",
    "FormatError",
    "GapIndex",
    "GapstegoError",
    "GcdNotOneError",
    "GeneratingSet",
    "GeometricSpec",
    "InsufficientSamplesError",
    "KeyFile",
    "KeyViability",
    "KeygenParams",
    "LimitError",
    "NegativeInputError",
    "NonPositiveElementError",
    "NotCoprimeError",
    "OddLengthError",
    "ProgressionSpec",
    "ResidueTally",
    "SaltSpec",
    "SemigroupTable",
    "ValueExceedsPeriodError",
    "ViabilityFailure",
    "brute_force_sieve",
    "build_gap_index",
    "build_report",
    "build_table",
    "check_viability",
    "choose_salt_pair",
    "davison_check",
    "decode_message",
    "desalt_stream",
    "encode_message",
    "gap_density",
    "generate_key",
    "generator_from",
    "geometric_frobenius",
    "is_telescopic",
    "measure_salt_gap_preservation",
    "minimal_generators",
    "parse_key",
    "parse_stream",
    "progression_frobenius",
    "read_stream",
    "residue_histogram",
    "salt_stream",
    "serialize_key",
    "serialize_stream",
    "sigma",
    "sylvester",
    "validate_generators",
    "verify_stream",
    "wilf_check",
]
