"""Exact seminormal representations and Markov-trace weights for Iwahori-Hecke
algebras of types A, B and D, over rational parameter points."""

from .scalars import ParameterPoint, Rat, admissible_point, parse_rational, \
    specialized_point
from .combinatorics import double_partitions, embed_double, partition_str, \
    partitions, shape_str, standard_tableaux
from .schur import rectangle_schur, schur_normalized, schur_principal
from .reps import HeckeWord, character, evaluate, full_twist_exponent, \
    parse_word, relation_residuals, skew_rep, typeA_rep, typeB_rep, word
from .traces import markov_params, markov_trace_B, markov_trace_D, weight_B, \
    weight_D, weight_table

__version__ = "0.1.0"

__all__ = [
    "ParameterPoint", "Rat", "admissible_point", "parse_rational",
    "specialized_point", "double_partitions", "embed_double", "partition_str",
    "partitions", "shape_str", "standard_tableaux",
    "rectangle_schur", "schur_normalized", "schur_principal", "HeckeWord",
    "character", "evaluate", "full_twist_exponent", "parse_word",
    "relation_residuals", "skew_rep", "typeA_rep", "typeB_rep", "word",
    "markov_params", "markov_trace_B", "markov_trace_D", "weight_B",
    "weight_D", "weight_table",
]
