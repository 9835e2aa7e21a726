"""Exact-arithmetic bi-orderability obstructions for knot groups Z x| F_n."""

from .exactalg import (Factor, FactorReport, IntMatrix, NonSquarefreeError,
                       Poly, SturmChain, ZeroPolynomialError,
                       all_roots_positive_real, char_poly, count_negative_roots,
                       count_positive_roots, count_real_roots, factor_over_Q,
                       has_positive_real_root, rational_roots,
                       squarefree_decomposition, squarefree_part, sturm_count)
from .freegroup import (FreeMap, Generator, NotAnAutomorphismError, Word,
                        apply_map, commutator, compose, format_word, identity,
                        identity_map, invert, letter, multiply, parse_word,
                        reduce, verify_automorphism)
from .lcs import (LyndonBasis, QuotientAction, lcs_action, lyndon_basis,
                  lyndon_words, witt_number)
from .magnus import (EQ, GT, LT, LowestTerm, Series, archimedean_key, compare,
                     expand, in_gamma, is_infinitesimal, lowest_term, magnitude,
                     series_mul, sign)
from .orderprops import (ProbeConfig, ProbeResult, WeakComparabilityResult,
                         commutator_infinitesimal_probe, dominant_check,
                         invariance_probe, normality_probe,
                         order_preservation_probe, semidirect_compare,
                         semidirect_mul, semidirect_order_probe, subgroup_probe,
                         weak_comparability_search)
from .presentation import (PresentationError, PresentationFile,
                           parse_presentation, serialize_presentation)
from .verdict import (AnalysisReport, KnotRecord, LevelReport, Verdict, analyze,
                      classify_zd, lambda_block_obstruction,
                      necessary_positive_eigenvalue)

__version__ = "0.1.0"
