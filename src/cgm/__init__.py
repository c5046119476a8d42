"""Circuits of conditional Gaussian mixtures.

Typed two-coloured string-diagram terms, a textual syntax, exact
compositional semantics into conditional Gaussian mixtures, the equational
axiom catalog with a randomized soundness harness, and canonical
normal-form synthesis that decides semantic equivalence.
"""

from .diagram import (Colour, Gen, GenKind, Generator, Id, Par, Seq, Swap,
                      Term, TypeWord, bools, identity, mk_generator, par,
                      par_all, reals, seq, seq_all, swap)
from .dsl import export_dot, export_json_ast, parse, parse_file, print_term
from .errors import (BiasOutOfRange, CgmError, DimensionMismatch,
                     InadmissibleBinding, InputCapExceeded, InvalidPath,
                     MissingParam, NoMatch, NonFiniteParam, NonFiniteResult,
                     NotPSD, ParseError, TypeMismatch, UnexpectedParam)
from .gadgets import (gauss_map_circuit, gaussian_circuit, matrix_circuit,
                      mix_gate, nary_copy, permute_term, sort_boundary,
                      thick_ite)
from .linalg import CovFactor, Matrix, Scalar, ldlt
from .axioms import (AxiomSchema, check_soundness, e10_weights, get_axiom,
                     instantiate, rewrite_at, soundness_suite)
from .normalform import (BoolKernel, NFTree, decide_equiv, disintegrate,
                         emit_nf, nftree_equal, synth_bool, synth_cnf)
from .semantics import (CGMixture, GaussComponent, Moments, canonicalize,
                        compose, evaluate, interp_generator, mixture_to_json,
                        mixtures_equal, moments, sample, sample_many, tensor,
                        with_sorted_words)

__version__ = "0.1.0"
