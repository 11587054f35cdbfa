"""Exact Kazhdan-Lusztig combinatorics on pircons.

A pircon is a poset in which every non-minimal element's lower order ideal
is finite and admits a special partial matching.  This package builds such
posets from finite Coxeter groups (parabolic quotients) and from twisted
identities of symmetric groups, computes their R^x- and P^x-polynomial
families exactly, verifies the structural symmetries that make the
P-polynomials exist, and realizes the two Hecke-algebra module structures
with their Kazhdan-Lusztig bases.
"""

from .laurent import HalfLaurent, QPoly
from .posets import GradedPoset, PosetError, from_comparability
from .coxeter import (CoxeterError, CoxeterSystem, ParabolicQuotient,
                      SizeBoundError)
from .matchings import (MatchingError, OrbitClassificationError, OrbitReport,
                        PartialMatching, check_lifting, coherent,
                        enumerate_spms, is_dircon, orbit_analysis,
                        orbit_partition, strictly_coherent, verify_pircon,
                        verify_qspm, verify_spm)
from .klpoly import (KernelError, PirconSystem, PolyTable, Refinement,
                     X_MINUS_ONE, X_PARAMS, X_Q, all_refinements,
                     brenti_identity, check_pkernel, check_updown,
                     down_matchings, is_calculating, kls_polynomials,
                     lambda_refinement, other_x, r_polynomials,
                     system_refinement, verify_pircon_system,
                     verify_r_properties)
from .hecke import (HeckeContext, ModuleVector, OffsetError, WidthError,
                    characterize, cprime_recursion, iota, kl_element_c,
                    kl_element_cprime, p_recursion, t_action, verify_duality,
                    verify_hecke_relations, verify_recursion)
from .twisted import TwistedIdentities

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
