"""Exact computational models of homotopes (A-deformations) of classical Lie
algebras, Lie triple systems and groups built from associative matrix algebras
with one or two commuting involutions."""

from .scalars import (HQ, Q, QI, Scalar, SeriesRing, gaussian, quaternion,
                      rational, series_ring)
from .matrices import Matrix, Subspace, block_F, block_I, block_Ipq, block_J
from .involutions import JointDecomposition, MatrixInvolution, joint_eigenspaces
from .homotope import (AlphaMap, AlphaTriple, GenericTriple,
                       LtsReport, PairTriple, ProductSpace, TripleSystem,
                       bracket_param, cdual, check_lts, gamma_act,
                       gamma_intertwines, hom_sxt, hom_sxt_check,
                       standard_imbedding, symmetric_pair, symmetric_pairs,
                       triple_alpha, triple_param)
from .families import (CONSTRUCTIONS, ConstructionDescriptor, FamilyDescriptor,
                       TableArtifact, family, family_axiom_suite,
                       family_labels, hermquat_check, instantiate,
                       verify_table)
from .groups import (GroupElement, cayley_element, g_inv, g_mul, hom_check,
                     membership, tangent_check, u_defect)
from .normalforms import NormalForm, intertwiner_check, normal_form

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
