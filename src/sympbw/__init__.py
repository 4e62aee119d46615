"""Symplectic PBW degenerations: polytopes, tableaux, degenerate Pluecker relations."""

from .liealg import Root, positive_roots, root_vector_matrix, root_vector_weight, weyl_dimension
from .fflv import FFLVInequality, contains, dyck_paths, fflv_inequalities, lattice_points
from .tableaux import enumerate_tableaux, is_symplectic_pbw_semistandard, tableau_weight
from .correspondence import monomial_to_tableau, order_monomial, tableau_to_monomial

__version__ = "0.1.0"
