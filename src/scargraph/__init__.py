"""High-girth near-Ramanujan regular graphs with fully localized adjacency
eigenvectors: construction by gluing trees onto an expander base, plus
numerical certification of girth, spectrum, localization and scarring."""

from .graphs import (Ball, ConstructionError, EdgeListFormatError, Graph,
                     ball, bfs_distances, bs_cycle_fraction, build_graph,
                     girth, is_bipartite, is_connected, is_regular,
                     load_edge_list, save_edge_list, shortest_cycle_through,
                     vertex_expansion)
from .named import (complete_graph, cycle_graph, mcgee_graph, path_graph,
                    petersen_graph, random_regular_graph,
                    random_regular_with_girth, star_graph)
from .trees import (DaryTree, RadialSpectrum, adjacent_level_mass_ratios,
                    build_dary_tree, interior_size, level_mass_profile,
                    level_sizes, lift_radial, nearest_radial_eigenvalue,
                    quotient_matrix, radial_spectrum, tree_size)
from .pairing import (Pairing, pair_trees, path_count_cumulative,
                      path_count_exact, path_count_total, girth_target,
                      guaranteed_girth)
from .base import (BaseReport, LpsParams, legendre_symbol, load_graph,
                   lps_graph, quaternion_generators, validate_base)
from .scars import (ScarredGraph, ScarSite, carve_site, expected_vertex_count,
                    glue, greedy_packing, interface_quadratic_bound,
                    localized_eigenvector, multi_glue, odd_level_witness)
from .spectral import (EigensolverError, KahaleInstance, SpectralSummary,
                       TestFunctionSequence, extreme_eigenvalues,
                       kahale_check, kahale_instance, kahale_sequence,
                       residual, second_eigenvector, spectral_threshold,
                       tree_quadratic_bound_check)
from .qe import (LocalizationBounds, PartialLocalization, ScarWitness,
                 localization_bounds, min_support_for_mass,
                 partial_localization, qe_average, scarring_witness)
from .certificate import (Certificate, LocalizedRecord, VerificationReport,
                          build_certificate, girth_bound, verify_certificate)

__version__ = "0.1.0"
