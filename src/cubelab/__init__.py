"""Cube graph families over {0,1}^n and {-1,0,1}^n: distance, adjacency,
and cotan-Laplacian matrices, their eigenspectra, and machine verification
of the closed-form spectra, sequence identities, and combinatorial
formulas they satisfy."""

from .bitspace import (
    BINARY,
    GRAY,
    TERNARY,
    TERNARY_GRAY,
    TernaryVertex,
    enumerate_addresses,
    hamming,
    ternary_ordering,
    ternary_vertex,
)
from .cubegraphs import (
    GraphMatrix,
    eulerian_circuit,
    hamming_distance_matrix,
    ncube_adjacency,
    pow_cube_adjacency,
    pow_hamming_matrix,
    pow_tricube_laplacian,
    regular_tricube_adjacency,
    tricube_laplacian,
)
from .harmonic import kernel_basis, min_energy_search
from .meshcotan import (
    BOTH,
    EVEN,
    ODD,
    TriMesh,
    build_cube_cotan_geometric,
    build_wdm,
    cotan_weight,
    cube_face_triangulation,
    dirichlet_energy,
)
from .predicates import caf, logistic, n_related, n_shared
from .sequences import (
    ball_measures,
    fine_structure,
    generate,
    pow_hamming_extremes,
    vector_equilibrium,
)
from .spectra import (
    Spectrum,
    eig_sym,
    ramanujan_check,
    spectral_stats,
)
from .verify import run_verification

__version__ = "0.1.0"
