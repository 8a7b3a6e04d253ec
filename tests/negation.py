"""-L for the tests that need negated Laplacians: negative spectra, +I
tiles and zeros of -0.0, which only a float64 copy of the int8 entries
that `build` makes can hold."""

from cubelab.cubegraphs import KRONECKER, GraphMatrix, Structure


def negated(M: GraphMatrix) -> GraphMatrix:
    """M's entries as float64, every one negated (each 0 becomes -0.0), and
    a declared Kronecker factor negated with them, in the same ordering
    (`perm`), through the public constructor."""
    structure = M.structure
    if structure is not None and structure.kind == KRONECKER:
        structure = Structure(KRONECKER, -structure.data, structure.perm)
    return GraphMatrix(M.family, M.kind, M.n, M.ordering, -M.entries.astype(float), structure)
