"""Distributed solution of linear systems on double-layered networks.

Clusters of agents cooperate to solve A x = b: under the row scheme every
cluster owns a band of rows and reaches consensus with the other clusters
while its agents keep a local conservation balance; under the column scheme
every cluster owns a band of columns, its agents agree among themselves, and
conservation holds globally across clusters.
"""

from .linalg import Spectrum, as_matrix, as_vector, eig, solve_least_squares
from .graph import (
    DisconnectedGraphError,
    Graph,
    Topology,
    build_graph,
    laplacian,
    lifted_laplacian,
)
from .partition import (
    Layout,
    LayoutMismatchError,
    Partition,
    ProblemInstance,
    TopologyMismatchError,
    partition_columns,
    partition_rows,
)
from .dynamics import (
    DerivativePlan,
    ShapeMismatchError,
    reassembled_solution,
    sample_residuals,
)
from .spectral import (
    CompactSystem,
    InconsistentSystemError,
    Lift,
    SaddleBlocks,
    SpectralVerdict,
    StructureError,
    assemble_compact,
    check_drift_spectrum,
    check_saddle_spectrum,
    equilibrium_certificate,
    spectrum_verdict,
)
from .simulator import (
    InsufficientSamplesError,
    NonFiniteStateError,
    SimConfig,
    SimResult,
    Trajectory,
    fit_convergence_rate,
    fit_log_decay,
    integrate,
)

__all__ = [
    "Spectrum",
    "as_matrix",
    "as_vector",
    "eig",
    "solve_least_squares",
    "DisconnectedGraphError",
    "Graph",
    "Topology",
    "build_graph",
    "laplacian",
    "lifted_laplacian",
    "Layout",
    "LayoutMismatchError",
    "Partition",
    "ProblemInstance",
    "TopologyMismatchError",
    "partition_columns",
    "partition_rows",
    "DerivativePlan",
    "ShapeMismatchError",
    "reassembled_solution",
    "sample_residuals",
    "CompactSystem",
    "InconsistentSystemError",
    "Lift",
    "SaddleBlocks",
    "SpectralVerdict",
    "StructureError",
    "assemble_compact",
    "check_drift_spectrum",
    "check_saddle_spectrum",
    "equilibrium_certificate",
    "spectrum_verdict",
    "InsufficientSamplesError",
    "NonFiniteStateError",
    "SimConfig",
    "SimResult",
    "Trajectory",
    "fit_convergence_rate",
    "fit_log_decay",
    "integrate",
]

__version__ = "0.1.0"
