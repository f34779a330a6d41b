"""Frustration-based entanglement bounds for small spin Hamiltonians.

Build dense many-body spin Hamiltonians from operator strings, choose a
local/interaction splitting, and compare the ground (or excited) state's
geometric entanglement against the bounds that the splitting's frustration
energy and spectra imply.
"""

from .bounds import (
    EntanglementOptions,
    ExcitedBoundReport,
    FrustrationReport,
    ProductSubspace,
    analyze_excited,
    analyze_ground,
    delta_j_ent,
    json_values,
    proof_step_check,
)
from .entanglement import (
    GeometricMeasureResult,
    PureState,
    SchmidtDecomposition,
    brute_force_geometric_measure,
    geometric_measure_bipartite,
    geometric_measure_multipartite,
    geometric_measures_multipartite,
    product_state,
    schmidt,
)
from .linalg import (
    EigenDecomposition,
    NormKind,
    SVDResult,
    appendix_norm_check,
    hermitian_eig,
    operator_abs,
    psd_leq,
    svd,
    ui_norm,
)
from .models import (
    OperatorTerm,
    SpinModel,
    Splitting,
    build_dense,
    chain3,
    dense_bipartite_model,
    interaction_extremes,
    ising2,
    load_model,
    local_spectrum,
    make_builtin,
    regroup,
    split,
    triangle,
)
from .perturbation import (
    PerturbationCheckReport,
    PerturbationInstance,
    check_theorem,
    hermitian_instance,
)
from .saturation import (
    saturation_sweep,
    schmidt_splitting,
)

__version__ = "0.1.0"
