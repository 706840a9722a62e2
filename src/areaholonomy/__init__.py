"""Yang-Mills critical points on surfaces through area-dependent holonomy.

The package finds lattice Yang-Mills critical points by gradient flow,
checks that their holonomy depends on homotopy class and enclosed area
only, implements the centrally extended surface-group word algebra with
its area cocycle, and enumerates the isolated genus-0 classes as integer
weight vectors.
"""

import os as _os

# Cap the BLAS/OpenMP pools driving the batched lattice sweeps; must happen
# before numpy is first imported.  Default: hardware thread count.
if "AH_NUM_THREADS" in _os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["AH_NUM_THREADS"])

from .policy import DEFAULT_POLICY, NumericPolicy
from .liecore import (
    BranchCutError,
    DimensionMismatchError,
    SkewHermitian,
    Unitary,
    commutant_dimension,
    conjugacy_residual,
    expm,
    inner,
    logm_principal,
    random_skew_hermitian,
    random_unitary,
)
from .surfaces import (
    MalformedLoopError,
    MeshLoop,
    NotNullHomotopicError,
    SurfaceMesh,
    UnsupportedMeshError,
    alpha_loop,
    beta_loop,
    build_sphere_mesh,
    build_torus_mesh,
    clip_steps,
    enclosed_area,
    face_boundary_loop,
    loop_concat,
    loop_from_json,
    loop_reverse,
    loop_to_json,
    mesh_from_json,
    mesh_to_json,
    random_homotopic_pair,
    random_loop,
    torus_windings,
    wrap_mod1,
)
from .words import (
    GammaRElement,
    GenusMismatchError,
    SurfaceWord,
    clip,
    format_letters,
    gamma_from_json,
    gamma_identity,
    gamma_inv,
    gamma_mul,
    gamma_to_json,
    loop_class,
    parse_letters,
    relator_letters,
    std_loop,
    word_problem,
)
from .reps import (
    InvalidRepError,
    RepDiagnostics,
    WeightVector,
    YangMillsRep,
    direct_sum,
    enumerate_sphere_classes,
    evaluate,
    irreducible,
    matrix_from_json,
    matrix_to_json,
    rep_from_json,
    rep_to_json,
    sphere_rep,
    validate_rep,
    ym_action_value,
)
from .lattice import (
    FlowReport,
    GaugeField,
    GaugeTransform,
    NotConvergedError,
    apply_gauge,
    build_ym_field_from_rep,
    face_curvature,
    field_from_json,
    field_to_json,
    gradient_flow,
    gradient_norm,
    loop_holonomy,
    perturb_field,
    plaquette_holonomy,
    random_gauge_transform,
    shrinking_loop_curvature,
    total_flux,
    verify_area_property,
    ym_action,
    ym_gradient,
)

__version__ = "0.1.0"
