"""Yang-Mills critical points on surfaces through area-dependent holonomy.

The package finds lattice Yang-Mills critical points by gradient flow,
checks that their holonomy depends on homotopy class and enclosed area
only, implements the centrally extended surface-group word algebra with
its area cocycle, and enumerates the isolated genus-0 classes as integer
weight vectors.

The namespace is lazy (PEP 562): each public name is bound from its
submodule the first time it is reached, so a call pays only for the
modules it uses.  Whenever a name or a submodule is reached, the public
names of every submodule loaded by then are bound together, so vars()
of the package lists every function of every module in use.  The
submodules keep the promise: each imports at load only what all of its
callers need, and a function that alone needs another module imports it
when called.  So solve loads neither words nor _verify, verify does not
load words, and meshes, loops, loop_class and words load neither
liecore nor lattice, reps or _verify.
"""

import importlib as _importlib
import os as _os
import sys as _sys

# Cap the BLAS/OpenMP pools driving the batched lattice sweeps; must happen
# before numpy is first imported.  Default: hardware thread count.
if "AH_NUM_THREADS" in _os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["AH_NUM_THREADS"])

# the public names of each submodule, in the order they are bound
_EXPORTS = {
    "policy": ("DEFAULT_POLICY", "NumericPolicy"),
    "liecore": (
        "BranchCutError",
        "DimensionMismatchError",
        "SkewHermitian",
        "Unitary",
        "commutant_dimension",
        "conjugacy_residual",
        "expm",
        "inner",
        "logm_principal",
        "random_unitary",
    ),
    "surfaces": (
        "MalformedLoopError",
        "MeshLoop",
        "NotNullHomotopicError",
        "SurfaceMesh",
        "UnsupportedMeshError",
        "alpha_loop",
        "beta_loop",
        "build_sphere_mesh",
        "build_torus_mesh",
        "clip_steps",
        "enclosed_area",
        "face_boundary_loop",
        "loop_concat",
        "loop_from_json",
        "loop_reverse",
        "loop_to_json",
        "mesh_from_json",
        "mesh_to_json",
        "random_homotopic_pair",
        "random_loop",
        "torus_windings",
        "wrap_mod1",
    ),
    "words": (
        "GammaRElement",
        "GenusMismatchError",
        "SurfaceWord",
        "clip",
        "format_letters",
        "gamma_inv",
        "gamma_mul",
        "loop_class",
        "parse_letters",
        "relator_letters",
        "std_loop",
        "word_problem",
    ),
    "reps": (
        "InvalidRepError",
        "RepDiagnostics",
        "WeightVector",
        "YangMillsRep",
        "direct_sum",
        "enumerate_sphere_classes",
        "evaluate",
        "irreducible",
        "matrix_from_json",
        "matrix_to_json",
        "sphere_rep",
        "validate_rep",
        "ym_action_value",
    ),
    "lattice": (
        "FlowReport",
        "GaugeField",
        "GaugeTransform",
        "NotConvergedError",
        "apply_gauge",
        "build_ym_field_from_rep",
        "face_curvature",
        "field_from_json",
        "field_to_json",
        "gradient_flow",
        "gradient_norm",
        "loop_holonomy",
        "perturb_field",
        "plaquette_holonomy",
        "random_gauge_transform",
        "shrinking_loop_curvature",
        "total_flux",
        "verify_area_property",
        "ym_action",
        "ym_gradient",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "_loopsteps", "_verify")

# the public submodules are exported too, as the eager namespace bound them
__all__ = [*_EXPORTS, *_MODULE_OF]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        _importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    elif name in _SUBMODULES:
        _importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_loaded()
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})


def _bind_loaded():
    """Bind the public names of every loaded submodule, keeping any name
    already bound (a caller may have rebound it)."""
    namespace = globals()
    for module_name, names in _EXPORTS.items():
        module = _sys.modules.get(f"{__name__}.{module_name}")
        if module is not None:
            for name in names:
                namespace.setdefault(name, getattr(module, name))
