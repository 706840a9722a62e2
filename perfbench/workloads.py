"""The benchmark's workloads: their names, sizes and command lines.

Standard library only, so run.py can import it without numpy.
"""

from __future__ import annotations

import math

FLOW_TORUS = "flow-torus-u1"
FLOW_SPHERE = "flow-sphere-u2"
VERIFY_TORUS = "verify-torus"
GROUP_CLASSES = "group-classes"
NAMES = (FLOW_TORUS, FLOW_SPHERE, VERIFY_TORUS, GROUP_CLASSES)

# Flow workloads: mesh and structure group dimension, flux-1 sector.
SOLVES = {FLOW_TORUS: ("torus:32", 1), FLOW_SPHERE: ("sphere:4", 2)}
FLUX = 1
SOLVE_TOL = 1e-9
SECTOR_MINIMUM = 4 * math.pi**2 * FLUX**2
ACTION_TOL = 1e-6

# verify-torus: the exact flux-1 field on torus:VERIFY_GRID, random pairs.
VERIFY_GRID = 32
VERIFY_PAIRS = 200
VERIFY_TOL = 1e-6
CONTROL_PERTURB = 0.1
CONTROL_MIN_RESIDUAL = 1e-2

# group-classes: homomorphism checks on two meshes, then long words.
CLASSES_TORUS_GRID = 32
CLASSES_SPHERE_SUBDIVISION = 8
TORUS_CHECKS = 100
TORUS_LOOP_STEPS = 24
SPHERE_CHECKS = 60
SPHERE_LOOP_STEPS = 24
# (genus, letters) of the words; fixed lengths, because Dehn reduction is
# quadratic and seed-drawn lengths would make the cost vary from seed to seed
WORDS = ((2, 2000), (3, 4000), (2, 6000), (3, 8000))


def cli_args(workload: str, seed: int, work: str, tag: str, *, field: str = "", perturb: float = 0.0) -> list[str]:
    """Arguments of the `areaholonomy` command a CLI workload runs.

    Solve writes its field and report under `work`, named by `tag`, so the
    files of repeated runs can be compared byte for byte.
    """
    if workload in SOLVES:
        mesh, n = SOLVES[workload]
        return [
            "solve", "--mesh", mesh, "--n", str(n), "--flux", str(FLUX), "--seed", str(seed),
            "--tol", repr(SOLVE_TOL), "--out", f"{work}/field-{tag}.json", "--report", f"{work}/report-{tag}.json",
        ]
    if workload == VERIFY_TORUS:
        args = ["verify", "--field", field, "--random", str(VERIFY_PAIRS), "--seed", str(seed),
                "--tol", repr(VERIFY_TOL), "--json"]
        if perturb:
            args += ["--perturb", repr(perturb)]
        return args
    raise ValueError(f"{workload} is not a CLI workload")
