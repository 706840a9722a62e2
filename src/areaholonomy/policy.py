"""Central numeric policy: every tolerance used across the package lives here.

The values are fixed: every check reads its threshold from DEFAULT_POLICY,
and no operation takes a tolerance of its own.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericPolicy:
    # matrix invariants
    skew_tol: float = 1e-12          # ||X + X*||_F for skew-Hermitian inputs
    unitary_tol: float = 1e-12       # ||U U* - I||_F and |det| - 1
    inner_imag_tol: float = 1e-12    # imaginary leakage allowed in tr(X Y*)

    # principal-branch matrix logarithm
    eps_branch: float = 1e-8         # angular distance to -1 that triggers BranchCut

    # linear-algebra rank decisions
    commutant_svd_tol: float = 1e-9  # singular values below this count as null space

    # representation constraints
    rep_tol: float = 1e-9            # relator / centrality residual bound

    # word algebra
    t_tol: float = 1e-9              # |t| tolerance in word_problem

    # mesh construction
    area_sum_tol: float = 1e-12      # |sum(face_areas) - 1|


DEFAULT_POLICY = NumericPolicy()
