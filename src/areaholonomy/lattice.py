"""Discrete connections: edge unitaries, curvature, action, gradient flow.

The action is log-based, sum over faces of ||log plaquette||^2 / area: its
critical points have exactly constant curvature density, which is what the
holonomy-area verification needs (no O(a^2) distortion as with the Wilson
action).  Holonomies multiply in traversal order, so the product over a
concatenated loop is the product of the holonomies; gauge transforms act
as U_e -> g(tail) U_e g(head)^-1 and conjugate based holonomies by the
value at the basepoint.

Gradient sweeps are bulk-synchronous: all edge gradients are computed from
one field snapshot, then all edges are updated.  Fields are value-semantic
snapshots and never mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .liecore import (
    BranchCutError,
    SkewHermitian,
    Unitary,
    expm_raw,
    haar_unitary_raw,
    logm_raw,
    matrix_from_json,
    matrix_to_json,
    require_unitary,
)
from .policy import DEFAULT_POLICY, NumericPolicy
from .reps import InvalidRepError, YangMillsRep, validate_rep
from .surfaces import (
    MeshLoop,
    SurfaceMesh,
    TorusGrid,
    UnsupportedMeshError,
    area_potential,
    clip_steps,
    enclosed_area,
    face_boundary_loop,
    integrate_faces,
    loop_concat,
    loop_reverse,
    mesh_from_json,
    mesh_to_json,
    required_keys,
    validate_loop,
)


class NotConvergedError(RuntimeError):
    """Gradient flow stopped above tolerance: its iteration or step-halving
    budget ran out, or it stalled at machine precision (report.stop_reason)."""

    def __init__(self, message: str, report: "FlowReport", field: "GaugeField"):
        super().__init__(message)
        self.report = report
        self.field = field


@dataclass(frozen=True)
class StepPolicy:
    """Backtracking line-search parameters; the step resets every iteration.

    initial_step None picks 1 along the abelian Newton direction (the full
    step to the sector minimum) and min(face_areas)/4 along the gradient,
    matching the 1/area scale of the action Hessian so the first trial is
    already near the stable range.  A given initial_step is used for both.
    """

    initial_step: Optional[float] = None
    shrink: float = 0.5
    max_halvings: int = 40


@dataclass
class FlowReport:
    """Flow summary: recorded actions are nonincreasing up to a few ulps of
    the action value (the flow keeps contracting the gradient after action
    differences fall below evaluation precision).  stop_reason is
    "converged", "halving_budget", "iteration_budget" or "stall" (the step
    underflowed to the identity), and None in report files that predate it."""

    iterations: int
    final_action: float
    final_gradient_norm: float
    step_history: Optional[list[tuple[int, float, float]]] = None
    seed: Optional[int] = None
    stop_reason: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_action": self.final_action,
            "final_gradient_norm": self.final_gradient_norm,
            "step_history": (
                None
                if self.step_history is None
                else [[i, a, g] for i, a, g in self.step_history]
            ),
            "seed": self.seed,
            "stop_reason": self.stop_reason,
        }

    @staticmethod
    def from_json(obj: dict) -> "FlowReport":
        history = obj.get("step_history")
        return FlowReport(
            int(obj["iterations"]),
            float(obj["final_action"]),
            float(obj["final_gradient_norm"]),
            None if history is None else [(int(i), float(a), float(g)) for i, a, g in history],
            obj.get("seed"),
            obj.get("stop_reason"),
        )


class GaugeField:
    """One unitary per undirected edge, in the edge's canonical orientation."""

    __slots__ = ("mesh", "n", "U")

    def __init__(self, mesh: SurfaceMesh, values: np.ndarray, *, policy: NumericPolicy = DEFAULT_POLICY):
        values = np.array(values, dtype=np.complex128)
        if values.ndim != 3 or values.shape != (len(mesh.edges), values.shape[1], values.shape[1]):
            raise ValueError("field values must have shape (E, n, n)")
        require_unitary(values, policy.unitary_tol, "an edge matrix")
        values.setflags(write=False)
        self.mesh = mesh
        self.n = values.shape[1]
        self.U = values

    @staticmethod
    def identity(mesh: SurfaceMesh, n: int) -> "GaugeField":
        values = np.broadcast_to(np.eye(n, dtype=np.complex128), (len(mesh.edges), n, n)).copy()
        return GaugeField(mesh, values)

    def __repr__(self) -> str:
        return f"GaugeField(edges={len(self.mesh.edges)}, n={self.n})"


class GaugeTransform:
    """One unitary per vertex."""

    __slots__ = ("g",)

    def __init__(self, values: np.ndarray, *, policy: NumericPolicy = DEFAULT_POLICY):
        values = np.array(values, dtype=np.complex128)
        require_unitary(values, policy.unitary_tol, "a gauge transform entry")
        values.setflags(write=False)
        self.g = values


# ---------------------------------------------------------------------------
# mesh engine: batched plaquette / log / gradient kernels

class _Engine:
    def __init__(self, mesh: SurfaceMesh):
        self.mesh = mesh
        self.areas = np.asarray(mesh.face_areas, dtype=np.float64)
        by_len: dict[int, list[int]] = {}
        for f_idx, face in enumerate(mesh.faces):
            by_len.setdefault(len(face), []).append(f_idx)
        self.groups = []
        for m, faces in sorted(by_len.items()):
            edge_idx = np.array([[e for e, _ in mesh.faces[f]] for f in faces], dtype=np.intp)
            signs = np.array([[s for _, s in mesh.faces[f]] for f in faces], dtype=np.int8)
            self.groups.append((np.array(faces, dtype=np.intp), edge_idx, signs))

    @staticmethod
    def _gather(U: np.ndarray, edges: np.ndarray, signs: np.ndarray) -> np.ndarray:
        w = U[edges]
        flipped = w.conj().swapaxes(-1, -2)
        return np.where((signs < 0)[:, None, None], flipped, w)

    def plaquettes(self, U: np.ndarray) -> np.ndarray:
        n = U.shape[-1]
        out = np.empty((len(self.mesh.faces), n, n), dtype=np.complex128)
        for faces, edge_idx, signs in self.groups:
            acc = self._gather(U, edge_idx[:, 0], signs[:, 0])
            for j in range(1, edge_idx.shape[1]):
                acc = acc @ self._gather(U, edge_idx[:, j], signs[:, j])
            out[faces] = acc
        return out

    def logs(self, U: np.ndarray, eps_branch: float) -> np.ndarray:
        return logm_raw(self.plaquettes(U), eps_branch=eps_branch)

    def action_from_logs(self, x: np.ndarray) -> float:
        norms = np.sum(np.abs(x) ** 2, axis=(1, 2))
        return float(np.sum(norms / self.areas))

    def gradient_from_logs(self, U: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Riemannian gradient: d/ds S(exp(sZ) U_e) = <G_e, Z>.

        Pairing against log H kills the dexp factor (they commute), so each
        occurrence of an edge in a face boundary contributes the face log
        transported to that edge's frame by the boundary prefix.
        """
        n = U.shape[-1]
        grad = np.zeros((U.shape[0], n, n), dtype=np.complex128)
        eye = np.eye(n, dtype=np.complex128)
        for faces, edge_idx, signs in self.groups:
            xg = x[faces]
            coeff = 2.0 / self.areas[faces]
            prefix = np.broadcast_to(eye, (len(faces), n, n))
            for j in range(edge_idx.shape[1]):
                w = self._gather(U, edge_idx[:, j], signs[:, j])
                nxt = prefix @ w
                q = np.where((signs[:, j] > 0)[:, None, None], prefix, nxt)
                contrib = q.conj().swapaxes(-1, -2) @ xg @ q
                contrib = contrib * (signs[:, j] * coeff)[:, None, None]
                np.add.at(grad, edge_idx[:, j], contrib)
                prefix = nxt
        return grad

    def _coboundary(self, y: np.ndarray) -> np.ndarray:
        """D y: the signed sum of edge values around each face."""
        out = np.empty(len(self.mesh.faces))
        for faces, edge_idx, signs in self.groups:
            out[faces] = np.sum(signs * y[edge_idx], axis=1)
        return out

    def _dual_laplacian_solve(self, r: np.ndarray) -> np.ndarray:
        """Conjugate gradients for K psi = r, K = D D^T the dual-graph
        Laplacian (F x F, never formed); r must sum to zero.  Stops at
        relative residual 1e-14, after F iterations, or when p K p is not
        positive."""
        psi = np.zeros_like(r)
        res = r.copy()
        p = res.copy()
        rr = float(res @ res)
        stop = 1e-28 * rr
        for _ in range(len(r)):
            if rr <= stop:
                break
            # D^T p: each edge lies in one face with sign +1 and one with -1
            kp = self._coboundary(p[self.mesh.plus_face] - p[self.mesh.minus_face])
            pkp = float(p @ kp)
            if not pkp > 0:
                break
            alpha = rr / pkp
            psi += alpha * p
            res -= alpha * kp
            rr, rr_old = float(res @ res), rr
            p = res + (rr / rr_old) * p
        return psi

    def abelian_newton(self, x: np.ndarray) -> np.ndarray:
        """Edge angles delta whose removal takes n = 1 face logs x to the
        sector minimum: D delta = theta - Phi A / sum(A), with theta the
        face log phases and Phi their sum.  The action is quadratic in the
        edge angles on the principal branch, so this is the exact Newton
        step; delta = D^T psi is the minimum-norm (co-exact) solution,
        the one gradient descent converges to."""
        theta = x[:, 0, 0].imag
        r = theta - np.sum(theta) * self.areas / np.sum(self.areas)
        r -= np.mean(r)
        psi = self._dual_laplacian_solve(r)
        return psi[self.mesh.plus_face] - psi[self.mesh.minus_face]


def _engine_for(mesh: SurfaceMesh) -> _Engine:
    engine = getattr(mesh, "_lattice_engine", None)
    if engine is None:
        engine = _Engine(mesh)
        mesh._lattice_engine = engine
    return engine


def _grad_norm(grad: np.ndarray) -> float:
    """Frobenius norm of a whole gradient stack (the flow's stopping quantity)."""
    return float(np.sqrt(np.sum(np.abs(grad) ** 2)))


def _unitarize(values: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step U (3I - U* U) / 2 towards the unitary polar
    factor, batched over leading axes.  The input must already be unitary
    to well below 1 (the flow's trials exp(-eta G) U and the sphere
    builder's w diag(e^{i theta}) w* are within about 3e-15): the step
    squares the error ||U* U - I||, and it diverges far from U(n)."""
    gram = values.conj().swapaxes(-1, -2) @ values
    return values @ (3.0 * np.eye(values.shape[-1]) - gram) / 2.0


# ---------------------------------------------------------------------------
# observables

def plaquette_holonomy(field: GaugeField, face: int) -> Unitary:
    """Ordered product of edge unitaries around the face boundary."""
    if not (0 <= face < len(field.mesh.faces)):
        raise ValueError(f"face index {face} out of range")
    return loop_holonomy(field, face_boundary_loop(field.mesh, face))


def face_curvature(field: GaugeField, face: int, *, policy: NumericPolicy = DEFAULT_POLICY) -> SkewHermitian:
    """Curvature density log(plaquette)/area; principal branch required."""
    p = plaquette_holonomy(field, face)
    x = logm_raw(p.mat, eps_branch=policy.eps_branch)
    return SkewHermitian(x / field.mesh.face_areas[face])


def ym_action(field: GaugeField, *, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Sum over faces of area * ||curvature density||^2; zero iff flat."""
    engine = _engine_for(field.mesh)
    return engine.action_from_logs(engine.logs(field.U, policy.eps_branch))


def ym_gradient(field: GaugeField, *, policy: NumericPolicy = DEFAULT_POLICY) -> list[SkewHermitian]:
    """Per-edge Riemannian gradient of the action (left-invariant frame)."""
    engine = _engine_for(field.mesh)
    grad = engine.gradient_from_logs(field.U, engine.logs(field.U, policy.eps_branch))
    skew = (grad - grad.conj().swapaxes(-1, -2)) / 2.0
    return [SkewHermitian(skew[e]) for e in range(len(field.mesh.edges))]


def gradient_norm(field: GaugeField, *, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    engine = _engine_for(field.mesh)
    return _grad_norm(engine.gradient_from_logs(field.U, engine.logs(field.U, policy.eps_branch)))


def total_flux(field: GaugeField, *, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Sum of plaquette log phases; integer multiple of 2 pi for n = 1."""
    engine = _engine_for(field.mesh)
    x = engine.logs(field.U, policy.eps_branch)
    return float(np.sum(np.trace(x, axis1=1, axis2=2).imag))


# ---------------------------------------------------------------------------
# gradient flow

def gradient_flow(
    field: GaugeField,
    step_policy: Optional[StepPolicy] = None,
    tol: float = 1e-9,
    max_iter: int = 20000,
    *,
    record_history: bool = False,
    seed: Optional[int] = None,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> tuple[GaugeField, FlowReport]:
    """Descend U_e <- exp(-eta G_e) U_e until the gradient norm reaches tol.

    For n = 1 the action is quadratic in the edge angles on the principal
    branch, and the flow steps along the exact Newton direction i delta_e
    (_Engine.abelian_newton: one conjugate-gradient solve on the dual-graph
    Laplacian) instead of G_e, so eta = 1 lands on the sector minimum; it
    falls back to G_e when that direction is not finite or does not
    descend.  Backtracking halves eta (reset each iteration) until the action
    decreases; BranchCut during a trial step is treated like an increase.
    Once action differences fall below evaluation precision the gate
    switches to requiring a strict gradient-norm decrease, which stays
    resolvable down to the requested tolerance.  The returned action never
    exceeds the input action beyond roundoff.  Raises NotConverged with the
    partial report when the halving or iteration budget runs out, or when
    the step underflows to the identity; report.stop_reason says which.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    sp = step_policy or StepPolicy()
    engine = _engine_for(field.mesh)
    u = field.U
    x = engine.logs(u, policy.eps_branch)
    action = engine.action_from_logs(x)
    grad = engine.gradient_from_logs(u, x)
    gnorm = _grad_norm(grad)
    history: Optional[list[tuple[int, float, float]]] = (
        [(0, action, gnorm)] if record_history else None
    )
    if gnorm <= tol:
        return field, FlowReport(0, action, gnorm, history, seed, "converged")

    eye = np.eye(field.n, dtype=np.complex128)
    eta_gradient = sp.initial_step if sp.initial_step is not None else 0.25 * float(np.min(engine.areas))
    eta_newton = sp.initial_step if sp.initial_step is not None else 1.0
    for iteration in range(1, max_iter + 1):
        direction, eta = grad, eta_gradient
        if field.n == 1:
            newton = 1j * engine.abelian_newton(x)[:, None, None]
            # Re<G, i delta> > 0: the Newton direction descends
            if np.all(np.isfinite(newton)) and float(np.sum((grad.conj() * newton).real)) > 0:
                direction, eta = newton, eta_newton
        accepted = False
        moved = True
        grad_trial = None
        # Action differences below this are evaluation noise; in that
        # regime a step must strictly decrease the gradient norm instead.
        slack = 64 * np.finfo(np.float64).eps * max(1.0, abs(action))
        for _ in range(sp.max_halvings + 1):
            step = expm_raw(-eta * direction)
            if np.all(step == eye):
                # step underflowed to the identity: nothing can move
                trial, x_trial, action_trial = u, x, action
                accepted, moved = True, False
                break
            trial = _unitarize(step @ u)
            try:
                x_trial = engine.logs(trial, policy.eps_branch)
            except BranchCutError:
                eta *= sp.shrink
                continue
            action_trial = engine.action_from_logs(x_trial)
            if action_trial < action - slack:
                accepted = True
                break
            if action_trial <= action + slack:
                grad_trial = engine.gradient_from_logs(trial, x_trial)
                gnorm_trial = _grad_norm(grad_trial)
                if gnorm_trial < gnorm:
                    accepted = True
                    break
                grad_trial = None
            eta *= sp.shrink
        if not accepted:
            raise NotConvergedError(
                "line search exhausted its halving budget",
                FlowReport(iteration - 1, action, gnorm, history, seed, "halving_budget"),
                GaugeField(field.mesh, u),
            )
        u, x, action = trial, x_trial, action_trial
        grad = grad_trial if grad_trial is not None else engine.gradient_from_logs(u, x)
        gnorm = _grad_norm(grad)
        if record_history:
            history.append((iteration, action, gnorm))
        if gnorm <= tol:
            return GaugeField(field.mesh, u), FlowReport(iteration, action, gnorm, history, seed, "converged")
        if not moved:
            # machine-precision stall: no representable step makes progress
            break
    prefix = "" if moved else "stalled at machine precision: "
    raise NotConvergedError(
        f"{prefix}gradient norm {gnorm:.3e} above tol {tol:.3e} after {iteration} iterations",
        FlowReport(iteration, action, gnorm, history, seed, "iteration_budget" if moved else "stall"),
        GaugeField(field.mesh, u),
    )


# ---------------------------------------------------------------------------
# gauge action and holonomy

def apply_gauge(field: GaugeField, transform: GaugeTransform) -> GaugeField:
    """Change of vertex frames: U_e <- g(tail) U_e g(head)^-1.

    Composes with traversal-order holonomy so that based loop holonomies
    are conjugated by the transform at the basepoint.
    """
    if transform.g.shape != (field.mesh.vertex_count, field.n, field.n):
        raise ValueError("gauge transform size does not match the field")
    tails = np.array([t for t, _ in field.mesh.edges], dtype=np.intp)
    heads = np.array([h for _, h in field.mesh.edges], dtype=np.intp)
    values = transform.g[tails] @ field.U @ transform.g[heads].conj().swapaxes(-1, -2)
    return GaugeField(field.mesh, values)


def random_gauge_transform(mesh: SurfaceMesh, n: int, rng: np.random.Generator) -> GaugeTransform:
    """Independent Haar-distributed unitaries, one per vertex."""
    return GaugeTransform(haar_unitary_raw(rng, (mesh.vertex_count,), n))


def loop_holonomy(field: GaugeField, loop: MeshLoop) -> Unitary:
    """Parallel transport around a loop, in traversal order.

    Steps are freely reduced first, so retraced pieces cancel exactly and
    a loop followed by its reversal gives the identity matrix bit for bit.
    """
    validate_loop(field.mesh, loop)
    out = np.eye(field.n, dtype=np.complex128)
    for e, s in clip_steps(loop.steps):
        out = out @ (field.U[e] if s > 0 else field.U[e].conj().T)
    return Unitary(out)


def verify_area_property(
    field: GaugeField,
    loop1: MeshLoop,
    loop2: MeshLoop,
    Lambda: Optional[SkewHermitian] = None,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> float:
    """Residual of the defining property of critical connections.

    For homotopic based loops the holonomies must differ exactly by
    exp(DeltaA * Lambda) where DeltaA is the oriented area between them;
    the Frobenius norm of the mismatch is returned.  Lambda defaults to the
    curvature density of face 0.
    """
    delta = enclosed_area(field.mesh, loop_concat(loop1, loop_reverse(loop2)))
    return _area_residual(field, loop1, loop2, delta, Lambda, policy=policy)


def _area_residual(
    field: GaugeField,
    loop1: MeshLoop,
    loop2: MeshLoop,
    delta: float,
    Lambda: Optional[SkewHermitian],
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> float:
    """verify_area_property for a known oriented area delta between the loops."""
    mesh = field.mesh
    if loop1.base != mesh.basepoint or loop2.base != mesh.basepoint:
        raise ValueError("both loops must be based at the mesh basepoint")
    lam = Lambda.mat if Lambda is not None else face_curvature(field, 0, policy=policy).mat
    h1 = loop_holonomy(field, loop1).mat
    h2 = loop_holonomy(field, loop2).mat
    return float(np.linalg.norm(h1 - expm_raw(delta * lam) @ h2))


def shrinking_loop_curvature(
    field: GaugeField,
    block_sizes: Optional[Sequence[int]] = None,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> list[tuple[float, float]]:
    """Convergence table for the shrinking-loop curvature limit.

    For square blocks of k x k faces at the basepoint corner the holonomy
    H_s of the boundary satisfies (H_s - I)/s -> curvature density as the
    enclosed area s shrinks; rows are (s, ||(H_s - I)/s - F||) for
    descending k.  Needs a torus grid with N >= 4.
    """
    mesh = field.mesh
    if not isinstance(mesh.grid, TorusGrid):
        raise UnsupportedMeshError("shrinking loops need a torus grid mesh")
    n_grid = mesh.grid.N
    if n_grid < 4:
        raise UnsupportedMeshError("mesh too coarse: needs N >= 4")
    if block_sizes is None:
        block_sizes = []
        k = n_grid // 2
        while k >= 1:
            block_sizes.append(k)
            k //= 2
    if any(not (1 <= k <= n_grid - 1) for k in block_sizes) or list(block_sizes) != sorted(
        block_sizes, reverse=True
    ):
        raise ValueError("block sizes must be strictly within the grid and descending")
    lam = face_curvature(field, mesh.grid.face(0, 0), policy=policy).mat
    eye = np.eye(field.n)
    rows = []
    for k in block_sizes:
        loop = _block_loop(mesh.grid, mesh.basepoint, k)
        area = enclosed_area(mesh, loop)
        h = loop_holonomy(field, loop).mat
        rows.append((float(area), float(np.linalg.norm((h - eye) / area - lam))))
    return rows


def _block_loop(grid: TorusGrid, base: int, k: int) -> MeshLoop:
    steps: list[tuple[int, int]] = []
    steps += [(grid.h_edge(i, 0), 1) for i in range(k)]
    steps += [(grid.v_edge(k, j), 1) for j in range(k)]
    steps += [(grid.h_edge(i, k), -1) for i in range(k - 1, -1, -1)]
    steps += [(grid.v_edge(0, j), -1) for j in range(k - 1, -1, -1)]
    return MeshLoop(base, tuple(steps))


# ---------------------------------------------------------------------------
# constant-curvature fields from representations

def build_ym_field_from_rep(
    mesh: SurfaceMesh,
    rep: YangMillsRep,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> GaugeField:
    """Explicit field with curvature density Lambda on every face.

    Torus: horizontal edges are the identity except the seam column, which
    carries A with a row-graded central correction; vertical edges are
    column-graded powers of exp(Lambda/N^2) with B on the seam row.  The
    assignment closes exactly because Lambda commutes with A, B and the
    commutator [A, B] equals exp(Lambda).  That gives every face
    exp(Lambda/N^2); each edge is then multiplied by exp(theta_e Lambda),
    where theta (surfaces.area_potential) carries each face's deviation from
    the mean area.  Sphere: the matching abelian flux problem is solved per
    eigencomponent of Lambda with surfaces.integrate_faces.
    """
    diag = validate_rep(rep, policy=policy)
    if not diag.ok:
        raise InvalidRepError("representation does not satisfy the defining constraints")
    if rep.genus != mesh.genus:
        raise UnsupportedMeshError("mesh genus does not match representation genus")
    if mesh.genus == 1:
        if not isinstance(mesh.grid, TorusGrid):
            raise UnsupportedMeshError("genus-1 construction needs a torus grid mesh")
        return _torus_field(mesh, rep)
    return _sphere_field(mesh, rep, policy)


def _torus_field(mesh: SurfaceMesh, rep: YangMillsRep) -> GaugeField:
    grid: TorusGrid = mesh.grid
    n_grid = grid.N
    lam = rep.Lambda.mat
    a = rep.A[0].mat
    b = rep.B[0].mat
    steps = np.arange(n_grid)[:, None, None]
    values = np.broadcast_to(
        np.eye(rep.n, dtype=np.complex128), (len(mesh.edges), rep.n, rep.n)
    ).copy()
    values[[grid.h_edge(n_grid - 1, y) for y in range(n_grid)]] = a @ expm_raw(-(steps / n_grid) * lam)
    # v_edge(x, y) is n_grid^2 + x + n_grid * y: rows y, columns x
    columns = expm_raw((steps / n_grid**2) * lam)
    vertical = values[n_grid * n_grid:].reshape(n_grid, n_grid, rep.n, rep.n)
    vertical[:] = columns
    vertical[-1] = columns @ b
    theta, _ = area_potential(mesh)
    return GaugeField(mesh, values @ expm_raw(theta[:, None, None] * lam))


def _sphere_field(mesh: SurfaceMesh, rep: YangMillsRep, policy: NumericPolicy) -> GaugeField:
    mu, w = np.linalg.eigh(-1j * rep.Lambda.mat)  # Lambda = w diag(i mu) w*
    if np.max(np.abs(mu) * np.max(mesh.face_areas)) >= np.pi:
        raise UnsupportedMeshError("flux per face exceeds the principal branch; refine the mesh")
    thetas = np.zeros((len(mesh.edges), rep.n))
    for j, m_j in enumerate(mu):
        target = m_j * mesh.face_areas
        target[0] -= 2 * np.pi * np.round(m_j / (2 * np.pi))
        # least-squares fit: a flux quantized only within rep_tol spreads
        # its residual over all faces
        thetas[:, j] = integrate_faces(mesh, target - np.mean(target))
    diag_values = np.exp(1j * thetas)  # (E, n) diagonal phases
    values = np.einsum("ij,ej,kj->eik", w, diag_values, w.conj())
    return GaugeField(mesh, _unitarize(values))


def perturb_field(field: GaugeField, rng: np.random.Generator, eps: float) -> GaugeField:
    """Left-multiply every edge by exp(eps X) with X standard Gaussian skew."""
    n = field.n
    a = rng.normal(size=(len(field.mesh.edges), n, n)) + 1j * rng.normal(
        size=(len(field.mesh.edges), n, n)
    )
    skew = (a - a.conj().swapaxes(-1, -2)) / 2.0
    return GaugeField(field.mesh, expm_raw(eps * skew) @ field.U)


# ---------------------------------------------------------------------------
# JSON

def field_to_json(field: GaugeField) -> dict:
    return {
        "mesh": mesh_to_json(field.mesh),
        "n": field.n,
        "edges": [matrix_to_json(field.U[e]) for e in range(len(field.mesh.edges))],
    }


def field_from_json(
    obj: dict,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
    base_dir: Optional[str] = None,
) -> GaugeField:
    """Load a field snapshot; "mesh" may be inline JSON or a file path
    (resolved against base_dir when given)."""
    mesh_obj, n, edges = required_keys(obj, "field", "mesh", "n", "edges")
    if isinstance(mesh_obj, str):
        import json
        import os

        path = mesh_obj if base_dir is None else os.path.join(base_dir, mesh_obj)
        with open(path) as handle:
            mesh_obj = json.load(handle)
    mesh = mesh_from_json(mesh_obj, policy=policy)
    n = int(n)
    values = np.stack([matrix_from_json(m) for m in edges])
    if values.shape[1] != n:
        raise ValueError("field dimension does not match its edge matrices")
    return GaugeField(mesh, values, policy=policy)
