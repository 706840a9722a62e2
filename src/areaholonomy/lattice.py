"""Discrete connections: curvature, action, gradient flow, gauge action
and holonomy of a fields.GaugeField, and the fields built from
representations.

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

from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._loopsteps import flat_steps, holonomies, prefixes
from .fields import GaugeField
from .liecore import (
    BranchCutError,
    DimensionMismatchError,
    SkewHermitian,
    Unitary,
    expm_raw,
    haar_unitary_raw,
    logm_raw,
    matmul_raw,
    real_form,
    require_unitary,
)
from .reps import YangMillsRep, _require_valid
from .surfaces import (
    MeshLoop,
    NotNullHomotopicError,
    SurfaceMesh,
    UnsupportedMeshError,
    _checked_steps,
    _derived_loop,
    _loop_areas,
    _require_torus,
    face_boundary_loop,
    integrate_faces,
    json_int,
)


class NotConvergedError(RuntimeError):
    """Gradient flow stopped above tolerance: its iteration or step-halving
    budget ran out, or it stalled at machine precision (report.stop_reason)."""

    def __init__(self, message: str, report: "FlowReport", field: "GaugeField"):
        super().__init__(message)
        self.report = report
        self.field = field


# How many times one line search may halve its first trial step.
_MAX_HALVINGS = 40


class FlowReport(NamedTuple):
    """Flow summary: recorded actions are nonincreasing up to a few ulps of
    the action value (the flow keeps contracting the gradient after action
    differences fall below evaluation precision).  step_history holds
    (iteration, action, gradient norm) rows when the flow recorded them,
    else None.  stop_reason is "converged", "halving_budget",
    "iteration_budget" or "stall" (the step underflowed to the identity)."""

    iterations: int
    final_action: float
    final_gradient_norm: float
    step_history: Optional[list[tuple[int, float, float]]]
    stop_reason: str

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
            "stop_reason": self.stop_reason,
        }


class GaugeTransform:
    """One unitary per vertex."""

    __slots__ = ("g",)

    def __init__(self, values: np.ndarray):
        values = np.array(values, dtype=np.complex128)
        require_unitary(values, "a gauge transform entry")
        values.setflags(write=False)
        self.g = values


# ---------------------------------------------------------------------------
# mesh engine: batched plaquette / log / gradient kernels

class FaceLogs(NamedTuple):
    """One field's face state (_Engine.logs): each plaquette's log x =
    v diag(i theta) v*, and per boundary slot j of mesh.face_steps the
    transport q_j (S, n, n): U_e <- exp(Z) U_e at slot j moves the plaquette
    as H <- exp(s_j q_j Z q_j*) H, q_j the boundary product before slot j,
    or through it if s_j < 0."""

    x: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    transports: np.ndarray


class _Engine:
    """The batched kernels over a mesh's boundary slots, in the one order
    mesh.face_steps lays them out (mesh.face_of_slot names each slot's
    face); each edge sums its two slots, mesh.plus_slot and minus_slot.
    The engine holds its mesh only: the index tables it reads, the Newton
    operator's among them, are the mesh's cached properties, so an engine
    is made per call."""

    __slots__ = ("mesh",)

    def __init__(self, mesh: SurfaceMesh):
        self.mesh = mesh

    def plaquettes(self, U: np.ndarray) -> np.ndarray:
        """The holonomy of every face boundary, from its start vertex."""
        return prefixes(U, self.mesh.face_schedule)[self.mesh.face_schedule.ends]

    def logs(self, U: np.ndarray) -> FaceLogs:
        order = self.mesh.face_schedule
        p = prefixes(U, order)
        return FaceLogs(*logm_raw(p[order.ends], eig=True), p[self.mesh.transport_rows])

    def action_from_logs(self, logs: FaceLogs) -> float:
        norms = np.sum(np.abs(logs.x) ** 2, axis=(1, 2))
        return float(np.sum(norms / self.mesh.face_areas))

    def gradient_from_logs(self, logs: FaceLogs) -> np.ndarray:
        """Riemannian gradient: d/ds S(exp(sZ) U_e) = <G_e, Z>.

        Pairing against log H kills the dexp factor (they commute), so each
        occurrence of an edge in a face boundary contributes the face log
        transported to that edge's frame by the boundary prefix; each edge
        then sums its two boundary slots.  At n = 1 a transport is
        conjugation by a phase, the identity, and is skipped: every slot of
        a face then carries the same value, so G = 2 D^T W theta lies in
        range(D^T) up to the rounding of each edge's sum, as the undamped
        solve in levenberg_marquardt needs.
        """
        mesh, q = self.mesh, logs.transports
        coeff = mesh.face_steps.signs * (2.0 / mesh.face_areas)[mesh.face_of_slot]
        x = real_form(logs.x)[mesh.face_of_slot]
        if q.shape[-1] > 1:
            x = matmul_raw(matmul_raw(q.conj().swapaxes(-1, -2), x), q)
        s = x * coeff[:, None, None]
        return s[mesh.plus_slot] + s[mesh.minus_slot]

    def slot_blocks(self, logs: FaceLogs) -> np.ndarray:
        """Each slot's share of the plaquette's change, in the eigenbasis of
        the face log and the real coordinates of u(n) (_u_basis).

        U_e <- exp(Z) U_e at every edge moves each plaquette as
        P_f <- prod_j exp(Y_j) P_f, slots j in boundary order, with
        Y_j = s_j q_j Z_{e_j} q_j*.  Returns the real K (S, n^2, n^2): the
        coordinates of V_f* Y_j V_f are K_j times those of Z_{e_j}, K_j the
        adjoint action of s_j R_j, R_j = V_f* q_j.  At n = 1 that is s_j.
        """
        n, face, signs = logs.x.shape[-1], self.mesh.face_of_slot, self.mesh.face_steps.signs
        if n == 1:
            return signs.astype(np.float64)[:, None, None]
        basis = _u_basis(n)
        r = matmul_raw(logs.v[face].conj().swapaxes(-1, -2), logs.transports)
        # vec(R Z R*) = kron(R, conj R) vec Z for row-major vecs, and
        # vec Z = basis^T c for Z's coordinates c; coordinate k of an image
        # Y is Re <B_k, Y>
        kron = np.einsum("jac,jbd->jabcd", r, r.conj()).reshape(-1, n * n)
        images = (kron @ basis.T).reshape(len(r), n * n, n * n)
        coords = (images.swapaxes(-1, -2).reshape(-1, n * n) @ basis.conj().T).real
        return coords.reshape(len(r), n * n, n * n).swapaxes(-1, -2) * signs[:, None, None]

    def face_blocks(self, logs: FaceLogs) -> tuple[np.ndarray, np.ndarray]:
        """K_f^T (F, M n^2, n^2) and K_f / A_f (F, n^2, M n^2) of every
        face, its slot_blocks padded with zero blocks to the longest face M.
        They depend on the logs only, not on mu or curvature."""
        slots = self.mesh.face_slots
        d = logs.x.shape[-1] ** 2
        kt = np.concatenate((self.slot_blocks(logs).swapaxes(-1, -2), np.zeros((1, d, d))))
        kt = kt[slots].reshape(len(slots), -1, d)
        return kt, kt.swapaxes(-1, -2) / self.mesh.face_areas[:, None, None]

    def normal_operator(self, logs: FaceLogs, blocks: tuple[np.ndarray, np.ndarray], mu: float, curvature: bool):
        """c -> (H / 2 + mu I) c on the edges' u(n) coordinates c (E, n^2):
        H is the Hessian of Z -> S(exp(Z) U), or with curvature False its
        Gauss-Newton part 2 J^T W J, W = diag(1 / A_f).

        With the slot changes Y_j (slot_blocks) and C = sum_j Y_j in the
        eigenbasis of X_f = V diag(i theta) V*, ||log(prod_j exp(Y_j) P_f)||^2
        is to second order ||X_f||^2 + 2 <X_f, C> + sum_ab w_ab |C_ab|^2 plus
        the Baker-Campbell-Hausdorff terms sum_{j<k} <X_f, [Y_j, Y_k]>, with
        w_ab = (d/2) cot(d/2), d = theta_a - theta_b.  Gauss-Newton keeps
        ||J_f Z||^2: w_ab = |z / (e^z - 1)|^2 = (d/2)^2 / sin^2(d/2), z = i d,
        and no brackets.  The two agree where the curvature is central, and
        at n = 1 (D^T W D).  On a pair's two coordinates w is one weight and
        <X_f, [A, B]> = a^T Omega b, Omega = [[0, d], [-d, 0]].  So face f's
        Gram block (j, k) is K_j^T (w + sign(k - j) Omega / 2) K_k / A_f,
        with K_f padded with zero blocks to the longest face M, as blocks,
        face_blocks(logs), holds it; each edge gets its rows at its two
        slots, (E, n^2, 2 M n^2), and mu is folded into the diagonal.  One
        application is then one gather of the faces' edge coordinates and
        one batched real matmul.
        """
        mesh, n = self.mesh, logs.x.shape[-1]
        (plus_at, minus_at), neighbours = mesh.face_places, mesh.neighbours
        faces, width = mesh.face_slots.shape
        d = n * n
        kt, k = blocks
        a, b = np.triu_indices(n, 1)
        gap = logs.theta[:, a] - logs.theta[:, b]
        scale = 1 / np.sinc(gap / (2 * np.pi))
        w = np.ones((faces, d))
        w[:, n:] = np.repeat(scale * (np.cos(gap / 2) if curvature else scale), 2, axis=1)
        gram = kt @ (w[:, :, None] * k)
        if curvature and n > 1:
            pair = np.arange(n, d, 2)
            omega = np.zeros((faces, d, d))
            omega[:, pair, pair + 1], omega[:, pair + 1, pair] = gap, -gap
            slot = np.repeat(np.arange(width), d)
            gram += 0.5 * np.sign(slot - slot[:, None]) * (kt @ (omega @ k))
        gram = gram.reshape(faces, width, d, -1)
        rows = np.concatenate((gram[mesh.plus_face, plus_at], gram[mesh.minus_face, minus_at]), axis=-1)
        rows.reshape(len(rows), d, 2 * width, d)[np.arange(len(rows)), :, plus_at, :] += mu * np.eye(d)

        def apply(c: np.ndarray) -> np.ndarray:
            return (rows @ np.take(c, neighbours, axis=0).reshape(len(c), -1, 1))[..., 0]

        return apply

    def levenberg_marquardt(self, logs: FaceLogs, rhs: np.ndarray, mu: float) -> np.ndarray:
        """Damped Newton direction: (H / 2 + mu I) Z = rhs by conjugate
        gradients to relative residual 1e-2, on the u(n) coordinates of the
        edges (normal_operator).  With rhs = G / 2, exp(-Z) U_e minimises
        the damped second-order model of the action about U.  Where CG
        meets non-positive curvature the model is not convex, and the
        solve is redone on the Gauss-Newton operator J^T W J + mu I, whose
        exp(-Z) U_e minimises sum_f ||X_f - J_f Z||^2 / A_f + mu ||Z||^2.
        Both operators are built from one face_blocks(logs).  CG stops
        after as many iterations as there are coordinates.

        At n = 1 every face log is linear in the edge angles on the
        principal branch (J = D, the signed face-edge incidence), so the
        Hessian is 2 D^T W D and the model is the action itself: the solve
        drops mu and runs to 1e-14, and Z is the exact Newton step onto the
        sector minimum.  The right side G / 2 lies in range(D^T)
        (gradient_from_logs), where CG from zero stays, so Z is the
        minimum-norm (co-exact) solution, the one gradient descent
        converges to."""
        n = rhs.shape[-1]
        exact = n == 1
        basis = _u_basis(n)
        b = (rhs.reshape(len(rhs), -1) @ basis.conj().T).real
        blocks = self.face_blocks(logs)
        apply = self.normal_operator(logs, blocks, 0.0 if exact else mu, True)
        c, indefinite = _conjugate_gradients(apply, b, 1e-14 if exact else 1e-2)
        if indefinite and not exact:
            c, _ = _conjugate_gradients(self.normal_operator(logs, blocks, mu, False), b, 1e-2)
        return (c @ basis).reshape(rhs.shape)


# Elements per dot product in _dot.  The scipy-openblas bundled with
# numpy 2.4.6 splits a ddot of more than 10 000 elements across its
# threads, and so adds in an order that depends on the thread count.
_DOT_CHUNK = 8192


def _dot(a: np.ndarray, b: np.ndarray):
    """np.vdot of two real arrays of one shape, summed over _DOT_CHUNK
    chunks in order, so that no BLAS call is split across threads and the
    sum is the same at every thread count.  Up to _DOT_CHUNK elements it
    is np.vdot itself."""
    a, b = a.ravel(), b.ravel()
    return sum(np.vdot(a[i:i + _DOT_CHUNK], b[i:i + _DOT_CHUNK]) for i in range(0, a.size, _DOT_CHUNK))


def _conjugate_gradients(apply, b: np.ndarray, rtol: float) -> tuple[np.ndarray, bool]:
    """Conjugate gradients for A s = b, with A = apply symmetric on real
    arrays.  Stops at relative residual rtol or after b.size iterations,
    and returns s with False; stops when p A p is not positive, and
    returns the iterate so far with True: A is then not positive definite
    on the Krylov space.  Inner products are _dot's, so the iterates do
    not depend on the BLAS thread count."""
    s = np.zeros_like(b)
    res = b.copy()
    p = res.copy()
    rr = _dot(res, res)
    stop = rtol * rtol * rr
    for _ in range(b.size):
        if rr <= stop:
            break
        ap = apply(p)
        pap = _dot(p, ap)
        if not pap > 0:
            return s, True
        alpha = rr / pap
        s += alpha * p
        res -= alpha * ap
        rr, rr_old = _dot(res, res), rr
        p = res + (rr / rr_old) * p
    return s, False


def _grad_norm(grad: np.ndarray) -> float:
    """Frobenius norm of a whole gradient stack (the flow's stopping quantity)."""
    return float(np.sqrt(np.sum(np.abs(grad) ** 2)))


def _unitarize(values: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step U (3I - U* U) / 2 towards the unitary polar
    factor, batched over leading axes.  The input must already be unitary
    to well below 1 (the flow's trials exp(-eta G) U and the sphere
    builder's w diag(e^{i theta}) w* are within about 3e-15): the step
    squares the error ||U* U - I||, and it diverges far from U(n)."""
    gram = matmul_raw(values.conj().swapaxes(-1, -2), values)
    return matmul_raw(values, 3.0 * np.eye(values.shape[-1]) - gram) / 2.0


@lru_cache
def _u_basis(n: int) -> np.ndarray:
    """Orthonormal basis of u(n) under Re tr(A* B), (n^2, n^2): row k is the
    row-major vec of B_k, which is i E_aa for each a, then for each a < b
    (E_ab - E_ba) / sqrt 2 and i (E_ab + E_ba) / sqrt 2."""
    basis = np.zeros((n * n, n, n), dtype=np.complex128)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1j
    for k, (a, b) in enumerate(pairs):
        basis[n + 2 * k, a, b], basis[n + 2 * k, b, a] = np.sqrt(0.5), -np.sqrt(0.5)
        basis[n + 2 * k + 1, a, b] = basis[n + 2 * k + 1, b, a] = 1j * np.sqrt(0.5)
    basis = basis.reshape(n * n, n * n)
    basis.setflags(write=False)
    return basis


# ---------------------------------------------------------------------------
# observables

def plaquette_holonomy(field: GaugeField, face: int) -> Unitary:
    """Ordered product of edge unitaries around the face boundary."""
    if not (0 <= face < len(field.mesh.faces)):
        raise ValueError(f"face index {face} out of range")
    return loop_holonomy(field, face_boundary_loop(field.mesh, face))


def face_curvature(field: GaugeField, face: int) -> SkewHermitian:
    """Curvature density log(plaquette)/area; principal branch required."""
    x = logm_raw(plaquette_holonomy(field, face).mat)
    return SkewHermitian(x / field.mesh.face_areas[face])


def ym_action(field: GaugeField) -> float:
    """Sum over faces of area * ||curvature density||^2; zero iff flat."""
    engine = _Engine(field.mesh)
    return engine.action_from_logs(engine.logs(field.U))


def ym_gradient(field: GaugeField) -> list[SkewHermitian]:
    """Per-edge Riemannian gradient of the action (left-invariant frame)."""
    engine = _Engine(field.mesh)
    grad = engine.gradient_from_logs(engine.logs(field.U))
    skew = (grad - grad.conj().swapaxes(-1, -2)) / 2.0
    return [SkewHermitian(skew[e]) for e in range(len(field.mesh.edges))]


def gradient_norm(field: GaugeField) -> float:
    engine = _Engine(field.mesh)
    return _grad_norm(engine.gradient_from_logs(engine.logs(field.U)))


def total_flux(field: GaugeField) -> float:
    """Sum of plaquette log phases; integer multiple of 2 pi for n = 1."""
    engine = _Engine(field.mesh)
    x = engine.logs(field.U).x
    return float(np.sum(np.trace(x, axis1=1, axis2=2).imag))


# ---------------------------------------------------------------------------
# gradient flow

def _line_search(
    engine: _Engine, u: np.ndarray, logs: FaceLogs, action: float, gnorm: float, direction: np.ndarray, eta: float
):
    """Backtrack along U_e <- exp(-eta Z_e) U_e, Z the direction, from eta.

    A trial passes one of two gates, which read one gradient of the trial:
    its action decreases, or it lies within a slack of 64 ulps of the action
    (below which action differences are evaluation noise) and the gradient
    norm strictly decreases, which stays resolvable down to the flow's tol.
    A trial that fails both, or hits the branch cut, halves eta, at most
    _MAX_HALVINGS times.  Returns the accepted (eta, trial, logs, action,
    gradient), or None when the halving budget runs out.  A step that
    underflows to the identity returns u itself: nothing can move.
    """
    eye = np.eye(u.shape[-1])
    slack = 64 * np.finfo(np.float64).eps * max(1.0, abs(action))
    for _ in range(_MAX_HALVINGS + 1):
        step = expm_raw(-eta * direction)
        if np.all(step == eye):
            return eta, u, logs, action, engine.gradient_from_logs(logs)
        trial = _unitarize(matmul_raw(step, u))
        try:
            logs_trial = engine.logs(trial)
        except BranchCutError:
            eta *= 0.5
            continue
        action_trial = engine.action_from_logs(logs_trial)
        if action_trial <= action + slack:
            grad = engine.gradient_from_logs(logs_trial)
            if action_trial < action - slack or _grad_norm(grad) < gnorm:
                return eta, trial, logs_trial, action_trial, grad
        eta *= 0.5
    return None


def gradient_flow(
    field: GaugeField,
    tol: float = 1e-9,
    max_iter: int = 20000,
    *,
    record_history: bool = False,
) -> tuple[GaugeField, FlowReport]:
    """Descend U_e <- exp(-eta G_e) U_e until the gradient norm reaches tol.

    The flow steps along the damped Newton direction Z_e
    (_Engine.levenberg_marquardt: (H / 2 + mu I) Z = G / 2 by conjugate
    gradients, H the Hessian of the action in the chart Z -> exp(Z) U, or
    its Gauss-Newton part 2 J^T W J in an iteration where CG meets
    non-positive curvature), trying eta = 1 first; mu starts at 10 and is
    divided by 3 after a full step and multiplied by 4 otherwise.  For
    n = 1 the two operators agree, the solve is undamped, and eta = 1 lands
    on the sector minimum.
    The direction falls back to G_e when it is not finite or does not
    descend; along G_e the first trial is eta = min(face_areas)/4,
    matching the 1/area scale of the action Hessian.  _line_search accepts
    or halves each trial.  The returned action never exceeds the input
    action beyond roundoff.  Raises NotConvergedError with the partial
    report when the halving or iteration budget runs out, or when the step
    underflows to the identity; report.stop_reason says which.
    Raises ValueError unless tol > 0 (so 0, negatives and NaN are rejected)
    and max_iter, read by the json_int rule (no boolean, no fractional
    float), is at least 1.
    """
    # fail closed: NaN is not positive
    if not tol > 0:
        raise ValueError("tol must be positive")
    max_iter = json_int(max_iter, "max_iter")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    engine = _Engine(field.mesh)
    u = field.U
    logs = engine.logs(u)
    action = engine.action_from_logs(logs)
    grad = engine.gradient_from_logs(logs)
    gnorm = _grad_norm(grad)
    history: Optional[list[tuple[int, float, float]]] = (
        [(0, action, gnorm)] if record_history else None
    )
    eta_gradient = 0.25 * float(np.min(field.mesh.face_areas))
    mu = 10.0
    iteration, stop = 0, "converged"
    while not gnorm <= tol:  # a NaN norm has not converged
        if iteration == max_iter:
            stop = "iteration_budget"
            break
        direction, eta = grad, eta_gradient
        newton = engine.levenberg_marquardt(logs, grad / 2, mu)
        # Re<G, newton> > 0: the Newton direction descends
        if np.all(np.isfinite(newton)) and float(np.sum((grad.conj() * newton).real)) > 0:
            direction, eta = newton, 1.0
        found = _line_search(engine, u, logs, action, gnorm, direction, eta)
        if found is None:
            stop = "halving_budget"
            break
        eta, trial, logs, action, grad = found
        # Levenberg-Marquardt damping: less after a full Newton step, more otherwise
        mu = mu / 3 if direction is newton and eta == 1.0 else mu * 4
        gnorm = _grad_norm(grad)
        iteration += 1
        if record_history:
            history.append((iteration, action, gnorm))
        if trial is u:
            # machine-precision stall: no representable step makes progress
            stop = "stall"
            break
        u = trial
    report = FlowReport(iteration, action, gnorm, history, stop)
    if stop == "converged":
        return (field if iteration == 0 else GaugeField(field.mesh, u)), report
    prefix = "stalled at machine precision: " if stop == "stall" else ""
    message = f"{prefix}gradient norm {gnorm:.3e} above tol {tol:.3e} after {iteration} iterations"
    if stop == "halving_budget":
        message = "line search exhausted its halving budget"
    raise NotConvergedError(message, report, GaugeField(field.mesh, u))


# ---------------------------------------------------------------------------
# gauge action and holonomy

def apply_gauge(field: GaugeField, transform: GaugeTransform) -> GaugeField:
    """Change of vertex frames: U_e <- g(tail) U_e g(head)^-1.

    Composes with traversal-order holonomy so that based loop holonomies
    are conjugated by the transform at the basepoint.
    """
    if transform.g.shape != (field.mesh.vertex_count, field.n, field.n):
        raise ValueError("gauge transform size does not match the field")
    mesh = field.mesh
    values = transform.g[mesh.tails] @ field.U @ transform.g[mesh.heads].conj().swapaxes(-1, -2)
    return GaugeField(field.mesh, values)


def random_gauge_transform(mesh: SurfaceMesh, n: int, rng: np.random.Generator) -> GaugeTransform:
    """Independent Haar-distributed unitaries, one per vertex."""
    return GaugeTransform(haar_unitary_raw(rng, (mesh.vertex_count,), n))


def loop_holonomy(field: GaugeField, loop: MeshLoop) -> Unitary:
    """Parallel transport around a loop, in traversal order.

    Steps are freely reduced first, so retraced pieces cancel exactly and
    a loop followed by its reversal gives the identity matrix bit for bit.
    Checks the loop as validate_loop does; one element of the batched
    _loopsteps.holonomies, wrapped as a validated Unitary.
    """
    return Unitary(holonomies(field.U, _checked_steps(field.mesh, [loop]))[0])


def verify_area_property(
    field: GaugeField,
    loop1: MeshLoop,
    loop2: MeshLoop,
    Lambda: Optional[SkewHermitian] = None,
) -> float:
    """Residual of the defining property of critical connections.

    For homotopic based loops the holonomies must differ exactly by
    exp(DeltaA * Lambda) where DeltaA is the oriented area between them;
    the Frobenius norm of the mismatch is returned.  Lambda defaults to the
    curvature density in the basepoint frame (_verify.basepoint_curvature),
    the frame the based holonomies live in.  One element of
    _verify.verify_pairs, which checks both loops first: ValueError unless
    both are based at the basepoint, then MalformedLoopError.  A Lambda
    whose size is not the field's raises DimensionMismatchError.
    """
    if Lambda is not None and Lambda.n != field.n:
        raise DimensionMismatchError(f"Lambda is {Lambda.n} x {Lambda.n}, the field's matrices {field.n} x {field.n}")
    from ._verify import verify_pairs

    (row,) = verify_pairs(field, [(loop1, loop2)], None if Lambda is None else Lambda.mat)
    if isinstance(row, NotNullHomotopicError):
        raise row
    return row[1]


def shrinking_loop_curvature(
    field: GaugeField,
    block_sizes: Optional[Sequence[int]] = None,
) -> list[tuple[float, float]]:
    """Convergence table for the shrinking-loop curvature limit.

    For square blocks of k x k faces with a corner at the basepoint the
    holonomy H_s of the boundary satisfies (H_s - I)/s -> F as the enclosed
    area s shrinks, with F the curvature density in the basepoint frame
    that verify compares with, _verify.basepoint_curvature: that of the
    first face through the basepoint, the corner face on a builder torus.
    Rows are (s, ||(H_s - I)/s - F||) for descending k.  Needs a torus
    grid with N >= 4.
    """
    mesh = field.mesh
    n_grid = _require_torus(mesh).N
    if n_grid < 4:
        raise UnsupportedMeshError("mesh too coarse: needs N >= 4")
    if block_sizes is None:
        block_sizes = [n_grid >> j for j in range(1, n_grid.bit_length())]
    if any(not 1 <= k <= n_grid - 1 for k in block_sizes) or list(block_sizes) != sorted(block_sizes, reverse=True):
        raise ValueError("block sizes must be strictly within the grid and descending")
    from ._verify import basepoint_curvature

    blocks = [_block_loop(mesh, k) for k in block_sizes]
    steps = flat_steps([loop.base for loop in blocks], [loop.steps for loop in blocks])
    lam, eye = basepoint_curvature(field), np.eye(field.n)
    areas, h = _loop_areas(mesh, steps), holonomies(field.U, steps)
    return [(float(area), float(np.linalg.norm((h_k - eye) / area - lam))) for area, h_k in zip(areas, h)]


def _block_loop(mesh: SurfaceMesh, k: int) -> MeshLoop:
    """Counterclockwise boundary of the k x k block of faces whose lower
    left corner is the basepoint, traversed from the basepoint."""
    grid = mesh.grid
    x, y = grid.vertex_xy(mesh.basepoint)
    steps: list[tuple[int, int]] = []
    steps += [(grid.h_edge(x + i, y), 1) for i in range(k)]
    steps += [(grid.v_edge(x + k, y + j), 1) for j in range(k)]
    steps += [(grid.h_edge(x + i, y + k), -1) for i in range(k - 1, -1, -1)]
    steps += [(grid.v_edge(x, y + j), -1) for j in range(k - 1, -1, -1)]
    return _derived_loop(mesh.basepoint, tuple(steps))


# ---------------------------------------------------------------------------
# constant-curvature fields from representations

def build_ym_field_from_rep(mesh: SurfaceMesh, rep: YangMillsRep) -> GaugeField:
    """Explicit field with curvature density Lambda on every face.

    Torus: horizontal edges are the identity except the seam column, which
    carries A with a row-graded central correction; vertical edges are
    column-graded powers of exp(Lambda/N^2) with B on the seam row.  The
    assignment closes exactly because Lambda commutes with A, B and the
    commutator [A, B] equals exp(Lambda).  That gives every face
    exp(Lambda/N^2); each edge is then multiplied by exp(theta_e Lambda),
    where theta (surfaces.area_potential) carries each face's deviation from
    the mean area.  Sphere: the matching abelian flux problem is solved per
    eigencomponent of Lambda with surfaces.integrate_faces.  Raises
    UnsupportedMeshError when the flux |mu| A_f of an eigenvalue i mu of
    Lambda on the largest face reaches pi: the plaquette's principal log
    would then lie in another flux sector.
    """
    _require_valid(rep)
    if rep.genus != mesh.genus:
        raise UnsupportedMeshError("mesh genus does not match representation genus")
    if np.max(np.abs(np.linalg.eigvalsh(-1j * rep.Lambda.mat))) * np.max(mesh.face_areas) >= np.pi:
        raise UnsupportedMeshError("flux per face exceeds the principal branch; refine the mesh")
    if mesh.genus == 1:
        _require_torus(mesh)
        return _torus_field(mesh, rep)
    return _sphere_field(mesh, rep)


def _torus_field(mesh: SurfaceMesh, rep: YangMillsRep) -> GaugeField:
    grid = mesh.grid
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
    theta, _ = mesh.area_potential
    return GaugeField(mesh, values @ expm_raw(theta[:, None, None] * lam))


def _sphere_field(mesh: SurfaceMesh, rep: YangMillsRep) -> GaugeField:
    mu, w = np.linalg.eigh(-1j * rep.Lambda.mat)  # Lambda = w diag(i mu) w*
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
