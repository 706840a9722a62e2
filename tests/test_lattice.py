"""Lattice connections: plaquettes, curvature, action, gradient, flow,
gauge action, holonomy, and the constant-curvature constructions."""

import gc
import json
import os
import weakref
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import areaholonomy as ah
from areaholonomy import (
    BranchCutError,
    GammaRElement,
    GaugeField,
    MeshLoop,
    NotConvergedError,
    SkewHermitian,
    Unitary,
    apply_gauge,
    build_ym_field_from_rep,
    face_curvature,
    gradient_flow,
    gradient_norm,
    loop_holonomy,
    plaquette_holonomy,
    shrinking_loop_curvature,
    total_flux,
    verify_area_property,
    ym_action,
    ym_gradient,
)
from areaholonomy._loopsteps import flat_steps, holonomies, reduced
from areaholonomy._verify import basepoint_curvature, verify_pairs
from areaholonomy.fields import _field_text
from areaholonomy.lattice import _Engine, _conjugate_gradients, _u_basis, _unitarize
from areaholonomy.liecore import expm_raw, haar_unitary_raw, matmul_raw
from conftest import (
    ONE_EDGE_SPHERE,
    dense_operator,
    finite_difference_hessian,
    flux_rep,
    quaternion_rep,
    random_field,
    rebased,
    slit_face,
    walk_area,
    walk_holonomy,
    walk_validate,
)

FOUR_PI_SQ = 4 * np.pi**2


def assert_report_reads_its_field(err):
    """A stopped flow's report describes the field it carries, bit for bit,
    and its recorded history ends on the report's own row."""
    report = err.report
    assert ym_action(err.field) == report.final_action
    assert gradient_norm(err.field) == report.final_gradient_norm
    assert len(report.step_history) == report.iterations + 1
    assert report.step_history[-1] == (report.iterations, report.final_action, report.final_gradient_norm)


def single_edge_field(mesh, edge, theta):
    values = np.ones((len(mesh.edges), 1, 1), dtype=np.complex128)
    values[edge, 0, 0] = np.exp(1j * theta)
    return GaugeField(mesh, values)


class TestPlaquette:
    def test_identity_field(self, torus4):
        field = GaugeField.identity(torus4, 2)
        for f in range(len(torus4.faces)):
            assert np.array_equal(plaquette_holonomy(field, f).mat, np.eye(2))

    def test_single_edge_orientation_pairing(self, torus4):
        theta = 0.437
        field = single_edge_field(torus4, 3, theta)
        values = [plaquette_holonomy(field, f).mat[0, 0] for f in range(16)]
        phases = np.angle(values)
        nonzero = sorted(p for p in phases if abs(p) > 1e-12)
        assert len(nonzero) == 2
        assert nonzero[0] == pytest.approx(-theta, abs=1e-12)
        assert nonzero[1] == pytest.approx(theta, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([("torus", 2), ("torus", 3), ("torus", 5), ("sphere", 1), ("sphere", 2)]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_engine_bit_for_bit(self, spec, n, seed):
        kind, size = spec
        mesh = ah.build_torus_mesh(size) if kind == "torus" else ah.build_sphere_mesh(size)
        field = random_field(mesh, n, np.random.default_rng(seed), scale=1.0)
        batched = _Engine(mesh).plaquettes(field.U)
        for f in range(len(mesh.faces)):
            assert np.array_equal(plaquette_holonomy(field, f).mat, batched[f])

    def test_gauge_covariance_at_start_vertex(self, torus4):
        rng = np.random.default_rng(70)
        field = random_field(torus4, 2, rng)
        g = ah.random_gauge_transform(torus4, 2, rng)
        gauged = apply_gauge(field, g)
        for f in (0, 7, 13):
            v0 = torus4.face_start_vertex(f)
            before = plaquette_holonomy(field, f).mat
            after = plaquette_holonomy(gauged, f).mat
            assert np.linalg.norm(after - g.g[v0] @ before @ g.g[v0].conj().T) < 1e-12


class TestFaceCurvature:
    def test_identity_field(self, torus4):
        field = GaugeField.identity(torus4, 1)
        assert np.linalg.norm(face_curvature(field, 0).mat) == 0.0

    def test_constant_flux_curvature(self):
        mesh = ah.build_torus_mesh(4)
        field = build_ym_field_from_rep(mesh, flux_rep(1, 1))
        for f in range(16):
            assert abs(face_curvature(field, f).mat[0, 0] - 2j * np.pi) < 1e-12

    def test_area_scaling(self):
        # same plaquette, doubled face area: curvature density halves
        theta = 0.3
        uniform = ah.build_torus_mesh(2)
        stretched = ah.build_torus_mesh(2, face_areas=[0.5, 1 / 6, 1 / 6, 1 / 6])
        f_uniform = single_edge_field(uniform, 0, theta)
        f_stretched = single_edge_field(stretched, 0, theta)
        c1 = face_curvature(f_uniform, 0).mat[0, 0]
        c2 = face_curvature(f_stretched, 0).mat[0, 0]
        assert c2 == pytest.approx(c1 * 0.25 / 0.5, abs=1e-13)

    def test_branch_cut(self):
        mesh = ah.build_torus_mesh(2)
        field = single_edge_field(mesh, 0, np.pi)
        with pytest.raises(BranchCutError):
            face_curvature(field, 0)
        with pytest.raises(BranchCutError):
            ym_action(field)


class TestAction:
    def test_flat_zero(self, torus4):
        assert ym_action(GaugeField.identity(torus4, 2)) == 0.0

    @pytest.mark.parametrize("n_grid", [3, 4, 8])
    def test_constant_flux_value(self, n_grid):
        mesh = ah.build_torus_mesh(n_grid)
        field = build_ym_field_from_rep(mesh, flux_rep(1, 1))
        assert ym_action(field) == pytest.approx(FOUR_PI_SQ, abs=1e-10)

    def test_direct_summation_oracle(self, torus4):
        rng = np.random.default_rng(71)
        field = random_field(torus4, 2, rng)
        manual = 0.0
        for f in range(len(torus4.faces)):
            x = face_curvature(field, f).mat
            area = torus4.face_areas[f]
            manual += area * np.trace(x @ x.conj().T).real
        assert ym_action(field) == pytest.approx(manual, rel=1e-12)

    def test_matches_rep_action_value(self):
        # the log action of a constant-curvature lattice field equals the
        # continuum value ||Lambda||^2 with no discretization error
        for n_grid in (4, 16):
            mesh = ah.build_torus_mesh(n_grid)
            for rep in (flux_rep(1, 1), flux_rep(1, 2)):
                field = build_ym_field_from_rep(mesh, rep)
                assert ym_action(field) == pytest.approx(
                    ah.ym_action_value(rep), abs=1e-10
                )
        mesh = ah.build_torus_mesh(6)
        lam = SkewHermitian(2j * np.pi * np.diag([1.0, 0.0]))
        eye = Unitary(np.eye(2))
        rep = ah.YangMillsRep(1, 2, [eye], [eye], lam)
        assert ym_action(build_ym_field_from_rep(mesh, rep)) == pytest.approx(
            ah.ym_action_value(rep), abs=1e-10
        )

    def test_gauge_invariance(self, torus4):
        rng = np.random.default_rng(72)
        field = random_field(torus4, 2, rng)
        base = ym_action(field)
        for _ in range(25):
            g = ah.random_gauge_transform(torus4, 2, rng)
            assert abs(ym_action(apply_gauge(field, g)) - base) < 1e-10

    def test_gauge_invariance_of_curvature_spectra(self, torus4):
        rng = np.random.default_rng(92)
        field = random_field(torus4, 2, rng)
        spectra = [
            np.sort(np.linalg.eigvalsh(-1j * face_curvature(field, f).mat))
            for f in range(len(torus4.faces))
        ]
        gauged = apply_gauge(field, ah.random_gauge_transform(torus4, 2, rng))
        for f in range(len(torus4.faces)):
            after = np.sort(np.linalg.eigvalsh(-1j * face_curvature(gauged, f).mat))
            assert np.linalg.norm(after - spectra[f]) < 1e-10


class TestGradient:
    def test_flat_critical(self, torus4):
        field = GaugeField.identity(torus4, 2)
        assert all(np.linalg.norm(g.mat) == 0.0 for g in ym_gradient(field))

    def test_constant_flux_critical(self):
        mesh = ah.build_torus_mesh(4)
        field = build_ym_field_from_rep(mesh, flux_rep(1, 1))
        assert gradient_norm(field) < 1e-10

    def test_public_wrapper_matches_engine(self, torus4):
        rng = np.random.default_rng(82)
        field = random_field(torus4, 2, rng)
        engine = _Engine(torus4)
        raw = engine.gradient_from_logs(engine.logs(field.U))
        wrapped = ym_gradient(field)
        assert len(wrapped) == len(torus4.edges)
        for e, g in enumerate(wrapped):
            assert np.linalg.norm(g.mat - raw[e]) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([("torus", 2), ("torus", 3), ("sphere", 1), ("sphere", 2)]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_slot_gather_matches_scatter_loop(self, spec, n, seed):
        # reference: each boundary slot added into its edge by np.add.at
        kind, size = spec
        mesh = ah.build_torus_mesh(size) if kind == "torus" else ah.build_sphere_mesh(size)
        rng = np.random.default_rng(seed)
        field = random_field(mesh, n, rng, scale=1.0)
        a = rng.normal(size=(len(mesh.faces), n, n)) + 1j * rng.normal(size=(len(mesh.faces), n, n))
        x = (a - a.conj().swapaxes(-1, -2)) / 2.0
        engine = _Engine(mesh)
        logs = engine.logs(field.U)._replace(x=x)
        expected = np.zeros_like(field.U)
        layout, q = mesh.face_steps, logs.transports
        for f, (start, length) in enumerate(zip(layout.starts, layout.lengths)):
            slots = np.arange(start, start + length)
            # at n = 1 a transport is conjugation by a phase, which the
            # engine skips
            contrib = x[f] if n == 1 else matmul_raw(matmul_raw(q[slots].conj().swapaxes(-1, -2), x[f]), q[slots])
            np.add.at(expected, layout.edges[slots], contrib * (layout.signs[slots] * (2.0 / engine.mesh.face_areas[f]))[:, None, None])
        assert np.array_equal(engine.gradient_from_logs(logs), expected)

    @pytest.mark.parametrize("n,seed", [(1, 80), (2, 81)])
    def test_finite_difference_oracle(self, n, seed):
        mesh = ah.build_torus_mesh(4)
        rng = np.random.default_rng(seed)
        field = random_field(mesh, n, rng, scale=0.35)
        engine = _Engine(mesh)
        grad = engine.gradient_from_logs(engine.logs(field.U))

        def action_of(values):
            return engine.action_from_logs(engine.logs(values))

        basis = [np.zeros((n, n), complex) for _ in range(n * n)]
        idx = 0
        for i in range(n):
            basis[idx][i, i] = 1j
            idx += 1
        for i in range(n):
            for j in range(i + 1, n):
                basis[idx][i, j], basis[idx][j, i] = 1.0, -1.0
                idx += 1
                basis[idx][i, j], basis[idx][j, i] = 1j, 1j
                idx += 1
        h = 1e-5
        for e in range(len(mesh.edges)):
            for z in basis:
                up = field.U.copy()
                up[e] = expm_raw(h * z) @ up[e]
                down = field.U.copy()
                down[e] = expm_raw(-h * z) @ down[e]
                fd = (action_of(up) - action_of(down)) / (2 * h)
                closed = np.trace(grad[e] @ z.conj().T).real
                assert abs(fd - closed) / max(1.0, abs(closed)) < 1e-6


class TestFlow:
    def test_critical_start_returns_input(self):
        mesh = ah.build_torus_mesh(4)
        field = build_ym_field_from_rep(mesh, flux_rep(1, 1))
        out, report = gradient_flow(field, tol=1e-8)
        assert report.iterations == 0
        assert out is field

    def test_sector_minimum(self, torus8):
        rng = np.random.default_rng(7)
        start = ah.perturb_field(build_ym_field_from_rep(torus8, flux_rep(1, 1)), rng, 0.3)
        flowed, report = gradient_flow(start, tol=1e-9)
        assert abs(report.final_action - FOUR_PI_SQ) < 1e-6
        assert report.final_gradient_norm <= 1e-9

    def test_flux_conserved(self, torus8):
        rng = np.random.default_rng(8)
        start = ah.perturb_field(build_ym_field_from_rep(torus8, flux_rep(1, 1)), rng, 0.3)
        assert total_flux(start) == pytest.approx(2 * np.pi, abs=1e-9)
        flowed, _ = gradient_flow(start, tol=1e-9)
        assert total_flux(flowed) == pytest.approx(2 * np.pi, abs=1e-9)

    def test_history_nonincreasing(self, torus4):
        rng = np.random.default_rng(9)
        start = ah.perturb_field(build_ym_field_from_rep(torus4, flux_rep(1, 1)), rng, 0.3)
        _, report = gradient_flow(start, tol=1e-9, record_history=True)
        actions = [a for _, a, _ in report.step_history]
        slack = 1e-12 * max(1.0, actions[0])
        assert all(b <= a + slack for a, b in zip(actions, actions[1:]))

    @pytest.fixture()
    def perturbed4(self, torus4):
        rng = np.random.default_rng(10)
        return ah.perturb_field(build_ym_field_from_rep(torus4, flux_rep(1, 1)), rng, 0.3)

    @pytest.fixture()
    def perturbed4_u2(self, torus4):
        # n = 2 flows by Levenberg-Marquardt steps and needs several
        # iterations; an abelian flow takes the exact Newton step and
        # converges at once
        rng = np.random.default_rng(10)
        return ah.perturb_field(build_ym_field_from_rep(torus4, flux_rep(2, 1)), rng, 0.3)

    def test_not_converged_carries_report(self, perturbed4_u2):
        with pytest.raises(NotConvergedError) as err:
            gradient_flow(perturbed4_u2, tol=1e-9, max_iter=3)
        assert err.value.report.iterations == 3
        assert isinstance(err.value.field, GaugeField)

    def test_stop_reason_converged(self, perturbed4):
        _, report = gradient_flow(perturbed4, tol=1e-9)
        assert report.stop_reason == "converged"
        _, report = gradient_flow(build_ym_field_from_rep(perturbed4.mesh, flux_rep(1, 1)), tol=1e-8)
        assert (report.iterations, report.stop_reason) == (0, "converged")

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_nonpositive_tol_rejected(self, perturbed4, tol):
        # a flow cannot meet such a tolerance
        with pytest.raises(ValueError, match="^tol must be positive$"):
            gradient_flow(perturbed4, tol=tol)

    @pytest.mark.parametrize("max_iter, error", [(True, ValueError), (2.5, ValueError), ("3", TypeError)])
    def test_max_iter_read_as_json_int(self, perturbed4_u2, max_iter, error):
        # a boolean or a fractional float is no iteration count
        with pytest.raises(error, match=f"^max_iter must be an integer, got {max_iter!r}$"):
            gradient_flow(perturbed4_u2, tol=1e-9, max_iter=max_iter)
        with pytest.raises(NotConvergedError) as err:
            gradient_flow(perturbed4_u2, tol=1e-9, max_iter=2.0)
        assert err.value.report.iterations == 2

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
    def test_perturb_refuses_non_finite_eps(self, torus4, eps):
        # refused before anything is drawn: the generator is left as it was
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^eps must be finite, got"):
            ah.perturb_field(GaugeField.identity(torus4, 2), rng, eps)
        assert rng.bit_generator.state == state

    def test_stop_reason_iteration_budget(self, perturbed4_u2):
        with pytest.raises(NotConvergedError) as err:
            gradient_flow(perturbed4_u2, tol=1e-9, max_iter=3, record_history=True)
        assert err.value.report.stop_reason == "iteration_budget"
        assert_report_reads_its_field(err.value)

    def test_stop_reason_halving_budget(self, perturbed4, monkeypatch):
        # every trial step hits the branch cut: the line search cannot accept
        logs = _Engine.logs

        def logs_of_start_only(self, values):
            if values is not perturbed4.U:
                raise BranchCutError("trial step")
            return logs(self, values)

        monkeypatch.setattr(_Engine, "logs", logs_of_start_only)
        with pytest.raises(NotConvergedError) as err:
            gradient_flow(perturbed4, tol=1e-9, record_history=True)
        assert err.value.report.stop_reason == "halving_budget"
        assert "halving budget" in str(err.value)
        # no step was taken: the flow carries its start
        assert err.value.report.iterations == 0
        assert np.array_equal(err.value.field.U, perturbed4.U)
        monkeypatch.undo()
        assert_report_reads_its_field(err.value)

    def test_stop_reason_stall(self, perturbed4, monkeypatch):
        # every step underflows to the identity
        monkeypatch.setattr(ah.lattice, "expm_raw", lambda x: np.broadcast_to(np.eye(x.shape[-1]), x.shape))
        with pytest.raises(NotConvergedError) as err:
            gradient_flow(perturbed4, tol=1e-9, record_history=True)
        assert err.value.report.stop_reason == "stall"
        assert err.value.report.iterations == 1
        assert "stalled at machine precision" in str(err.value)
        assert_report_reads_its_field(err.value)

    def test_n2_flow_calls_no_lapack(self, monkeypatch):
        # at n = 2 every eigendecomposition and Cayley inverse takes a closed
        # form over the whole stack; numpy's eigh and solve would call
        # LAPACK once per matrix
        mesh = ah.build_sphere_mesh(2)
        start = ah.perturb_field(build_ym_field_from_rep(mesh, ah.sphere_rep([1, 0])), np.random.default_rng(7), 0.3)

        def refuse(*args, **kwargs):
            raise AssertionError("per-matrix LAPACK call in an n = 2 flow")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        _, report = gradient_flow(start, tol=1e-9)
        assert report.stop_reason == "converged"

    def test_stop_reason_json(self, perturbed4):
        _, report = gradient_flow(perturbed4, tol=1e-9)
        obj = report.to_json()
        assert obj["stop_reason"] == "converged"

    def test_nonabelian_converges_and_verifies(self):
        mesh = ah.build_torus_mesh(6)
        rng = np.random.default_rng(20)
        start = random_field(mesh, 2, rng, scale=0.3)
        flowed, report = gradient_flow(start, tol=1e-7, max_iter=30000)
        assert report.final_gradient_norm <= 1e-7
        # critical points have constant curvature spectra across faces
        spectra = np.array(
            [
                np.sort(np.linalg.eigvalsh(-1j * face_curvature(flowed, f).mat))
                for f in range(len(mesh.faces))
            ]
        )
        assert float(np.max(np.ptp(spectra, axis=0))) < 1e-6
        residuals = [
            verify_area_property(flowed, *ah.random_homotopic_pair(mesh, rng, 10))
            for _ in range(20)
        ]
        assert max(residuals) < 1e-6


def incidence_matrix(mesh):
    """Dense face-edge incidence D (F x E): D theta sums a face's boundary."""
    d = np.zeros((len(mesh.faces), len(mesh.edges)))
    for f, face in enumerate(mesh.faces):
        for e, s in face:
            d[f, e] += s
    return d


@st.composite
def abelian_starts(draw):
    """A perturbed n = 1 sector representative on a builder mesh with
    random positive face areas, whose sector minimum is off the branch cut;
    now and then on the mesh read back with two faces merged into one
    longer face, whose holonomy is the product of the two at n = 1, so the
    merged edge's angle is dropped."""
    kind = draw(st.sampled_from(["torus", "sphere"]))
    size = draw(st.integers(2, 8) if kind == "torus" else st.integers(1, 4))
    faces = size * size if kind == "torus" else 8 * size * size
    weights = np.array(draw(st.lists(st.floats(0.5, 1.0), min_size=faces, max_size=faces)))
    flux = draw(st.integers(0, 2))
    if kind == "torus":
        mesh = ah.build_torus_mesh(size, face_areas=weights / np.sum(weights))
        rep = flux_rep(1, flux)
    else:
        mesh = ah.build_sphere_mesh(size, face_areas=weights / np.sum(weights))
        rep = ah.sphere_rep([flux])
    assume(2 * np.pi * flux * np.max(mesh.face_areas) < 2.5)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = ah.perturb_field(build_ym_field_from_rep(mesh, rep), rng, draw(st.floats(0.01, 0.3)))
    if (kind, size) != ("torus", 2) and draw(st.booleans()):
        edge = draw(st.integers(0, len(mesh.edges) - 1))
        mesh = ah.mesh_from_json(merged_faces(ah.mesh_to_json(mesh), edge))
        start = GaugeField(mesh, np.delete(start.U, edge, axis=0))
    try:
        theta = _Engine(mesh).logs(start.U).x[:, 0, 0].imag
    except BranchCutError:
        assume(False)
    # the perturbation may wrap a plaquette into the next sector
    assume(np.max(np.abs(np.sum(theta) * mesh.face_areas)) < 2.5)
    return start


class TestAbelianNewton:
    @settings(max_examples=60, deadline=None)
    @given(abelian_starts())
    def test_direction_is_minimum_norm_solution(self, start):
        # at n = 1 the shared Gauss-Newton solve is the exact Newton step:
        # the edge angles delta, minimum-norm, with D delta = theta - Phi A / sum(A)
        mesh = start.mesh
        engine = _Engine(mesh)
        logs = engine.logs(start.U)
        theta = logs.x[:, 0, 0].imag
        r = theta - np.sum(theta) * mesh.face_areas / np.sum(mesh.face_areas)
        expected = np.linalg.lstsq(incidence_matrix(mesh), r - np.mean(r), rcond=None)[0]
        direction = engine.levenberg_marquardt(logs, engine.gradient_from_logs(logs) / 2, 10.0)
        assert np.max(np.abs(direction[:, 0, 0] - 1j * expected)) <= 1e-12
        _, report = gradient_flow(start, tol=1e-9)
        assert report.stop_reason == "converged"
        assert report.iterations <= 2

    @settings(max_examples=20, deadline=None)
    @given(abelian_starts(), st.integers(0, 2**32 - 1))
    def test_final_action_gauge_invariant(self, start, seed):
        g = ah.random_gauge_transform(start.mesh, 1, np.random.default_rng(seed))
        _, report = gradient_flow(start, tol=1e-9)
        _, gauged = gradient_flow(apply_gauge(start, g), tol=1e-9)
        assert abs(gauged.final_action - report.final_action) <= 1e-9 * max(1.0, report.final_action)

    @pytest.mark.parametrize("value", [0.0, np.nan], ids=["not-descending", "not-finite"])
    def test_falls_back_to_gradient(self, torus4, monkeypatch, value):
        # a Newton direction that does not descend, or is not finite, is
        # replaced by the gradient
        monkeypatch.setattr(_Engine, "levenberg_marquardt", lambda *args: np.full((len(torus4.edges), 1, 1), value))
        start = ah.perturb_field(build_ym_field_from_rep(torus4, flux_rep(1, 1)), np.random.default_rng(3), 0.3)
        _, report = gradient_flow(start, tol=1e-9)
        assert report.stop_reason == "converged"
        assert report.iterations > 2


def coordinates(z):
    """The u(n) coordinates (E, n^2) of skew-Hermitian z (E, n, n) in the
    engine's orthonormal basis."""
    basis = _u_basis(z.shape[-1])
    return np.einsum("kab,eab->ek", basis.reshape(len(basis), *z.shape[1:]).conj(), z).real


def dexp_inverse(theta):
    """Phi_ab = z / (e^z - 1), z = i (theta_a - theta_b), 1 where z = 0: the
    factor dexp^-1 puts on entry (a, b) of a plaquette change in the
    eigenbasis of its log."""
    z = 1j * (theta[:, :, None] - theta[:, None, :])
    phi = np.ones_like(z)
    off = z != 0
    phi[off] = z[off] / np.expm1(z[off])
    return phi


def jacobian(engine, logs, z):
    """J Z, the first-order change of the face logs under U_e <- exp(Z_e) U_e,
    assembled from the engine's real slot blocks, which are taken in the
    eigenbases of the face logs the engine computed (logs.v), times Phi."""
    n = z.shape[-1]
    basis = _u_basis(n).reshape(n * n, n, n)
    c = coordinates(z)
    blocks = engine.slot_blocks(logs)
    phi = dexp_inverse(logs.theta)
    layout = engine.mesh.face_steps
    out = np.empty_like(logs.x)
    for f, (start, length) in enumerate(zip(layout.starts, layout.lengths)):
        slots = np.arange(start, start + length)
        image = np.einsum("jkl,jl,kab->ab", blocks[slots], c[layout.edges[slots]], basis)
        out[f] = logs.v[f] @ (phi[f] * image) @ logs.v[f].conj().T
    return out


def jacobian_adjoint(engine, logs, y):
    """J^T Y without the blocks: the adjoint of dexp^-1 (conj z / (e^z - 1)
    in the engine's eigenbasis of X_f), then the gradient kernel's scatter,
    whose factor 2 / A_f is cancelled."""
    v = logs.v
    vh = v.conj().swapaxes(-1, -2)
    pulled = v @ (dexp_inverse(logs.theta).conj() * (vh @ y @ v)) @ vh
    return engine.gradient_from_logs(logs._replace(x=pulled * engine.mesh.face_areas[:, None, None] / 2))


def random_skew(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return (a - a.conj().swapaxes(-1, -2)) / 2


def real_inner(a, b):
    return float(np.sum((a.conj() * b).real))


@st.composite
def nonabelian_fields(draw, specs, merged=False):
    """A random n = 2 or 3 field on a builder mesh, its plaquette phases
    kept off the branch cut; with merged, now and then on the mesh read
    back with two faces merged into one longer face."""
    kind, size = draw(st.sampled_from(specs))
    mesh = ah.build_torus_mesh(size) if kind == "torus" else ah.build_sphere_mesh(size)
    if merged and (kind, size) != ("torus", 2) and draw(st.booleans()):
        mesh = ah.mesh_from_json(merged_faces(ah.mesh_to_json(mesh), draw(st.integers(0, len(mesh.edges) - 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = random_field(mesh, draw(st.sampled_from([2, 3])), rng, scale=draw(st.floats(0.05, 0.6)))
    plaquettes = _Engine(mesh).plaquettes(field.U)
    assume(np.max(np.abs(np.angle(np.linalg.eigvals(plaquettes)))) < 2.5)
    return field, rng


class TestLevenbergMarquardt:
    @settings(max_examples=30, deadline=None)
    @given(nonabelian_fields([("torus", 2), ("torus", 3), ("sphere", 1), ("sphere", 2)]))
    def test_jacobian_matches_finite_differences(self, drawn):
        field, rng = drawn
        engine = _Engine(field.mesh)
        logs = engine.logs(field.U)
        z = random_skew(rng, field.U.shape)
        closed = jacobian(engine, logs, z)
        h = 1e-5
        fd = (engine.logs(expm_raw(h * z) @ field.U).x - engine.logs(expm_raw(-h * z) @ field.U).x) / (2 * h)
        assert np.max(np.abs(fd - closed)) <= 1e-7 * max(1.0, np.max(np.abs(closed)))

    @settings(max_examples=30, deadline=None)
    @given(nonabelian_fields([("torus", 2), ("torus", 3), ("sphere", 1), ("sphere", 2)]))
    def test_adjoint(self, drawn):
        field, rng = drawn
        engine = _Engine(field.mesh)
        logs = engine.logs(field.U)
        z = random_skew(rng, field.U.shape)
        y = random_skew(rng, logs.x.shape)
        lhs = real_inner(y, jacobian(engine, logs, z))
        rhs = real_inner(jacobian_adjoint(engine, logs, y), z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)) * y.size
        # J^T W X is half the gradient
        grad = engine.gradient_from_logs(logs)
        assert np.max(np.abs(jacobian_adjoint(engine, logs, logs.x / engine.mesh.face_areas[:, None, None]) - grad / 2)) <= 1e-12 * max(
            1.0, np.max(np.abs(grad))
        )

    @settings(max_examples=15, deadline=None)
    @given(nonabelian_fields([("torus", 2), ("torus", 3), ("sphere", 1)], merged=True), st.floats(0.0, 10.0))
    def test_normal_operator_matches_dense(self, drawn, mu):
        # the Gauss-Newton rows against dense B^T (J^H W J) B + mu I, with B
        # the orthonormal basis of u(n)^E whose coordinates the rows act on
        field, _ = drawn
        engine = _Engine(field.mesh)
        logs = engine.logs(field.U)
        n, edges = field.n, len(field.mesh.edges)
        units = np.eye(edges * n * n).reshape(-1, edges, n * n)
        basis = _u_basis(n).reshape(n * n, n, n)
        columns = np.array([jacobian(engine, logs, np.einsum("ek,kab->eab", c, basis)) for c in units])
        weighted = columns / engine.mesh.face_areas[:, None, None]
        dense = np.einsum("ifab,kfab->ik", columns.conj(), weighted).real + mu * np.eye(len(units))
        apply = engine.normal_operator(logs, engine.face_blocks(logs), mu, False)
        blocked = np.array([apply(c).ravel() for c in units]).T
        assert np.max(np.abs(blocked - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("mu", [0.0, 2.0])
    def test_operator_is_basis_free_on_scalar_logs(self, mu):
        # every face log of a (1, 1) field is scalar, so any eigenbasis is
        # valid: the operator built in the engine's bases must be the one
        # built in the bases eigh(-1j x) gives, with and without curvature
        mesh = ah.build_sphere_mesh(2)
        rep_field = build_ym_field_from_rep(mesh, ah.sphere_rep([1, 1]))
        field = apply_gauge(rep_field, ah.random_gauge_transform(mesh, 2, np.random.default_rng(5)))
        engine = _Engine(mesh)
        logs = engine.logs(field.U)
        theta, v = np.linalg.eigh(-1j * logs.x)
        assert np.max(np.abs(logs.v - v)) > 0.1
        units = np.eye(len(mesh.edges) * 4).reshape(-1, len(mesh.edges), 4)
        for curvature in (True, False):
            states = (logs, logs._replace(v=v, theta=theta))
            new, old = (engine.normal_operator(state, engine.face_blocks(state), mu, curvature) for state in states)
            new, old = (np.array([apply(c).ravel() for c in units]) for apply in (new, old))
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_u_basis_is_orthonormal(self, n):
        basis = _u_basis(n).reshape(n * n, n, n)
        assert np.array_equal(basis, -basis.conj().swapaxes(-1, -2))
        gram = np.einsum("iab,kab->ik", basis.conj(), basis)
        assert np.max(np.abs(gram - np.eye(n * n))) <= 1e-15

    def test_mixed_face_lengths_reach_steepest_descent_action(self, torus4, monkeypatch):
        # torus:4 with face 5 split into two triangles by a diagonal edge
        obj = ah.mesh_to_json(torus4)
        steps = torus4.faces[5]
        (e0, s0), (e1, s1) = steps[:2]
        v0 = torus4.step_ends[2 * e0 + (s0 < 0)][0]
        v2 = torus4.step_ends[2 * e1 + (s1 < 0)][1]
        diagonal = len(obj["edges"])
        obj["edges"].append([v0, v2])
        square = obj["faces"][5]
        obj["faces"][5] = square[:2] + [-(diagonal + 1)]
        obj["faces"].append([diagonal + 1] + square[2:])
        half = obj["face_areas"][5] / 2
        obj["face_areas"][5] = half
        obj["face_areas"].append(half)
        mesh = ah.mesh_from_json(obj)
        assert sorted({len(face) for face in mesh.faces}) == [3, 4]
        u = build_ym_field_from_rep(torus4, flux_rep(2, 1)).U
        w0, w1 = (u[e] if s > 0 else u[e].conj().T for e, s in steps[:2])
        start = ah.perturb_field(GaugeField(mesh, np.concatenate([u, [w0 @ w1]])), np.random.default_rng(4), 0.3)
        _, report = gradient_flow(start, tol=1e-9)
        assert report.iterations <= 20
        # a direction that is not finite falls back to the gradient
        monkeypatch.setattr(_Engine, "levenberg_marquardt", lambda *args: np.full(u.shape[1:], np.nan))
        _, steepest = gradient_flow(start, tol=1e-9, max_iter=5000)
        assert steepest.iterations > 50
        assert abs(report.final_action - steepest.final_action) <= 1e-9
        # the U(2) flux-1 minimum on the torus has central curvature i pi I
        assert abs(report.final_action - 2 * np.pi**2) <= 1e-9

    @pytest.mark.parametrize("spec, ceiling", [("sphere:4", 12), ("sphere:8", 12), ("torus:8", 15)])
    def test_iteration_ceiling(self, spec, ceiling):
        kind, size = spec.split(":")
        if kind == "sphere":
            mesh, rep = ah.build_sphere_mesh(int(size)), ah.sphere_rep([1, 0])
        else:
            mesh, rep = ah.build_torus_mesh(int(size)), flux_rep(2, 1)
        # the start `solve --n 2 --flux 1 --seed 7` flows from
        start = ah.perturb_field(build_ym_field_from_rep(mesh, rep), np.random.default_rng(7), 0.3)
        _, report = gradient_flow(start, tol=1e-9)
        assert report.stop_reason == "converged"
        assert report.iterations <= ceiling



def operator_case(case, n):
    """A perturbed sector representative (sphere:2, torus:3) or a random
    field (slit faces, random face areas): none is critical."""
    rng = np.random.default_rng(n)
    if case == "sphere:2":
        return ah.perturb_field(build_ym_field_from_rep(ah.build_sphere_mesh(2), ah.sphere_rep([1] + [0] * (n - 1))), rng, 0.3)
    if case == "torus:3":
        return ah.perturb_field(build_ym_field_from_rep(ah.build_torus_mesh(3), flux_rep(n, 1)), rng, 0.3)
    if case == "random-areas":
        obj = ah.mesh_to_json(ah.build_sphere_mesh(2))
        areas = rng.uniform(0.5, 2.0, len(obj["faces"]))
        mesh = ah.mesh_from_json({**obj, "face_areas": (areas / np.sum(areas)).tolist()})
    else:
        mesh = slit_face(ah.build_torus_mesh(2) if case == "slit-torus" else ah.build_sphere_mesh(2))
    return random_field(mesh, n, rng, scale=0.3)


class TestNewtonOperator:
    @pytest.mark.parametrize("case, n", [("sphere:2", 2), ("sphere:2", 3), ("torus:3", 2), ("slit-sphere", 2),
                                         ("slit-torus", 2), ("random-areas", 2)])
    def test_matches_finite_difference_hessian(self, case, n):
        # the assembled operator is H / 2, H the Hessian of Z -> S(exp(Z) U);
        # Gauss-Newton alone is far from it off the critical points
        field = operator_case(case, n)
        assert gradient_norm(field) > 1.0
        hessian = finite_difference_hessian(field) / 2
        bound = 1e-6 * np.max(np.abs(hessian))
        assert np.max(np.abs(dense_operator(field, 0.0, True) - hessian)) <= bound
        assert np.max(np.abs(dense_operator(field, 0.0, False) - hessian)) > 1e4 * bound

    @pytest.mark.parametrize("case", ["sphere:2", "torus:3", "slit-sphere", "random-areas"])
    def test_abelian_operator_is_incidence_laplacian(self, case):
        # at n = 1 each slot block is its sign and the operator is D^T W D
        field = operator_case(case, 1)
        mesh = field.mesh
        engine = _Engine(mesh)
        assert same_bytes(engine.slot_blocks(engine.logs(field.U)), mesh.face_steps.signs.astype(np.float64)[:, None, None])
        d = incidence_matrix(mesh)
        laplacian = d.T @ (d / np.asarray(mesh.face_areas)[:, None])
        for curvature in (True, False):
            assert np.array_equal(dense_operator(field, 0.0, curvature), laplacian)

    def test_conjugate_gradients_reports_indefinite(self):
        diagonal = np.array([[2.0, 1.0], [1.0, 3.0]])
        s, indefinite = _conjugate_gradients(lambda p: diagonal * p, np.ones((2, 2)), 1e-14)
        assert not indefinite and np.max(np.abs(diagonal * s - 1.0)) <= 1e-14
        _, indefinite = _conjugate_gradients(lambda p: np.array([[1.0, -1.0]]) * p, np.ones((1, 2)), 1e-14)
        assert indefinite

    def test_falls_back_to_gauss_newton(self, torus8, monkeypatch):
        # on the `solve --mesh torus:8 --n 2 --flux 1 --seed 7` start the
        # Newton operator is indefinite in some iterations; those take the
        # Gauss-Newton direction, and the flow still reaches the U(2)
        # flux-1 minimum, curvature i pi I, action 2 pi^2
        built, normal_operator = [], _Engine.normal_operator

        def recording(self, logs, blocks, mu, curvature):
            built.append(curvature)
            return normal_operator(self, logs, blocks, mu, curvature)

        monkeypatch.setattr(_Engine, "normal_operator", recording)
        start = ah.perturb_field(build_ym_field_from_rep(torus8, flux_rep(2, 1)), np.random.default_rng(7), 0.3)
        _, report = gradient_flow(start, tol=1e-9)
        assert report.stop_reason == "converged"
        assert built.count(True) == report.iterations
        assert 1 <= built.count(False) < report.iterations
        assert abs(report.final_action - 2 * np.pi**2) <= 1e-9

    def test_gauss_newton_rebuild_reuses_the_slot_blocks(self, torus8, monkeypatch):
        # the slot blocks depend on the logs only: an iteration builds them
        # once, for its Newton operator and its Gauss-Newton rebuild alike;
        # and the flow evaluates one gradient up front and one per accepted
        # step, the count perfbench's gradient-norm gate metric is read from
        calls, slot_blocks = [], _Engine.slot_blocks
        gradients, gradient_from_logs = [], _Engine.gradient_from_logs

        def counted(self, logs):
            calls.append(logs)
            return slot_blocks(self, logs)

        def counted_gradient(self, logs):
            gradients.append(logs)
            return gradient_from_logs(self, logs)

        monkeypatch.setattr(_Engine, "slot_blocks", counted)
        monkeypatch.setattr(_Engine, "gradient_from_logs", counted_gradient)
        start = ah.perturb_field(build_ym_field_from_rep(torus8, flux_rep(2, 1)), np.random.default_rng(7), 0.3)
        _, report = gradient_flow(start, tol=1e-9)
        assert report.stop_reason == "converged"
        assert len(calls) == report.iterations
        assert len(gradients) == report.iterations + 1

    def test_engine_keeps_no_per_call_state(self, monkeypatch):
        # an engine holds its mesh only, and nothing but the mesh's cached
        # properties writes to the mesh: a flow that takes both Newton
        # operators, a verify_pairs pass and loop_class calls leave it with
        # its construction attributes and cached tables, in no reference
        # cycle, so it is freed on del without the cyclic collector
        assert _Engine.__slots__ == ("mesh",)
        cached = {name for name, value in vars(ah.SurfaceMesh).items() if isinstance(value, cached_property)}
        built, operators = [], _Engine.normal_operator

        def recording(self, logs, blocks, mu, curvature):
            built.append(curvature)
            return operators(self, logs, blocks, mu, curvature)

        monkeypatch.setattr(_Engine, "normal_operator", recording)
        gc.disable()
        try:
            mesh = ah.build_torus_mesh(8)
            constructed = set(vars(mesh))
            rng = np.random.default_rng(7)
            start = ah.perturb_field(build_ym_field_from_rep(mesh, flux_rep(2, 1)), rng, 0.3)
            field, report = gradient_flow(start, tol=1e-9)
            assert report.stop_reason == "converged" and set(built) == {True, False}
            pairs = [ah.random_homotopic_pair(mesh, rng, 12) for _ in range(8)]
            assert all(not isinstance(row, Exception) for row in verify_pairs(field, pairs))
            for l1, _ in pairs:
                ah.loop_class(mesh, l1)
            assert set(vars(mesh)) <= constructed | cached
            freed = weakref.ref(mesh)
            del mesh, start, field
            assert freed() is None
        finally:
            gc.enable()


class TestGaugeInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([("torus", 2), ("torus", 3), ("torus", 5), ("sphere", 1), ("sphere", 2)]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_observables(self, spec, n, seed, merged):
        # on builder meshes and, with merged, on mixed face lengths
        kind, size = spec
        mesh = ah.build_torus_mesh(size) if kind == "torus" else ah.build_sphere_mesh(size)
        rng = np.random.default_rng(seed)
        if merged and spec != ("torus", 2):
            mesh = ah.mesh_from_json(merged_faces(ah.mesh_to_json(mesh), int(rng.integers(len(mesh.edges)))))
        field = random_field(mesh, n, rng, scale=0.2)
        g = ah.random_gauge_transform(mesh, n, rng)
        gauged = apply_gauge(field, g)
        for observable in (ym_action, gradient_norm, total_flux):
            before = observable(field)
            assert abs(observable(gauged) - before) <= 1e-9 * max(1.0, abs(before))
        # the gradient lives in each edge's tail frame: G_e -> g_t G_e g_t*
        tail = g.g[mesh.tails]
        grad = np.array([x.mat for x in ym_gradient(field)])
        moved = np.array([x.mat for x in ym_gradient(gauged)])
        assert np.max(np.abs(moved - tail @ grad @ tail.conj().swapaxes(-1, -2))) <= 1e-9 * max(1.0, np.max(np.abs(grad)))


class TestUnitarize:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 16), st.floats(0, 1e-10), st.integers(0, 2**32 - 1))
    def test_matches_svd_polar_factor(self, n, count, noise, seed):
        # the SVD polar factor that the Newton-Schulz step replaced is the
        # reference; on near-unitary input the two agree to roundoff
        rng = np.random.default_rng(seed)
        shape = (count, n, n)
        jitter = noise * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        near = haar_unitary_raw(rng, (count,), n) + jitter
        w, _, vh = np.linalg.svd(near)
        out = _unitarize(near)
        assert np.max(np.abs(out - w @ vh)) <= 1e-14
        assert np.max(np.abs(out.conj().swapaxes(-1, -2) @ out - np.eye(n))) <= 1e-14


class TestGauge:
    def test_nan_entry_rejected(self, torus4):
        values = np.broadcast_to(np.eye(2, dtype=complex), (16, 2, 2)).copy()
        values[5, 1, 0] = np.nan
        with pytest.raises(ValueError):
            ah.GaugeTransform(values)

    def test_identity_transform(self, torus4):
        rng = np.random.default_rng(73)
        field = random_field(torus4, 2, rng)
        ident = ah.GaugeTransform(np.broadcast_to(np.eye(2, dtype=complex), (16, 2, 2)).copy())
        assert np.array_equal(apply_gauge(field, ident).U, field.U)

    def test_holonomy_conjugation(self, torus4):
        rng = np.random.default_rng(74)
        field = random_field(torus4, 2, rng)
        for _ in range(25):
            g = ah.random_gauge_transform(torus4, 2, rng)
            gauged = apply_gauge(field, g)
            loop = ah.random_loop(torus4, rng, 10, windings=(1, -1))
            h1 = loop_holonomy(field, loop).mat
            h2 = loop_holonomy(gauged, loop).mat
            g0 = g.g[torus4.basepoint]
            assert np.linalg.norm(h2 - g0 @ h1 @ g0.conj().T) < 1e-12


class TestLoopHolonomy:
    def test_constant_loop(self, torus4):
        field = GaugeField.identity(torus4, 2)
        assert np.array_equal(loop_holonomy(field, MeshLoop(0, ())).mat, np.eye(2))

    def test_retrace_cancels_exactly(self, torus4):
        rng = np.random.default_rng(75)
        field = random_field(torus4, 2, rng)
        loop = ah.random_loop(torus4, rng, 12)
        both = ah.loop_concat(loop, ah.loop_reverse(loop))
        assert np.array_equal(loop_holonomy(field, both).mat, np.eye(2))

    def test_face_boundary_matches_plaquette_up_to_conjugation(self, torus4):
        rng = np.random.default_rng(76)
        field = random_field(torus4, 2, rng)
        face = 5
        loop = ah.face_boundary_loop(torus4, face)
        hol = loop_holonomy(field, loop).mat
        plq = plaquette_holonomy(field, face).mat
        assert np.linalg.norm(hol - plq) < 1e-12
        assert ah.conjugacy_residual(Unitary(hol), Unitary(plq)) < 1e-12


    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([("torus", 2), ("torus", 4), ("sphere", 1), ("sphere", 2)]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.integers(0, 16),
        st.integers(0, 16),
    )
    def test_concatenation_is_product(self, spec, n, seed, steps1, steps2):
        kind, size = spec
        mesh = ah.build_torus_mesh(size) if kind == "torus" else ah.build_sphere_mesh(size)
        rng = np.random.default_rng(seed)
        field = random_field(mesh, n, rng, scale=1.0)
        loops = []
        for steps in (steps1, steps2):
            windings = tuple(int(w) for w in rng.integers(-1, 2, size=2)) if kind == "torus" else None
            loops.append(ah.random_loop(mesh, rng, steps, windings=windings))
        whole = loop_holonomy(field, ah.loop_concat(*loops)).mat
        product = loop_holonomy(field, loops[0]).mat @ loop_holonomy(field, loops[1]).mat
        assert np.max(np.abs(whole - product)) <= 1e-12


class TestVerifyAreaProperty:
    def test_equal_loops_zero(self, torus4):
        rng = np.random.default_rng(77)
        field = random_field(torus4, 1, rng)
        loop = ah.random_loop(torus4, rng, 10)
        assert verify_area_property(field, loop, loop) == 0.0

    def test_flat_field_any_homotopic_pair(self, torus4):
        field = GaugeField.identity(torus4, 2)
        rng = np.random.default_rng(78)
        for _ in range(10):
            l1, l2 = ah.random_homotopic_pair(torus4, rng, 12, winding_range=2)
            assert verify_area_property(field, l1, l2, SkewHermitian(np.zeros((2, 2)))) < 1e-12

    def test_converged_vs_perturbed_contrast(self, torus8):
        field = build_ym_field_from_rep(torus8, flux_rep(1, 1))
        rng = np.random.default_rng(79)
        good = [
            verify_area_property(field, *ah.random_homotopic_pair(torus8, rng, 12))
            for _ in range(20)
        ]
        assert max(good) < 1e-8
        bad_field = ah.perturb_field(field, rng, 0.1)
        bad = [
            verify_area_property(bad_field, *ah.random_homotopic_pair(torus8, rng, 12))
            for _ in range(20)
        ]
        assert max(bad) > 1e-2

    def test_default_lambda_in_basepoint_frame(self, torus4):
        # basepoint 5 lies on face 0 but does not start its boundary, so
        # face 0's curvature is in vertex 0's frame, which a random gauge
        # rotates away from vertex 5's
        mesh = ah.SurfaceMesh(1, 16, torus4.edges, torus4.faces, torus4.face_areas, 5)
        assert mesh.face_start_vertex(0) != 5
        field = build_ym_field_from_rep(mesh, flux_rep(2, 1))
        field = apply_gauge(field, ah.random_gauge_transform(mesh, 2, np.random.default_rng(3)))
        assert gradient_norm(field) < 1e-12
        rng = np.random.default_rng(4)
        residuals = [verify_area_property(field, *ah.random_homotopic_pair(mesh, rng)) for _ in range(20)]
        assert max(residuals) < 1e-12

    def test_not_null_homotopic_pair(self, torus4):
        field = GaugeField.identity(torus4, 1)
        l1 = ah.alpha_loop(torus4)
        l2 = MeshLoop(torus4.basepoint, ())
        with pytest.raises(ah.NotNullHomotopicError):
            verify_area_property(field, l1, l2)

    def test_open_paths_are_not_a_pair(self, torus4):
        # both paths run from vertex 0 to vertex 1, and l1 l2^-1 is the
        # alpha cycle: the open l1 is reported, not the winding between them;
        # an open l2 is reported after a closed l1 too
        field = build_ym_field_from_rep(torus4, flux_rep(1, 1))
        l1 = MeshLoop(0, ((0, 1),))
        l2 = MeshLoop(0, ((3, -1), (2, -1), (1, -1)))
        for pair in ((l1, l2), (MeshLoop(0, ()), l2)):
            with pytest.raises(ah.MalformedLoopError, match="^loop does not return to its base vertex$"):
                verify_area_property(field, *pair)

    def test_loops_off_the_basepoint_are_not_a_pair(self, torus4):
        # a winding path between two loops at vertex 5 is not what fails
        field = build_ym_field_from_rep(torus4, flux_rep(1, 1))
        l1 = MeshLoop(5, ((5, 1), (6, 1), (7, 1), (4, 1)))
        with pytest.raises(ValueError, match="^both loops must be based at the mesh basepoint$"):
            verify_area_property(field, l1, MeshLoop(5, ()))

    def test_lambda_of_another_size(self, torus4):
        field = GaugeField.identity(torus4, 2)
        loop = ah.random_loop(torus4, np.random.default_rng(5), 6)
        with pytest.raises(ah.DimensionMismatchError, match="^Lambda is 3 x 3, the field's matrices 2 x 2$"):
            verify_area_property(field, loop, loop, SkewHermitian(np.zeros((3, 3))))


class TestShrinkingLoops:
    def test_flat_field_all_zero(self):
        mesh = ah.build_torus_mesh(8)
        rows = shrinking_loop_curvature(GaugeField.identity(mesh, 1))
        assert all(res < 1e-12 for _, res in rows)

    def test_first_order_convergence(self):
        mesh = ah.build_torus_mesh(16)
        field = build_ym_field_from_rep(mesh, flux_rep(1, 1))
        rows = shrinking_loop_curvature(field)
        assert [round(a * 256) for a, _ in rows] == [64, 16, 4, 1]
        for (a1, r1), (a2, r2) in zip(rows, rows[1:]):
            assert abs((r2 / r1) / (a2 / a1) - 1.0) < 0.2
        residuals = [r for _, r in rows]
        assert residuals == sorted(residuals, reverse=True)

    def test_nonabelian_decrease(self):
        mesh = ah.build_torus_mesh(8)
        lam = SkewHermitian(2j * np.pi * np.diag([1.0, 0.0]))
        eye = Unitary(np.eye(2))
        field = build_ym_field_from_rep(mesh, ah.YangMillsRep(1, 2, [eye], [eye], lam))
        rows = shrinking_loop_curvature(field)
        residuals = [r for _, r in rows]
        assert residuals == sorted(residuals, reverse=True)

    def test_blocks_at_the_basepoint(self):
        # on a re-based mesh in a random gauge the blocks start at the
        # basepoint and F is read in its frame, so the table is that of the
        # same field at basepoint 0
        lam = SkewHermitian(2j * np.pi * np.diag([1.0, 0.0]))
        eye = Unitary(np.eye(2))
        rep = ah.YangMillsRep(1, 2, [eye], [eye], lam)
        want = shrinking_loop_curvature(build_ym_field_from_rep(ah.build_torus_mesh(8), rep))
        mesh = rebased(ah.build_torus_mesh(8), 27)
        field = build_ym_field_from_rep(mesh, rep)
        field = apply_gauge(field, ah.random_gauge_transform(mesh, 2, np.random.default_rng(6)))
        got = shrinking_loop_curvature(field)
        assert [a for a, _ in got] == [a for a, _ in want]
        assert np.allclose([r for _, r in got], [r for _, r in want], rtol=0, atol=1e-10)

    def test_too_coarse(self):
        mesh = ah.build_torus_mesh(2)
        with pytest.raises(ah.UnsupportedMeshError):
            shrinking_loop_curvature(GaugeField.identity(mesh, 1))


class TestBuildFromRep:
    def test_flat_commuting_rep(self, torus4):
        a = Unitary(np.diag([np.exp(0.3j), np.exp(-0.6j)]))
        b = Unitary(np.diag([np.exp(1.1j), np.exp(0.2j)]))
        rep = ah.YangMillsRep(1, 2, [a], [b], SkewHermitian(np.zeros((2, 2))))
        field = build_ym_field_from_rep(torus4, rep)
        for f in range(16):
            assert np.linalg.norm(plaquette_holonomy(field, f).mat - np.eye(2)) < 1e-12
        assert np.linalg.norm(loop_holonomy(field, ah.alpha_loop(torus4)).mat - a.mat) < 1e-12
        assert np.linalg.norm(loop_holonomy(field, ah.beta_loop(torus4)).mat - b.mat) < 1e-12

    def test_unit_flux_plaquettes(self):
        mesh = ah.build_torus_mesh(4)
        field = build_ym_field_from_rep(mesh, flux_rep(1, 1))
        for f in range(16):
            assert abs(plaquette_holonomy(field, f).mat[0, 0] - np.exp(2j * np.pi / 16)) < 1e-14
        assert total_flux(field) == pytest.approx(2 * np.pi, abs=1e-12)

    def test_nonabelian_stationary(self):
        mesh = ah.build_torus_mesh(6)
        lam = SkewHermitian(2j * np.pi * np.diag([1.0, 0.0]))
        eye = Unitary(np.eye(2))
        field = build_ym_field_from_rep(mesh, ah.YangMillsRep(1, 2, [eye], [eye], lam))
        expected = expm_raw(lam.mat / 36)
        for f in range(36):
            assert np.linalg.norm(plaquette_holonomy(field, f).mat - expected) < 1e-12
        assert gradient_norm(field) < 1e-10

    def test_projectively_flat_quaternion(self, torus4):
        field = build_ym_field_from_rep(torus4, quaternion_rep(1))
        x = quaternion_rep(1)
        assert np.linalg.norm(loop_holonomy(field, ah.alpha_loop(torus4)).mat - x.A[0].mat) < 1e-12
        assert gradient_norm(field) < 1e-10

    def test_sphere_monopole(self, sphere2):
        field = build_ym_field_from_rep(sphere2, ah.sphere_rep([1, 0]))
        lam0 = face_curvature(field, 0).mat
        assert np.linalg.norm(lam0 - 2j * np.pi * np.diag([1.0, 0.0])) < 1e-10
        spreads = [
            np.linalg.norm(face_curvature(field, f).mat - lam0)
            for f in range(len(sphere2.faces))
        ]
        assert max(spreads) < 1e-10
        assert total_flux(field) == pytest.approx(2 * np.pi, abs=1e-9)

    @pytest.mark.parametrize(
        "kind, size, rep_name",
        [("torus", n_grid, name) for n_grid in (3, 4, 6) for name in ("flux", "quaternion")]
        + [("sphere", subdiv, "monopole") for subdiv in (2, 3)],
    )
    def test_critical_on_non_uniform_areas(self, kind, size, rep_name):
        rep = {
            "flux": flux_rep(1, 1),
            "quaternion": quaternion_rep(1),
            "monopole": ah.sphere_rep([1, 0]),
        }[rep_name]
        build = ah.build_torus_mesh if kind == "torus" else ah.build_sphere_mesh
        faces = size * size if kind == "torus" else 8 * size * size
        weights = np.random.default_rng(size).uniform(1.0, 2.0, faces)
        mesh = build(size, face_areas=weights / np.sum(weights))
        field = build_ym_field_from_rep(mesh, rep)
        assert gradient_norm(field) <= 1e-10
        assert ym_action(field) == pytest.approx(ah.ym_action_value(rep), abs=1e-9)

    def test_invalid_rep_rejected(self, torus4):
        eye = Unitary(np.eye(2))
        bad = ah.YangMillsRep(1, 2, [eye], [eye], SkewHermitian(1j * np.pi * np.eye(2)))
        with pytest.raises(ah.InvalidRepError):
            build_ym_field_from_rep(torus4, bad)

    def test_genus_mismatch(self, sphere2):
        with pytest.raises(ah.UnsupportedMeshError):
            build_ym_field_from_rep(sphere2, flux_rep(1, 1))

    @pytest.mark.parametrize("size, flux", [(2, 3), (3, 5), (4, 9)])
    def test_torus_flux_past_the_branch_refused(self, size, flux):
        # 2 pi flux / size^2 >= pi: each plaquette's principal log would
        # fall into another sector (total flux -4 2 pi on torus:3 at flux 5)
        with pytest.raises(ah.UnsupportedMeshError, match="principal branch"):
            build_ym_field_from_rep(ah.build_torus_mesh(size), flux_rep(1, flux))

    def test_sphere_flux_past_the_branch_refused(self):
        # sphere:1 has eight faces of area 1/8, so flux 4 puts pi on each
        with pytest.raises(ah.UnsupportedMeshError, match="principal branch"):
            build_ym_field_from_rep(ah.build_sphere_mesh(1), ah.sphere_rep([4]))

    def test_largest_flux_within_the_branch_kept(self):
        # flux 7 on torus:4 puts 7 pi / 8 on each face
        field = build_ym_field_from_rep(ah.build_torus_mesh(4), flux_rep(1, 7))
        assert total_flux(field) == pytest.approx(14 * np.pi, abs=1e-12)


class TestFieldJson:
    def test_nan_edge_rejected(self, torus4):
        values = np.ones((len(torus4.edges), 1, 1), dtype=np.complex128)
        values[3, 0, 0] = np.nan
        with pytest.raises(ValueError):
            GaugeField(torus4, values)
        snapshot = ah.field_to_json(GaugeField.identity(torus4, 2))
        snapshot["edges"][7]["im"][0][1] = float("nan")
        with pytest.raises(ValueError):
            ah.field_from_json(snapshot)

    @pytest.mark.parametrize("shape", [(16, 0, 0), (16, 2), (16, 2, 3), (15, 2, 2)])
    def test_bad_shape_rejected(self, torus4, shape):
        # n = 0 included: it would pass as "square" and fail later in numpy
        with pytest.raises(ValueError, match=r"^field values must have shape \(E, n, n\), n >= 1$"):
            GaugeField(torus4, np.zeros(shape, dtype=np.complex128))

    def test_roundtrip(self, torus4):
        rng = np.random.default_rng(90)
        field = random_field(torus4, 2, rng)
        back = ah.field_from_json(ah.field_to_json(field))
        assert np.array_equal(back.U, field.U)
        assert back.mesh.grid is not None

    def test_mesh_by_reference_path(self, torus4, tmp_path):
        import json

        rng = np.random.default_rng(93)
        field = random_field(torus4, 1, rng)
        (tmp_path / "mesh.json").write_text(json.dumps(ah.mesh_to_json(torus4)))
        snapshot = ah.field_to_json(field)
        snapshot["mesh"] = "mesh.json"
        back = ah.field_from_json(snapshot, base_dir=str(tmp_path))
        assert np.array_equal(back.U, field.U)
        assert back.mesh.grid is not None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_edge_stack_matches_matrix_reads(self, torus4, n):
        snapshot = ah.field_to_json(random_field(torus4, n, np.random.default_rng(n)))
        stacked = np.stack([ah.matrix_from_json(m) for m in snapshot["edges"]])
        back = ah.field_from_json(snapshot).U
        assert back.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_edges_match_matrix_to_json(self, torus4, n):
        field = random_field(torus4, n, np.random.default_rng(n))
        per_edge = {
            "mesh": ah.mesh_to_json(torus4),
            "n": n,
            "edges": [ah.matrix_to_json(field.U[e]) for e in range(len(torus4.edges))],
        }
        snapshot = ah.field_to_json(field)
        assert snapshot == per_edge
        assert json.dumps(snapshot) == json.dumps(per_edge)

    @pytest.mark.parametrize("change", ["n", "shape", "im-shape", "field-n"])
    def test_mismatched_edge_matrix_rejected(self, torus4, change):
        snapshot = ah.field_to_json(GaugeField.identity(torus4, 2))
        matrix = snapshot["edges"][5]
        if change == "n":
            matrix["n"] = 3
        elif change == "shape":
            matrix["re"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            matrix["im"] = [[0.0] * 3] * 3
        elif change == "im-shape":
            matrix["im"] = [[0.0, 0.0]]
        else:
            snapshot["n"] = 1
        with pytest.raises(ValueError):
            ah.field_from_json(snapshot)

    def test_sector_quantization(self, torus4):
        rng = np.random.default_rng(91)
        field = random_field(torus4, 1, rng, scale=0.2)
        flux = total_flux(field)
        assert abs(flux / (2 * np.pi) - round(flux / (2 * np.pi))) < 1e-12


def merged_faces(mesh_json: dict, edge: int) -> dict:
    """Mesh JSON with the two faces on edge merged into one longer face and
    the edge deleted; the Euler characteristic is unchanged."""
    faces, key = [list(face) for face in mesh_json["faces"]], edge + 1
    (plus,) = [i for i, face in enumerate(faces) if key in face]
    (minus,) = [i for i, face in enumerate(faces) if -key in face]
    a, b = faces[plus], faces[minus]
    a = a[a.index(key) + 1:] + a[:a.index(key)]
    b = b[b.index(-key) + 1:] + b[:b.index(-key)]
    areas = list(mesh_json["face_areas"])
    areas[plus] += areas[minus]
    faces[plus] = a + b
    del faces[minus], areas[minus]
    shift = lambda k: k - (k > key) + (k < -key)  # noqa: E731
    return {
        **mesh_json,
        "edges": mesh_json["edges"][:edge] + mesh_json["edges"][edge + 1:],
        "faces": [[shift(k) for k in face] for face in faces],
        "face_areas": areas,
    }


@st.composite
def snapshot_cases(draw):
    """A U(n) field (n 1..3) and a seed for the field file: a torus N 2..6
    at any basepoint or a sphere S 1..3, now and then read back through
    mesh_from_json with non-uniform areas and, on N >= 3, two faces merged
    into one longer face; the identity field perturbed by 0 (exact zeros
    and ones), a tiny scale (exponent floats) or an ordinary one."""
    kind, size = draw(st.sampled_from([("torus", k) for k in range(2, 7)] + [("sphere", k) for k in (1, 2, 3)]))
    mesh = ah.build_torus_mesh(size) if kind == "torus" else ah.build_sphere_mesh(size)
    mesh = rebased(mesh, draw(st.integers(0, mesh.vertex_count - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mesh_json = ah.mesh_to_json(mesh)
        areas = rng.uniform(0.5, 2.0, len(mesh.faces))
        mesh_json["face_areas"] = (areas / areas.sum()).tolist()
        if (kind, size) != ("torus", 2) and draw(st.booleans()):
            mesh_json = merged_faces(mesh_json, draw(st.integers(0, len(mesh.edges) - 1)))
        mesh = ah.mesh_from_json(mesh_json)
    eps = draw(st.sampled_from([0.0, 1e-9, 0.3, 3.0]))
    field = ah.perturb_field(GaugeField.identity(mesh, draw(st.integers(1, 3))), rng, eps)
    seed = draw(st.one_of(st.just(0), st.integers(max_value=-1), st.integers(min_value=2**63), st.integers()))
    return field, seed


@settings(max_examples=80, deadline=None)
@given(snapshot_cases())
def test_field_text_is_json_layout(case):
    # the field file's writer against json's own indented encoder
    field, seed = case
    text = _field_text(field, seed)
    expected = json.dumps(ah.field_to_json(field) | {"seed": seed}, sort_keys=True, indent=1)
    # compare from the first difference: a full diff of two files is slow
    at = max(len(os.path.commonprefix([text, expected])) - 40, 0)
    assert text[at:at + 120] == expected[at:at + 120]


class GatherEngine:
    """The engine's plaquette and gradient kernels as they were before the
    faces were laid out as loops: face groups and boundary slots numbered
    from mesh.faces, each slot's step matrix gathered on its own, and the
    face incidence found by a walk over the faces with a per-edge dict."""

    def __init__(self, mesh):
        by_len, seen = {}, {}
        for f, face in enumerate(mesh.faces):
            by_len.setdefault(len(face), []).append(f)
            for e, s in face:
                seen.setdefault(e, []).append((s, f))
        self.plus_face = np.array([max(seen[e])[1] for e in range(len(mesh.edges))])
        self.minus_face = np.array([min(seen[e])[1] for e in range(len(mesh.edges))])
        self.areas = mesh.face_areas
        self.groups = []
        for faces in (faces for _, faces in sorted(by_len.items())):
            edge_idx = np.array([[e for e, _ in mesh.faces[f]] for f in faces], dtype=np.intp)
            signs = np.array([[s for _, s in mesh.faces[f]] for f in faces], dtype=np.int8)
            self.groups.append((np.array(faces, dtype=np.intp), edge_idx, signs))
        self.slot_plus = np.empty(len(mesh.edges), dtype=np.intp)
        self.slot_minus = np.empty(len(mesh.edges), dtype=np.intp)
        offset = 0
        for _, edge_idx, signs in self.groups:
            slots = offset + np.arange(edge_idx.size).reshape(edge_idx.shape)
            self.slot_plus[edge_idx[signs > 0]] = slots[signs > 0]
            self.slot_minus[edge_idx[signs < 0]] = slots[signs < 0]
            offset += edge_idx.size

    @staticmethod
    def gather(U, edges, signs):
        w = U[edges]
        return np.where((signs < 0)[:, None, None], w.conj().swapaxes(-1, -2), w)

    def plaquettes(self, U):
        # every product is the package's kernel, matmul_raw, so the
        # comparison checks layout and product order bit for bit
        n = U.shape[-1]
        out = np.empty((len(self.areas), n, n), dtype=np.complex128)
        for faces, edge_idx, signs in self.groups:
            acc = self.gather(U, edge_idx[:, 0], signs[:, 0])
            for j in range(1, edge_idx.shape[1]):
                acc = matmul_raw(acc, self.gather(U, edge_idx[:, j], signs[:, j]))
            out[faces] = acc
        return out

    def gradient_from_logs(self, U, x):
        n, slots = U.shape[-1], []
        for faces, edge_idx, signs in self.groups:
            q = np.empty((*edge_idx.shape, n, n), dtype=np.complex128)
            prefix = np.broadcast_to(np.eye(n, dtype=np.complex128), (len(edge_idx), n, n))
            for j in range(edge_idx.shape[1]):
                nxt = matmul_raw(prefix, self.gather(U, edge_idx[:, j], signs[:, j]))
                q[:, j] = np.where((signs[:, j] > 0)[:, None, None], prefix, nxt)
                prefix = nxt
            coeff = signs * (2.0 / self.areas[faces])[:, None]
            # at n = 1 a transport is conjugation by a phase, which the
            # engine skips
            contrib = x[faces, None] if n == 1 else matmul_raw(matmul_raw(q.conj().swapaxes(-1, -2), x[faces, None]), q)
            slots.append((contrib * coeff[:, :, None, None]).reshape(-1, n, n))
        s = np.concatenate(slots)
        return s[self.slot_plus] + s[self.slot_minus]


def walk_dual_tree(mesh, plus, minus):
    """The dual graph's BFS tree from face 0, walked over mesh.faces."""
    tree, seen, queue = [], [True] + [False] * (len(mesh.faces) - 1), [0]
    for f in queue:
        for e, s in mesh.faces[f]:
            g = int(minus[e] if s > 0 else plus[e])
            if not seen[g]:
                seen[g] = True
                tree.append((g, f, e, -s))
                queue.append(g)
    return tree


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(snapshot_cases(), st.integers(0, 2**32 - 1))
def test_face_layout_matches_gather_oracle(case, seed):
    # the field file's cases: tori at any basepoint, spheres, and meshes
    # read back with non-uniform areas and two faces merged, n 1..3
    field, _ = case
    mesh, n = field.mesh, field.n
    oracle, engine = GatherEngine(mesh), _Engine(mesh)
    assert same_bytes(engine.plaquettes(field.U), oracle.plaquettes(field.U))
    x = random_skew(np.random.default_rng(seed), (len(mesh.faces), n, n))
    assert same_bytes(engine.gradient_from_logs(engine.logs(field.U)._replace(x=x)), oracle.gradient_from_logs(field.U, x))
    assert np.array_equal(mesh.plus_face, oracle.plus_face)
    assert np.array_equal(mesh.minus_face, oracle.minus_face)
    assert mesh.dual_tree == walk_dual_tree(mesh, oracle.plus_face, oracle.minus_face)


@pytest.mark.parametrize("kind, size", [("torus", 2), ("torus", 5), ("sphere", 1), ("sphere", 3)])
def test_face_layout_is_reduced(kind, size):
    # consecutive faces that share an edge give cancelling pairs between
    # loops (on the spheres), which must not send every plaquette product
    # through the per-loop reduction
    mesh = ah.build_torus_mesh(size) if kind == "torus" else ah.build_sphere_mesh(size)
    layout = mesh.face_steps
    assert reduced(layout) is layout
    retraced = flat_steps([0, 0], [mesh.faces[0][:1] + ((mesh.faces[0][0][0], -mesh.faces[0][0][1]),), ()])
    assert reduced(retraced).lengths.tolist() == [0, 0]


@pytest.mark.parametrize("kind", ["one-edge", "sphere", "torus"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_slit_faces_match_gather_oracle(kind, n):
    # a slit face runs along an edge and straight back, so free reduction
    # shortens it; the engine multiplies the faces as laid out, as the
    # oracle does, for its plaquettes, transports and Gauss-Newton blocks
    if kind == "one-edge":
        mesh = ah.mesh_from_json(ONE_EDGE_SPHERE)
    else:
        mesh = slit_face(ah.build_torus_mesh(2) if kind == "torus" else ah.build_sphere_mesh(2))
    assert reduced(mesh.face_steps).lengths[0] == mesh.face_steps.lengths[0] - 2
    rng = np.random.default_rng(n)
    field = random_field(mesh, n, rng, scale=0.2)
    oracle, engine = GatherEngine(mesh), _Engine(mesh)
    assert same_bytes(engine.plaquettes(field.U), oracle.plaquettes(field.U))
    logs = engine.logs(field.U)
    x = random_skew(rng, logs.x.shape)
    assert same_bytes(engine.gradient_from_logs(logs._replace(x=x)), oracle.gradient_from_logs(field.U, x))
    z, h = random_skew(rng, field.U.shape), 1e-5
    fd = (engine.logs(expm_raw(h * z) @ field.U).x - engine.logs(expm_raw(-h * z) @ field.U).x) / (2 * h)
    assert np.max(np.abs(fd - jacobian(engine, logs, z))) <= 1e-7
    _, report = gradient_flow(field, tol=1e-9)
    assert report.stop_reason == "converged" and report.final_action <= 1e-15


@st.composite
def fields_with_pairs(draw):
    """A random U(n) field (n 1..3) on a small torus or sphere, and up to
    five loop pairs: homotopic pairs, pairs of different windings, loops
    with retraced edges, and now and then a malformed loop, a pair based
    at another vertex or a pair with different bases."""
    kind, size = draw(st.sampled_from([("torus", 2), ("torus", 4), ("sphere", 1), ("sphere", 2)]))
    mesh = ah.build_torus_mesh(size) if kind == "torus" else ah.build_sphere_mesh(size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = random_field(mesh, draw(st.integers(1, 3)), rng, scale=1.0)
    pairs = []
    elsewhere = rebased(mesh, (mesh.basepoint + 1) % mesh.vertex_count)
    for _ in range(draw(st.integers(0, 5))):
        source = elsewhere if draw(st.integers(0, 9)) == 0 else mesh
        l1, l2 = ah.random_homotopic_pair(source, rng, draw(st.integers(0, 14)))
        if kind == "torus" and draw(st.booleans()):
            l2 = ah.random_loop(source, rng, 6, windings=(1, 0))
        loops = []
        for loop in (l1, l2):
            steps, base = list(loop.steps), loop.base
            change = draw(st.sampled_from(["none"] * 14 + ["retrace"] * 4 + ["flip", "base"]))
            at = draw(st.integers(0, max(len(steps) - 1, 0)))
            if change == "retrace" and steps:
                steps[at:at] = [steps[at], (steps[at][0], -steps[at][1])]
            elif change == "flip" and steps:
                steps[at] = (steps[at][0], -steps[at][1])
            elif change == "base":
                base = (base + 1) % mesh.vertex_count
            loops.append(MeshLoop(base, tuple(steps)))
        pairs.append(tuple(loops))
    return field, pairs


def pairwise_rows(field, pairs, lam):
    """The verify table from the per-loop and per-pair walks: every loop
    checked first, (delta, residual) or ("flagged", windings) per pair,
    or what the first check that fails raises."""
    basepoint = field.mesh.basepoint
    try:
        if any(l1.base != basepoint or l2.base != basepoint for l1, l2 in pairs):
            raise ValueError("both loops must be based at the mesh basepoint")
        for loop in (loop for pair in pairs for loop in pair):
            walk_validate(field.mesh, loop)
    except ValueError as ex:
        return (type(ex), str(ex))
    rows = []
    for l1, l2 in pairs:
        try:
            delta = walk_area(field.mesh, ah.loop_concat(l1, ah.loop_reverse(l2)))
        except ah.NotNullHomotopicError as ex:
            rows.append(("flagged", ex.windings))
            continue
        h1, h2 = walk_holonomy(field, l1), walk_holonomy(field, l2)
        rows.append((delta, float(np.linalg.norm(h1 - expm_raw(delta * lam) @ h2))))
    return rows


class TestLoopKernelOracles:
    """The batched holonomy and verify kernels against the per-step and
    per-pair walks they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(fields_with_pairs())
    def test_holonomies(self, drawn):
        field, pairs = drawn
        loops = [loop for pair in pairs for loop in pair]
        valid = []
        for loop in loops:
            try:
                want = walk_holonomy(field, loop)
            except ah.MalformedLoopError as ex:
                with pytest.raises(ah.MalformedLoopError, match=f"^{ex}$"):
                    loop_holonomy(field, loop)
                continue
            # equal up to the sign of zero
            assert np.array_equal(loop_holonomy(field, loop).mat, want)
            valid.append((loop, want))
        steps = flat_steps([loop.base for loop, _ in valid], [loop.steps for loop, _ in valid])
        batched = holonomies(field.U, steps)
        assert all(np.array_equal(h, want) for h, (_, want) in zip(batched, valid))

    @settings(max_examples=80, deadline=None)
    @given(fields_with_pairs())
    def test_verify_pairs(self, drawn):
        field, pairs = drawn
        lam = basepoint_curvature(field)
        try:
            got = [
                ("flagged", row.windings) if isinstance(row, ah.NotNullHomotopicError) else row
                for row in verify_pairs(field, pairs, lam)
            ]
        except ValueError as ex:
            got = (type(ex), str(ex))
        want = pairwise_rows(field, pairs, lam)
        # bit for bit: the floats print alike
        assert repr(got) == repr(want)
