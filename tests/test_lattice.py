"""Lattice connections: plaquettes, curvature, action, gradient, flow,
gauge action, holonomy, and the constant-curvature constructions."""

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
    StepPolicy,
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
from areaholonomy.lattice import _engine_for, _unitarize
from areaholonomy.liecore import expm_raw, haar_unitary_raw
from conftest import flux_rep, quaternion_rep, random_field

FOUR_PI_SQ = 4 * np.pi**2


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
        batched = _engine_for(mesh).plaquettes(field.U)
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
        engine = _engine_for(torus4)
        raw = engine.gradient_from_logs(field.U, engine.logs(field.U, 1e-8))
        wrapped = ym_gradient(field)
        assert len(wrapped) == len(torus4.edges)
        for e, g in enumerate(wrapped):
            assert np.linalg.norm(g.mat - raw[e]) < 1e-12

    @pytest.mark.parametrize("n,seed", [(1, 80), (2, 81)])
    def test_finite_difference_oracle(self, n, seed):
        mesh = ah.build_torus_mesh(4)
        rng = np.random.default_rng(seed)
        field = random_field(mesh, n, rng, scale=0.35)
        engine = _engine_for(mesh)
        grad = engine.gradient_from_logs(field.U, engine.logs(field.U, 1e-8))

        def action_of(values):
            return engine.action_from_logs(engine.logs(values, 1e-8))

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
        # n = 2 flows by steepest descent and needs many iterations; an
        # abelian flow takes the exact Newton step and converges at once
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

    def test_stop_reason_iteration_budget(self, perturbed4_u2):
        with pytest.raises(NotConvergedError) as err:
            gradient_flow(perturbed4_u2, tol=1e-9, max_iter=3)
        assert err.value.report.stop_reason == "iteration_budget"

    def test_stop_reason_halving_budget(self, perturbed4):
        # a huge first trial and no halvings: the line search cannot accept
        with pytest.raises(NotConvergedError) as err:
            gradient_flow(perturbed4, StepPolicy(initial_step=1e3, max_halvings=0), tol=1e-9)
        assert err.value.report.stop_reason == "halving_budget"
        assert "halving budget" in str(err.value)

    def test_stop_reason_stall(self, perturbed4):
        # the smallest positive step underflows to the identity after one halving
        with pytest.raises(NotConvergedError) as err:
            gradient_flow(perturbed4, StepPolicy(initial_step=5e-324), tol=1e-9)
        assert err.value.report.stop_reason == "stall"
        assert err.value.report.iterations == 1
        assert "stalled at machine precision" in str(err.value)

    def test_stop_reason_json(self, perturbed4):
        _, report = gradient_flow(perturbed4, tol=1e-9)
        obj = report.to_json()
        assert obj["stop_reason"] == "converged"
        assert ah.FlowReport.from_json(obj) == report
        del obj["stop_reason"]
        assert ah.FlowReport.from_json(obj).stop_reason is None

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
    random positive face areas, whose sector minimum is off the branch cut."""
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
    try:
        theta = _engine_for(mesh).logs(start.U, 1e-8)[:, 0, 0].imag
    except BranchCutError:
        assume(False)
    # the perturbation may wrap a plaquette into the next sector
    assume(np.max(np.abs(np.sum(theta) * mesh.face_areas)) < 2.5)
    return start


class TestAbelianNewton:
    @settings(max_examples=60, deadline=None)
    @given(abelian_starts())
    def test_direction_is_minimum_norm_solution(self, start):
        mesh = start.mesh
        engine = _engine_for(mesh)
        x = engine.logs(start.U, 1e-8)
        theta = x[:, 0, 0].imag
        r = theta - np.sum(theta) * mesh.face_areas / np.sum(mesh.face_areas)
        expected = np.linalg.lstsq(incidence_matrix(mesh), r - np.mean(r), rcond=None)[0]
        assert np.max(np.abs(engine.abelian_newton(x) - expected)) <= 1e-12
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
        engine = _engine_for(torus4)
        monkeypatch.setattr(engine, "abelian_newton", lambda x: np.full(len(torus4.edges), value))
        start = ah.perturb_field(build_ym_field_from_rep(torus4, flux_rep(1, 1)), np.random.default_rng(3), 0.3)
        _, report = gradient_flow(start, tol=1e-9)
        assert report.stop_reason == "converged"
        assert report.iterations > 2


class TestGaugeInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([("torus", 2), ("torus", 3), ("torus", 5), ("sphere", 1), ("sphere", 2)]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_observables(self, spec, n, seed):
        kind, size = spec
        mesh = ah.build_torus_mesh(size) if kind == "torus" else ah.build_sphere_mesh(size)
        rng = np.random.default_rng(seed)
        field = random_field(mesh, n, rng, scale=0.2)
        gauged = apply_gauge(field, ah.random_gauge_transform(mesh, n, rng))
        for observable in (ym_action, gradient_norm, total_flux):
            before = observable(field)
            assert abs(observable(gauged) - before) <= 1e-9 * max(1.0, abs(before))


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

    def test_not_null_homotopic_pair(self, torus4):
        field = GaugeField.identity(torus4, 1)
        l1 = ah.alpha_loop(torus4)
        l2 = MeshLoop(torus4.basepoint, ())
        with pytest.raises(ah.NotNullHomotopicError):
            verify_area_property(field, l1, l2)


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

    def test_sector_quantization(self, torus4):
        rng = np.random.default_rng(91)
        field = random_field(torus4, 1, rng, scale=0.2)
        flux = total_flux(field)
        assert abs(flux / (2 * np.pi) - round(flux / (2 * np.pi))) < 1e-12
