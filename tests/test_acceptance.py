"""Acceptance suite: each test enforces one acceptance criterion at its
stated tolerance and prints a PASS/FAIL line (run with -s to see them all).
"""

import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import areaholonomy as ah
from areaholonomy.cli import cli
from areaholonomy.lattice import _Engine
from areaholonomy.liecore import expm_raw
from conftest import dense_operator, finite_difference_hessian, flux_rep, random_field

FOUR_PI_SQ = 4 * np.pi**2


@contextmanager
def criterion(num: int, description: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL ({time.monotonic() - started:.1f}s) - {description}")
        raise
    print(f"\nACCEPTANCE {num}: PASS ({time.monotonic() - started:.1f}s) - {description}")


@pytest.fixture(scope="module")
def converged_u1_torus8():
    mesh = ah.build_torus_mesh(8)
    rng = np.random.default_rng(7)
    start = ah.perturb_field(ah.build_ym_field_from_rep(mesh, flux_rep(1, 1)), rng, 0.3)
    field, report = ah.gradient_flow(start, tol=1e-9)
    assert report.final_gradient_norm <= 1e-9
    return field


def test_criterion_1_area_holonomy_characterization(converged_u1_torus8):
    with criterion(1, "area-holonomy characterization with perturbed contrast"):
        started = time.monotonic()
        field = converged_u1_torus8
        mesh = field.mesh
        rng = np.random.default_rng(101)
        residuals = [
            ah.verify_area_property(field, *ah.random_homotopic_pair(mesh, rng, 12))
            for _ in range(50)
        ]
        assert max(residuals) < 1e-6
        perturbed = ah.perturb_field(field, rng, 0.1)
        bad = [
            ah.verify_area_property(perturbed, *ah.random_homotopic_pair(mesh, rng, 12))
            for _ in range(50)
        ]
        assert max(bad) > 1e-2
        assert time.monotonic() - started < 30.0


def test_criterion_2_sector_minimum_values(tmp_path):
    with criterion(2, "solve reaches the analytic sector minimum 4 pi^2 k^2"):
        started = time.monotonic()
        runner = CliRunner()
        for n_grid in (4, 8, 16):
            for k in (0, 1, 2):
                out = str(tmp_path / f"f{n_grid}_{k}.json")
                rep = str(tmp_path / f"r{n_grid}_{k}.json")
                result = runner.invoke(
                    cli,
                    ["solve", "--mesh", f"torus:{n_grid}", "--n", "1", "--flux", str(k),
                     "--seed", "7", "--out", out, "--report", rep],
                    catch_exceptions=False,
                )
                assert result.exit_code == 0
                report = json.loads(Path(rep).read_text())
                assert abs(report["final_action"] - FOUR_PI_SQ * k * k) < 1e-6
        assert time.monotonic() - started < 60.0


def test_criterion_3_nonabelian_stationarity():
    with criterion(3, "diag(1,0) flux field on torus N=6 is exactly critical"):
        mesh = ah.build_torus_mesh(6)
        lam = ah.SkewHermitian(2j * np.pi * np.diag([1.0, 0.0]))
        eye = ah.Unitary(np.eye(2))
        field = ah.build_ym_field_from_rep(mesh, ah.YangMillsRep(1, 2, [eye], [eye], lam))
        assert ah.gradient_norm(field) < 1e-10
        spectra = np.array(
            [
                np.sort(np.linalg.eigvalsh(-1j * ah.face_curvature(field, f).mat))
                for f in range(len(mesh.faces))
            ]
        )
        assert float(np.max(np.ptp(spectra, axis=0))) < 1e-9
        rng = np.random.default_rng(103)
        residuals = [
            ah.verify_area_property(field, *ah.random_homotopic_pair(mesh, rng, 12))
            for _ in range(20)
        ]
        assert max(residuals) < 1e-8


def test_criterion_4_shrinking_loop_curvature_limit():
    with criterion(4, "shrinking-loop curvature residuals scale with area"):
        started = time.monotonic()
        mesh = ah.build_torus_mesh(16)
        field = ah.build_ym_field_from_rep(mesh, flux_rep(1, 1))
        rows = ah.shrinking_loop_curvature(field, block_sizes=[8, 4, 2, 1])
        for (a1, r1), (a2, r2) in zip(rows, rows[1:]):
            ratio = (r2 / r1) / (a2 / a1)
            assert abs(ratio - 1.0) < 0.2
        assert time.monotonic() - started < 10.0


def test_criterion_5_group_laws_and_area_cocycle():
    with criterion(5, "group laws and relator cocycle for genera 0-3"):
        started = time.monotonic()
        for genus in (0, 1, 2, 3):
            rng = np.random.default_rng(500 + genus)
            alphabet = [i for i in range(-2 * genus, 2 * genus + 1) if i != 0]

            def rand_el():
                if genus == 0:
                    return ah.GammaRElement(0, (), float(rng.normal()))
                letters = [int(l) for l in rng.choice(alphabet, size=rng.integers(0, 10))]
                return ah.GammaRElement(genus, letters, float(rng.normal()))

            def t_dist(x):
                return abs(ah.wrap_mod1(x)) if genus == 0 else abs(x)

            for _ in range(1000):
                x, y, z = rand_el(), rand_el(), rand_el()
                lhs = ah.gamma_mul(ah.gamma_mul(x, y), z)
                rhs = ah.gamma_mul(x, ah.gamma_mul(y, z))
                assert lhs.word.letters == rhs.word.letters
                assert t_dist(lhs.t - rhs.t) < 1e-12
                inv = ah.gamma_mul(x, ah.gamma_inv(x))
                assert inv.word.letters == ()
                assert t_dist(inv.t) < 1e-12
            if genus >= 2:
                rel = ah.GammaRElement(genus, ah.relator_letters(genus), 0.0)
                assert rel.word.letters == () and rel.t == 1.0
                for _ in range(100):
                    w = rand_el()
                    conj = ah.gamma_mul(ah.gamma_mul(w, rel), ah.gamma_inv(w))
                    assert conj.word.letters == () and abs(conj.t - 1.0) < 1e-12
        assert time.monotonic() - started < 5.0


def test_criterion_6_genus0_circle_structure():
    with criterion(6, "sphere loop areas close mod 1 and classes stay canonical"):
        mesh = ah.build_sphere_mesh(2)
        rng = np.random.default_rng(106)
        for _ in range(100):
            loop = ah.random_loop(mesh, rng, 12)
            total = ah.enclosed_area(mesh, loop) + ah.enclosed_area(mesh, ah.loop_reverse(loop))
            assert abs(ah.wrap_mod1(total)) < 1e-12
            t = ah.loop_class(mesh, loop).t
            assert -0.5 < t <= 0.5


def test_criterion_7_sphere_isolation():
    with criterion(7, "genus-0 classes are the 28 weight vectors with quantized gaps"):
        classes = ah.enumerate_sphere_classes(2, 3)
        assert len(classes) == math.comb(2 + 2 * 3, 2) == 28
        assert len(set(classes)) == 28
        actions = {c: ah.ym_action_value(ah.sphere_rep(c)) for c in classes}
        for i, c1 in enumerate(classes):
            for c2 in classes[i + 1:]:
                if abs(actions[c1] - actions[c2]) > 1e-9:
                    assert abs(actions[c1] - actions[c2]) >= FOUR_PI_SQ - 1e-9
                else:
                    assert c1.k != c2.k  # equal action, still distinct integer data


def test_criterion_8_gradient_matches_finite_differences():
    with criterion(8, "closed-form gradient matches central differences"):
        mesh = ah.build_torus_mesh(4)
        engine = _Engine(mesh)
        step = 1e-5
        for case in range(20):
            n = 1 if case < 10 else 2
            rng = np.random.default_rng(800 + case)
            field = random_field(mesh, n, rng, scale=0.3)
            grad = engine.gradient_from_logs(engine.logs(field.U))
            basis = []
            for i in range(n):
                m = np.zeros((n, n), complex)
                m[i, i] = 1j
                basis.append(m)
            for i in range(n):
                for j in range(i + 1, n):
                    m = np.zeros((n, n), complex)
                    m[i, j], m[j, i] = 1.0, -1.0
                    basis.append(m)
                    m = np.zeros((n, n), complex)
                    m[i, j], m[j, i] = 1j, 1j
                    basis.append(m)
            for e in range(len(mesh.edges)):
                for z in basis:
                    up = field.U.copy()
                    up[e] = expm_raw(step * z) @ up[e]
                    down = field.U.copy()
                    down[e] = expm_raw(-step * z) @ down[e]
                    fd = (
                        engine.action_from_logs(engine.logs(up))
                        - engine.action_from_logs(engine.logs(down))
                    ) / (2 * step)
                    closed = np.trace(grad[e] @ z.conj().T).real
                    assert abs(fd - closed) / max(1.0, abs(closed)) < 1e-6


def test_criterion_9_gauge_invariance():
    with criterion(9, "gauge transforms preserve action and conjugate holonomies"):
        mesh = ah.build_torus_mesh(4)
        rng = np.random.default_rng(109)
        field = random_field(mesh, 2, rng, scale=0.25)
        action = ah.ym_action(field)
        for _ in range(100):
            g = ah.random_gauge_transform(mesh, 2, rng)
            gauged = ah.apply_gauge(field, g)
            assert abs(ah.ym_action(gauged) - action) < 1e-10
            loop = ah.random_loop(
                mesh, rng, 10,
                windings=(int(rng.integers(-1, 2)), int(rng.integers(-1, 2))),
            )
            h1 = ah.loop_holonomy(field, loop)
            h2 = ah.loop_holonomy(gauged, loop)
            assert ah.conjugacy_residual(h1, h2) < 1e-10


SPHERE_WEIGHTS = [c.k for c in ah.enumerate_sphere_classes(2, 2)] + [(3, 0), (1, 0, 0), (1, 0, -1), (2, 1, 0), (1, 1, 0)]


@pytest.mark.parametrize("k", SPHERE_WEIGHTS, ids=str)
def test_sphere_critical_points_isolated_with_atiyah_bott_index(k):
    # the paper's isolation on S^2, on sphere:2: the Hessian at the field of
    # weights k is null only along the gauge orbit, of dimension
    # V n^2 - sum m_i^2 (m_i the weight multiplicities), and has Atiyah and
    # Bott's Morse index 2 sum_{k_i > k_j} (k_i - k_j - 1).  Null
    # eigenvalues are those within 1e-6 of the largest magnitude, and
    # the gap to the rest must span at least six decades.
    mesh = ah.build_sphere_mesh(2)
    field = ah.build_ym_field_from_rep(mesh, ah.sphere_rep(k))
    assert ah.gradient_norm(field) < 1e-11
    eig = np.linalg.eigvalsh(finite_difference_hessian(field))
    null = np.abs(eig) <= 1e-6 * np.max(np.abs(eig))
    n = len(k)
    assert np.count_nonzero(null) == mesh.vertex_count * n * n - sum(m * m for m in Counter(k).values())
    assert np.count_nonzero(eig[~null] < 0) == 2 * sum(ki - kj - 1 for ki in k for kj in k if ki > kj)
    assert np.min(np.abs(eig[~null])) >= 1e6 * np.max(np.abs(eig[null]))


@pytest.mark.parametrize("k", [(1, 0), (2, 0), (1, -1), (2, -1)], ids=str)
def test_sphere4_isolation_from_assembled_operator(k):
    # the same isolation on a mesh 4x finer (sphere:4, 768 dimensions at
    # n = 2), from the assembled operator H / 2 in place of differences;
    # null eigenvalues by the same relative 1e-6 rule
    mesh = ah.build_sphere_mesh(4)
    field = ah.build_ym_field_from_rep(mesh, ah.sphere_rep(k))
    assert ah.gradient_norm(field) < 1e-11
    eig = np.linalg.eigvalsh(dense_operator(field, 0.0, True))
    null = np.abs(eig) <= 1e-6 * np.max(np.abs(eig))
    n = len(k)
    assert np.count_nonzero(null) == mesh.vertex_count * n * n - sum(m * m for m in Counter(k).values())
    assert np.count_nonzero(eig[~null] < 0) == 2 * sum(ki - kj - 1 for ki in k for kj in k if ki > kj)
    assert np.min(np.abs(eig[~null])) >= 1e6 * np.max(np.abs(eig[null]))
