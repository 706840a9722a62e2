"""Cross-module identities: the lattice holonomy of a constant-curvature
field factors through the area-quotient group via the representation it was
built from."""

import ast
import functools
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import areaholonomy as ah
from conftest import flux_rep, quaternion_rep


class TestHolonomyFactorsThroughClass:
    """loop_holonomy(field, l) == evaluate(rep, loop_class(mesh, l))."""

    @pytest.mark.parametrize("rep_builder,label", [
        (lambda: flux_rep(1, 1), "abelian flux 1"),
        (lambda: flux_rep(2, 1), "diagonal n=2"),
        (lambda: quaternion_rep(1), "projectively flat quaternion"),
    ])
    def test_torus(self, rep_builder, label):
        rep = rep_builder()
        mesh = ah.build_torus_mesh(4)
        field = ah.build_ym_field_from_rep(mesh, rep)
        rng = np.random.default_rng(hash(label) % 2**32)
        for _ in range(40):
            windings = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            loop = ah.random_loop(mesh, rng, 10, windings=windings)
            through_class = ah.evaluate(rep, ah.loop_class(mesh, loop))
            direct = ah.loop_holonomy(field, loop)
            assert np.linalg.norm(direct.mat - through_class.mat) < 1e-10

    def test_sphere(self):
        rep = ah.sphere_rep([1, 0])
        mesh = ah.build_sphere_mesh(2)
        field = ah.build_ym_field_from_rep(mesh, rep)
        rng = np.random.default_rng(5)
        for _ in range(40):
            loop = ah.random_loop(mesh, rng, 12)
            through_class = ah.evaluate(rep, ah.loop_class(mesh, loop))
            direct = ah.loop_holonomy(field, loop)
            assert np.linalg.norm(direct.mat - through_class.mat) < 1e-9

    def test_equal_classes_equal_holonomy(self):
        # two loops in the same class (homotopic AND equal enclosed area)
        # transport identically; homotopic loops with different areas do not
        rep = flux_rep(1, 1)
        mesh = ah.build_torus_mesh(4)
        field = ah.build_ym_field_from_rep(mesh, rep)
        face = ah.face_boundary_loop(mesh, 0)
        trivial = ah.MeshLoop(mesh.basepoint, ())
        assert not ah.word_problem(ah.loop_class(mesh, face), ah.loop_class(mesh, trivial))
        h_face = ah.loop_holonomy(field, face).mat
        h_trivial = ah.loop_holonomy(field, trivial).mat
        assert np.linalg.norm(h_face - h_trivial) > 0.3
        # a different face's boundary conjugated back to the basepoint:
        # same class (null-homotopic, same area), disjoint step sequence
        grid = mesh.grid
        path = ((grid.h_edge(0, 0), 1), (grid.v_edge(1, 0), 1))
        inner_face = ah.face_boundary_loop(mesh, grid.face(1, 1))
        assert inner_face.base == 1 + grid.N
        conjugated = ah.MeshLoop(
            mesh.basepoint,
            path + inner_face.steps + tuple((e, -s) for e, s in reversed(path)),
        )
        assert ah.word_problem(ah.loop_class(mesh, face), ah.loop_class(mesh, conjugated))
        assert np.linalg.norm(ah.loop_holonomy(field, conjugated).mat - h_face) < 1e-12


class TestRelatorCentralityStress:
    def test_relator_commutes_with_everything(self):
        # x * R and R * x both normalize to the class of x shifted by J
        rng = np.random.default_rng(65)
        rel = ah.GammaRElement(2, ah.relator_letters(2), 0.0)
        for _ in range(300):
            letters = [int(l) for l in rng.choice([1, -1, 2, -2, 3, -3, 4, -4],
                                                  size=rng.integers(0, 14))]
            x = ah.GammaRElement(2, letters, float(rng.normal()))
            left = ah.gamma_mul(rel, x)
            right = ah.gamma_mul(x, rel)
            shifted = ah.GammaRElement(2, x.word.letters, x.t + 1.0)
            assert ah.word_problem(left, right)
            assert ah.word_problem(left, shifted)


class TestFlowRobustness:
    def test_many_seeds_reach_sector_minimum(self):
        mesh = ah.build_torus_mesh(8)
        base = ah.build_ym_field_from_rep(mesh, flux_rep(1, 1))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            start = ah.perturb_field(base, rng, 0.3)
            _, report = ah.gradient_flow(start, tol=1e-9)
            assert abs(report.final_action - 4 * np.pi**2) < 1e-6, f"seed {seed}"

    def test_near_branch_start_recovers(self):
        # sector k=4 on N=3: plaquette phase 2.79 rad, close to the cut;
        # trial steps that cross it are rejected and retried smaller
        mesh = ah.build_torus_mesh(3)
        base = ah.build_ym_field_from_rep(mesh, flux_rep(1, 4))
        rng = np.random.default_rng(3)
        start = ah.perturb_field(base, rng, 0.05)
        flowed, report = ah.gradient_flow(start, tol=1e-9)
        assert abs(report.final_action - 4 * np.pi**2 * 16) < 1e-6
        assert ah.total_flux(flowed) == pytest.approx(8 * np.pi, abs=1e-9)


def test_direct_sum_of_sphere_classes():
    summed = ah.direct_sum(ah.sphere_rep([1]), ah.sphere_rep([0]))
    assert ah.validate_rep(summed).ok
    assert ah.ym_action_value(summed) == pytest.approx(
        ah.ym_action_value(ah.sphere_rep([1, 0])), rel=1e-12
    )
    x = ah.GammaRElement(0, (), 0.25)
    assert np.allclose(
        ah.evaluate(summed, x).mat,
        ah.evaluate(ah.sphere_rep([1, 0]), x).mat,
        atol=1e-12,
    )


def test_readme_library_tour_runs():
    # the tour is the public API the README promises; its asserts must hold
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md (library tour)", "exec"), {})


def test_every_public_name_has_a_caller_or_a_documented_use():
    # a caller is a read of the name, an attribute of that name or an import
    # of it in the package outside __init__.py; its own def is not a caller
    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in (root / "src" / "areaholonomy").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
    documented = set(re.findall(r"\w+", (root / "README.md").read_text()))
    exported = [name for names in ah._EXPORTS.values() for name in names]
    assert [name for name in exported if name not in used | documented] == []


def test_function_caches_are_int_keyed():
    # tables derived from a mesh live on the mesh; the only process-wide
    # caches are the u(n) basis, by n, and the Dehn table, by genus, and
    # the only weak one holds the builder torus's arrays, by N, only while
    # a caller holds them
    names = [info.name for info in pkgutil.iter_modules(ah.__path__)]
    modules = [ah, *(importlib.import_module(f"areaholonomy.{name}") for name in names)]
    caches = {
        f"{value.__module__}.{value.__qualname__}"
        for module in modules
        for value in vars(module).values()
        if isinstance(value, functools._lru_cache_wrapper)
    }
    assert caches == {"areaholonomy.lattice._u_basis", "areaholonomy.words._dehn_table"}
    weak = {
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, weakref.WeakValueDictionary)
    }
    assert weak == {"areaholonomy.surfaces._LAID_OUT"}
    ah.build_torus_mesh(5)
    assert 5 not in ah.surfaces._LAID_OUT


def test_records_keep_their_value_semantics():
    # the policy, the rep diagnostics and the flow report are named tuples:
    # the reprs, equality and hashes of the frozen dataclasses they were,
    # and no field can be rebound
    policy = ah.NumericPolicy()
    assert repr(policy) == (
        "NumericPolicy(skew_tol=1e-12, unitary_tol=1e-12, inner_imag_tol=1e-12, eps_branch=1e-08, "
        "commutant_svd_tol=1e-09, rep_tol=1e-09, t_tol=1e-09, area_sum_tol=1e-12)"
    )
    assert policy == ah.DEFAULT_POLICY != ah.NumericPolicy(rep_tol=1e-8)
    assert hash(policy) == hash((1e-12, 1e-12, 1e-12, 1e-8, 1e-9, 1e-9, 1e-9, 1e-12))
    diag = ah.validate_rep(ah.sphere_rep([0, 0]))
    assert repr(diag) == "RepDiagnostics(relator_residual=0.0, centrality_residual=0.0, ok=True)"
    assert diag == ah.RepDiagnostics(0.0, 0.0, True) != ah.RepDiagnostics(0.0, 0.0, False)
    assert hash(diag) == hash((0.0, 0.0, True))
    report = ah.FlowReport(3, 1.5, 1e-10, [(1, 2.0, 0.5)], "converged")
    assert repr(report) == (
        "FlowReport(iterations=3, final_action=1.5, final_gradient_norm=1e-10, "
        "step_history=[(1, 2.0, 0.5)], stop_reason='converged')"
    )
    assert report == ah.FlowReport(3, 1.5, 1e-10, [(1, 2.0, 0.5)], "converged") != report._replace(iterations=4)
    assert report.to_json() == {
        "iterations": 3, "final_action": 1.5, "final_gradient_norm": 1e-10,
        "step_history": [[1, 2.0, 0.5]], "stop_reason": "converged",
    }
    assert report._replace(step_history=None).to_json()["step_history"] is None
    for record, name in ((policy, "rep_tol"), (diag, "ok"), (report, "iterations")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


TRACED_FLOW = """
import json
import numpy as np
import tracer
trace = tracer.Tracer("smoke")
tracer.install(trace)
import areaholonomy as ah
from areaholonomy import lattice, words
named = [getattr(lattice._Engine, m) for m in ("plaquettes", "logs", "action_from_logs", "gradient_from_logs")]
named += [lattice.expm_raw, lattice.loop_holonomy, lattice.face_curvature, lattice._unitarize, words.GammaRElement.__init__]
lam = ah.SkewHermitian(2j * np.pi * np.diag([1.0, 0.0]))
eye = ah.Unitary(np.eye(2))
rep = ah.YangMillsRep(1, 2, [eye], [eye], lam)
start = ah.perturb_field(ah.build_ym_field_from_rep(ah.build_torus_mesh(4), rep), np.random.default_rng(7), 0.3)
_, report = ah.gradient_flow(start, tol=1e-9)
columns = {field: values.tolist() for field, values in trace.columns.items()}
print(json.dumps({"unwrapped": [fn.__qualname__ for fn in named if not hasattr(fn, "__wrapped__")],
                  "iterations": report.iterations, "names": trace.names, "columns": columns}))
"""


def test_benchmark_tracer_sees_the_flow_kernels():
    # perfbench's per-layer flow metrics are read from the spans directly
    # under the gradient_flow span; a renamed kernel, or a line search that
    # moved out of lattice or stopped calling lattice's own expm_raw, would
    # read 0 there without failing.  A child process, so that no wrapper
    # outlives the test.
    root = Path(__file__).resolve().parents[1]
    package_root = str(Path(ah.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, str(root / "perfbench"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_FLOW], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["unwrapped"] == []
    cols = out["columns"]
    spans = [(out["names"][i], *rest) for i, *rest in zip(cols["name"], cols["parent"], cols["start"], cols["end"])]
    (flow,) = [i for i, span in enumerate(spans) if span[0] == "lattice.gradient_flow"]
    _, _, begin, end = spans[flow]
    inside = Counter(name for name, _, s, e in spans if begin < s and e < end)
    direct = Counter(name for name, parent, _, _ in spans if parent == flow)
    for name in ("liecore.expm_raw", "lattice.logs", "lattice.gradient_from_logs"):
        assert direct[name] == inside[name] > 0, name
    assert direct["liecore.expm_raw"] >= out["iterations"] >= 1
    assert direct["lattice.gradient_from_logs"] >= out["iterations"] + 1


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises Python >= 3.10
    root = Path(__file__).resolve().parents[1]
    sources = sorted((*root.glob("src/**/*.py"), *root.glob("tests/**/*.py")))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
