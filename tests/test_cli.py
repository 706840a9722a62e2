"""Command-line interface: exit codes, file outputs, determinism."""

import copy
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import areaholonomy as ah
from areaholonomy.cli import CommandError, _write_json
from conftest import (MALFORMED_MESHES, disjoint_union_json, flux_rep, malformed_mesh_json, oracle_field_from_json, rebased,
                      run_cli, slit_face)

FOUR_PI_SQ = 4 * np.pi**2


def child_env() -> dict:
    """The environment of a child python that imports the same package as
    this test run."""
    package_root = str(Path(ah.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def child_python(*args):
    """Run python in a child process that imports the same package as this
    test run."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=child_env())


def entry_point(*args):
    """Run the real entry point, which owns the exit-code contract."""
    return child_python("-m", "areaholonomy.cli", *args)


def test_import_does_not_load_scipy():
    # nor any module outside the standard library but numpy and the package
    proc = child_python(
        "-c",
        "import sys; before = set(sys.modules); import areaholonomy, areaholonomy.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
        "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before} "
        "- set(sys.stdlib_module_names) - {'numpy', 'areaholonomy'}))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


EAGER_EXPORTS = (
    "BranchCutError DEFAULT_POLICY DimensionMismatchError FlowReport GammaRElement GaugeField GaugeTransform "
    "GenusMismatchError InvalidRepError MalformedLoopError MeshLoop NotConvergedError NotNullHomotopicError "
    "NumericPolicy RepDiagnostics SkewHermitian SurfaceMesh SurfaceWord Unitary UnsupportedMeshError WeightVector "
    "YangMillsRep alpha_loop apply_gauge beta_loop build_sphere_mesh build_torus_mesh build_ym_field_from_rep clip "
    "clip_steps commutant_dimension conjugacy_residual direct_sum enclosed_area enumerate_sphere_classes evaluate "
    "expm face_boundary_loop face_curvature field_from_json field_to_json format_letters gamma_inv "
    "gamma_mul gradient_flow gradient_norm inner irreducible lattice liecore "
    "logm_principal loop_class loop_concat loop_from_json loop_holonomy loop_reverse loop_to_json matrix_from_json "
    "matrix_to_json mesh_from_json mesh_to_json parse_letters perturb_field plaquette_holonomy policy "
    "random_gauge_transform random_homotopic_pair random_loop random_unitary relator_letters "
    "reps shrinking_loop_curvature sphere_rep std_loop surfaces torus_windings total_flux "
    "validate_rep verify_area_property word_problem words wrap_mod1 ym_action ym_action_value ym_gradient"
).split()


def loaded_modules(script):
    """The package modules loaded in a child process that ran script."""
    proc = child_python(
        "-c",
        f"import json, sys\n{script}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('areaholonomy.'))))",
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_library_calls_load_only_their_modules():
    # the namespace binds a name from its module when it is first reached,
    # and a module imports at load only what its callers always need, so
    # building meshes, drawing and classing loops and normalizing a word
    # leave the Lie kernels, the lattice, the representations and the
    # verifier unloaded
    loaded = loaded_modules(
        "import numpy as np, areaholonomy as ah; rng = np.random.default_rng(3)\n"
        "for mesh in (ah.build_torus_mesh(8), ah.build_sphere_mesh(2)):\n"
        "    ah.loop_class(mesh, ah.random_loop(mesh, rng, 12))\n"
        "ah.GammaRElement(2, [1, 2, -1])",
    )
    assert "areaholonomy.words" in loaded
    assert loaded.isdisjoint({"areaholonomy.liecore", "areaholonomy.lattice", "areaholonomy.reps", "areaholonomy._verify"})


@pytest.mark.parametrize("mesh, n", [("torus:8", 1), ("sphere:2", 2)])
def test_solve_loads_neither_words_nor_the_verifier(tmp_path, mesh, n):
    loaded = loaded_modules(
        "from areaholonomy.cli import main\n"
        f"main(['solve', '--mesh', {mesh!r}, '--n', '{n}', '--flux', '1', '--out', {str(tmp_path / 'f.json')!r}, "
        f"'--report', {str(tmp_path / 'r.json')!r}])",
    )
    assert "areaholonomy.lattice" in loaded
    assert loaded.isdisjoint({"areaholonomy.words", "areaholonomy._verify"})


def test_verify_does_not_load_words(tmp_path):
    field = tmp_path / "field.json"
    field.write_text(json.dumps(ah.field_to_json(ah.GaugeField.identity(ah.build_torus_mesh(4), 1))))
    loaded = loaded_modules(
        "from areaholonomy.cli import main\n"
        f"main(['verify', '--field', {str(field)!r}, '--random', '5', '--json'])",
    )
    assert "areaholonomy._verify" in loaded
    assert "areaholonomy.words" not in loaded


def test_lazy_namespace_keeps_the_eager_names():
    # every name the eager namespace bound resolves, a star import yields
    # all of them, dir lists them, and the private modules are attributes
    proc = child_python(
        "-c",
        "import json, sys, areaholonomy as ah; star = {}; exec('from areaholonomy import *', star); "
        f"names = {EAGER_EXPORTS!r}; "
        "print(json.dumps({'missing': [n for n in names if not hasattr(ah, n)], "
        "'star': sorted(set(names) - set(star)), 'dir': sorted(set(names) - set(dir(ah))), "
        "'private': [ah.lattice is sys.modules['areaholonomy.lattice'], "
        "ah._verify is sys.modules['areaholonomy._verify']], "
        "'unknown': hasattr(ah, 'StepPolicy')}))",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"missing": [], "star": [], "dir": [], "private": [True, True], "unknown": False}
    # a fresh interpreter's dir lists them before any is reached
    proc = child_python("-c", f"import areaholonomy as ah; print(sorted(set({EAGER_EXPORTS!r}) - set(dir(ah))))")
    assert proc.stdout.strip() == "[]"


def test_thread_cap_is_set_before_numpy_loads():
    caps = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in caps}
    with mock.patch.dict(os.environ, {**env, "AH_NUM_THREADS": "3"}, clear=True):
        proc = child_python(
            "-c",
            "import os, sys, areaholonomy; "
            "print('numpy' in sys.modules, [os.environ.get(v) for v in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS')])",
        )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False ['3', '3']"


def test_perfbench_tracer_installs():
    # install() looks kernels up by name, so a renamed or deleted kernel
    # would only break the benchmark's traced runs; it rebinds module
    # attributes, so it runs in a child process
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    proc = child_python(
        "-c",
        f"import sys; sys.path.insert(0, {str(perfbench)!r}); import tracer; "
        "import areaholonomy as ah; t = tracer.Tracer('t'); tracer.install(t); "
        "ah.ym_action(ah.GaugeField.identity(ah.build_torus_mesh(3), 1)); "
        "print('lattice.logs' in t.names)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


COMMANDS = ("solve", "verify", "classify", "word", "plot-data")


class TestContract:
    """What the entry point owes every command: usage errors, help, a
    closed stdout and an interrupt."""

    def test_no_command_prints_the_help(self):
        proc = entry_point()
        assert proc.returncode == 64
        assert all(name in proc.stderr for name in COMMANDS)

    @pytest.mark.parametrize("args", [["bogus"], ["solve", "--mes", "torus:4"]], ids=["unknown-command", "abbreviated"])
    def test_unknown_name_is_usage_error(self, args):
        proc = entry_point(*args)
        assert proc.returncode == 64
        assert "Usage:" in proc.stderr and "Error: " in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_value_names_its_option(self):
        proc = entry_point("solve", "--n", "x")
        assert proc.returncode == 64
        assert "--n" in proc.stderr and "Traceback" not in proc.stderr

    def test_help_lists_every_option_and_default(self):
        proc = entry_point("--help")
        assert proc.returncode == 0
        assert all(name in proc.stdout for name in COMMANDS)
        proc = entry_point("solve", "--help")
        assert proc.returncode == 0
        entries, name = {}, None
        for line in proc.stdout.splitlines():
            if line.startswith("  --"):
                name = line.split()[0]
                entries[name] = line
            elif line.startswith("   ") and name:
                entries[name] += line
        defaults = {"--n": "1", "--flux": "0", "--seed": "0", "--tol": "1e-09", "--max-iter": "20000",
                    "--eps": "0.3", "--out": "field.json", "--report": "report.json"}
        assert set(entries) - {"--help"} == {"--mesh", "--trace", *defaults}
        for name, default in defaults.items():
            assert f"[default: {default}]" in " ".join(entries[name].split())

    def test_closed_stdout_exits_1_quietly(self):
        # as `| head -1` does; the 20475 classes are far more than a pipe holds
        with subprocess.Popen([sys.executable, "-m", "areaholonomy.cli", "classify", "--n", "4", "--kmax", "12"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env()) as child:
            assert child.stdout.readline().startswith("20475 Yang-Mills classes")
            child.stdout.close()
            stderr = child.stderr.read()
        assert child.returncode == 1
        assert "Traceback" not in stderr

    def test_interrupt_exits_130(self, monkeypatch, tmp_path):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(ah, "gradient_flow", interrupt)
        result = run_cli(["solve", "--mesh", "torus:3", "--out", str(tmp_path / "f.json"),
                          "--report", str(tmp_path / "r.json")])
        assert result.exit_code == 130

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_negative_seed_is_usage_error(self, command, tmp_path):
        # refused as the arguments are parsed, so verify never reads its field
        args = {"solve": ["--mesh", "torus:2", "--out", str(tmp_path / "f.json"), "--report", str(tmp_path / "r.json")],
                "verify": ["--field", str(tmp_path / "absent.json"), "--random", "3"]}[command]
        proc = entry_point(command, "--seed", "-1", *args)
        assert proc.returncode == 64
        assert "--seed" in proc.stderr and "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []


class TestSolve:
    def test_flux_sector_value(self, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        result = run_cli(["solve", "--mesh", "torus:8", "--n", "1", "--flux", "1",
                              "--seed", "7", "--out", out, "--report", rep])
        assert result.exit_code == 0
        report = json.loads(Path(rep).read_text())
        assert abs(report["final_action"] - FOUR_PI_SQ) < 1e-6
        assert report["converged"] is True
        assert report["stop_reason"] == "converged"
        assert report["config"]["seed"] == 7
        field = ah.field_from_json(json.loads(Path(out).read_text()))
        assert field.n == 1 and len(field.mesh.edges) == 128

    def test_torus64_abelian_solve(self, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        result = run_cli(["solve", "--mesh", "torus:64", "--n", "1", "--flux", "1",
                              "--seed", "7", "--tol", "1e-9", "--out", out, "--report", rep])
        assert result.exit_code == 0
        report = json.loads(Path(rep).read_text())
        assert report["converged"] is True
        assert report["final_gradient_norm"] <= 1e-9
        assert abs(report["final_action"] - FOUR_PI_SQ) < 1e-6

    def test_flat_sector(self, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        result = run_cli(["solve", "--mesh", "torus:4", "--n", "1", "--flux", "0",
                              "--seed", "1", "--out", out, "--report", rep])
        assert result.exit_code == 0
        assert json.loads(Path(rep).read_text())["final_action"] < 1e-10

    def test_missing_mesh_is_usage_error(self):
        proc = entry_point("solve")
        assert proc.returncode == 64
        assert "Usage" in proc.stderr or "Usage" in proc.stdout

    def test_flux_on_branch_cut_is_clean_usage_error(self, tmp_path):
        # torus:2 flux 2 puts every plaquette phase exactly at pi
        proc = entry_point("solve", "--mesh", "torus:2", "--flux", "2", "--eps", "0", "--seed", "1",
                           "--out", str(tmp_path / "f.json"), "--report", str(tmp_path / "r.json"))
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("mesh, flux", [("torus:2", "3"), ("torus:3", "5"), ("torus:4", "9")])
    def test_flux_past_the_branch_is_usage_error(self, tmp_path, mesh, flux):
        # torus:2 at flux 3 used to land in sector -1 and exit 0
        proc = entry_point("solve", "--mesh", mesh, "--flux", flux,
                           "--out", str(tmp_path / "f.json"), "--report", str(tmp_path / "r.json"))
        assert proc.returncode == 64
        assert "flux per face exceeds the principal branch" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "f.json").exists()

    def test_entry_point_success_path(self, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        proc = entry_point("solve", "--mesh", "torus:4", "--flux", "1", "--seed", "7",
                           "--out", out, "--report", rep)
        assert proc.returncode == 0
        assert abs(json.loads(Path(rep).read_text())["final_action"] - FOUR_PI_SQ) < 1e-6

    def test_non_convergence_exit(self, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        # n = 2 takes several Levenberg-Marquardt steps; an abelian flow
        # takes the exact Newton step and converges at once
        result = run_cli(["solve", "--mesh", "torus:4", "--n", "2", "--flux", "1",
                                     "--seed", "7", "--max-iter", "2",
                                     "--out", out, "--report", rep])
        assert result.exit_code == 2
        report = json.loads(Path(rep).read_text())
        assert report["converged"] is False
        assert report["stop_reason"] == "iteration_budget"
        assert "NOT converged (iteration_budget)" in result.output

    # sphere:2 n = 2 re-unitarises every trial step (Newton-Schulz)
    @pytest.mark.parametrize("config", [["--mesh", "torus:4"], ["--mesh", "sphere:2", "--n", "2"]],
                             ids=["torus:4", "sphere:2-n2"])
    def test_deterministic_bytes(self, tmp_path, config):
        paths = []
        for tag in ("a", "b"):
            out, rep = str(tmp_path / f"f{tag}.json"), str(tmp_path / f"r{tag}.json")
            assert run_cli(["solve", *config, "--flux", "1", "--seed", "3",
                                "--out", out, "--report", rep]).exit_code == 0
            paths.append((out, rep))
        assert Path(paths[0][0]).read_bytes() == Path(paths[1][0]).read_bytes()
        assert Path(paths[0][1]).read_bytes() == Path(paths[1][1]).read_bytes()

    # sha256 of the files that json.dump wrote before the field file was
    # formed from the edge arrays; the writer must not change a byte.  Both
    # pins encode the flow's roundoff: each is the sha256 of
    # json.dump(field_to_json(field) | {"seed": 3}, sort_keys=True, indent=1)
    # and of the report.  The n = 2 pin is that of the exact-Hessian Newton
    # flow, which takes another path to the minimum, so its field differs
    # from the Gauss-Newton flow's by a gauge motion: 7 iterations against
    # 29, final actions 39.47841760435743 and ...744 (7.1e-15 apart), every
    # face's curvature eigenvalues within 8.9e-12.  The n = 1 pin is that of
    # the Newton step with each slot block its sign: max |dU| = 3.2e-16
    # against the file of blocks computed from the eigenbases (which was
    # 2.0e-16 from the dual-Laplacian solve's), the same 1 iteration and
    # final action 39.47841760435744, final gradient norm 6.7e-14 -> 5.3e-14
    @pytest.mark.parametrize("mesh, n, field_sha, report_sha", [
        ("torus:4", "1", "33f4c55c91e1c2c195c938d45c0da06cb62a954987d936cde92601adf92fbfce",
         "9262b848cbcca1bf2609903d7211de6d8b5f94c3c3a26ef94167fc200554da50"),
        ("sphere:1", "2", "fc232effd772d7ff95b89da9aa08f12a6fe9157643d94cf7139a7d7a059d31de",
         "37700dafca2fe03fb79b7cc72f45162b49e3c557eecb0dbf4c62affe5c40df88"),
    ], ids=["torus:4", "sphere:1-n2"])
    def test_pinned_bytes(self, tmp_path, mesh, n, field_sha, report_sha):
        out, rep = tmp_path / "f.json", tmp_path / "r.json"
        assert run_cli(["solve", "--mesh", mesh, "--n", n, "--flux", "1", "--seed", "3",
                            "--out", str(out), "--report", str(rep)]).exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == field_sha
        assert hashlib.sha256(rep.read_bytes()).hexdigest() == report_sha

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_output_mode_follows_umask(self, tmp_path, umask, mode):
        out, rep = tmp_path / "f.json", tmp_path / "r.json"
        previous = os.umask(umask)
        try:
            assert run_cli(["solve", "--mesh", "torus:3", "--flux", "1",
                                "--out", str(out), "--report", str(rep)]).exit_code == 0
        finally:
            os.umask(previous)
        assert [p.stat().st_mode & 0o777 for p in (out, rep)] == [mode, mode]

    def test_sphere_solve_and_verify(self, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        result = run_cli(["solve", "--mesh", "sphere:2", "--flux", "1", "--seed", "2",
                              "--eps", "0.1", "--out", out, "--report", rep])
        assert result.exit_code == 0
        assert abs(json.loads(Path(rep).read_text())["final_action"] - FOUR_PI_SQ) < 1e-6
        result = run_cli(["verify", "--field", out, "--random", "15", "--seed", "4"])
        assert result.exit_code == 0


class TestVerify:
    @pytest.fixture()
    def solved(self, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        assert run_cli(["solve", "--mesh", "torus:8", "--flux", "1", "--seed", "7",
                            "--out", out, "--report", rep]).exit_code == 0
        return out

    def test_random_pairs_pass(self, solved, tmp_path):
        table = str(tmp_path / "verify.json")
        result = run_cli(["verify", "--field", solved, "--random", "20",
                              "--seed", "5", "--out", table])
        assert result.exit_code == 0
        data = json.loads(Path(table).read_text())
        assert data["max_residual"] < 1e-6
        assert len(data["rows"]) == 20

    # sha256 of the --json table of 20 random pairs, whose areas and
    # residuals follow every drawn loop: a change to how the pairs are
    # drawn must leave them as they are
    @pytest.mark.parametrize("mesh, solve_args, table_sha", [
        ("torus:8", ["--seed", "7"], "44512f7317b68ce607c59d94578c4710710c4743aa08d31ddd43a425f4cfa339"),
        ("sphere:2", ["--seed", "2", "--eps", "0.1"],
         "94998917a540849bcf3cfc22c0d52a9751a7067117639b61080d5326e040432c"),
    ], ids=["torus:8", "sphere:2"])
    def test_pinned_random_pairs(self, tmp_path, mesh, solve_args, table_sha):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        assert run_cli(["solve", "--mesh", mesh, "--flux", "1", *solve_args,
                            "--out", out, "--report", rep]).exit_code == 0
        result = run_cli(["verify", "--field", out, "--random", "20", "--seed", "5", "--json"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == table_sha

    def test_perturbed_fails(self, solved):
        result = run_cli(["verify", "--field", solved, "--random", "10",
                                     "--seed", "5", "--perturb", "0.1"])
        assert result.exit_code == 3

    def test_missing_field_file_is_io_error(self):
        proc = entry_point("verify", "--field", "/nonexistent/field.json", "--random", "3")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("missing", ["faces", "steps"])
    def test_missing_key_is_usage_error(self, missing, tmp_path):
        mesh = ah.build_torus_mesh(3)
        field_json = ah.field_to_json(ah.GaugeField.identity(mesh, 1))
        loop_json = ah.loop_to_json(ah.face_boundary_loop(mesh, 0))
        if missing == "faces":
            del field_json["mesh"]["faces"]
        else:
            del loop_json["steps"]
        field_path, pairs_path = tmp_path / "f.json", tmp_path / "pairs.json"
        field_path.write_text(json.dumps(field_json))
        pairs_path.write_text(json.dumps({"pairs": [[loop_json, loop_json]]}))
        proc = entry_point("verify", "--field", str(field_path), "--pairs", str(pairs_path))
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr
        assert repr(missing) in proc.stderr

    def test_edge_matrix_without_re_is_usage_error(self, tmp_path):
        mesh = ah.build_torus_mesh(3)
        field_json = ah.field_to_json(ah.GaugeField.identity(mesh, 1))
        del field_json["edges"][0]["re"]
        field_path = tmp_path / "f.json"
        field_path.write_text(json.dumps(field_json))
        proc = entry_point("verify", "--field", str(field_path), "--random", "3")
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr
        assert "'re'" in proc.stderr

    def test_nan_edge_is_usage_error(self, tmp_path):
        mesh = ah.build_torus_mesh(3)
        field_json = ah.field_to_json(ah.GaugeField.identity(mesh, 1))
        field_json["edges"][4]["re"][0][0] = float("nan")
        field_path = tmp_path / "f.json"
        field_path.write_text(json.dumps(field_json))  # written as NaN, which json reads back
        proc = entry_point("verify", "--field", str(field_path), "--random", "3")
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr
        assert "not unitary" in proc.stderr

    def test_infinite_edge_is_usage_error(self, tmp_path):
        mesh = ah.build_torus_mesh(3)
        field_json = ah.field_to_json(ah.GaugeField.identity(mesh, 1))
        field_json["edges"][4]["re"][0][0] = float("inf")
        field_path = tmp_path / "f.json"
        field_path.write_text(json.dumps(field_json))  # written as Infinity, which json reads back
        proc = entry_point("verify", "--field", str(field_path), "--random", "3")
        assert proc.returncode == 64
        assert "not unitary" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("k", ["0", "-4"])
    def test_random_count_below_one_is_usage_error(self, k, tmp_path):
        field_path = tmp_path / "f.json"
        field_path.write_text(json.dumps(ah.field_to_json(ah.GaugeField.identity(ah.build_torus_mesh(3), 1))))
        proc = entry_point("verify", "--field", str(field_path), "--random", k)
        assert proc.returncode == 64
        assert "--random K needs K >= 1" in proc.stderr

    @pytest.mark.parametrize("case", ["field-edges", "mesh-edges", "face-entry", "loop-steps", "step-history"])
    def test_wrongly_typed_value_is_usage_error(self, case, tmp_path):
        # each value has the wrong JSON type, so its decoder raises TypeError
        mesh = ah.build_torus_mesh(3)
        field_json = ah.field_to_json(ah.GaugeField.identity(mesh, 1))
        good_path, bad_path = tmp_path / "good.json", tmp_path / "bad.json"
        good_path.write_text(json.dumps(field_json))
        bad, args = field_json, ["verify", "--field", str(bad_path), "--random", "3"]
        if case == "field-edges":
            bad["edges"] = 5
        elif case == "mesh-edges":
            bad["mesh"]["edges"] = 7
        elif case == "face-entry":
            bad["mesh"]["faces"][0][0] = "a"
        elif case == "loop-steps":
            loop = ah.loop_to_json(ah.face_boundary_loop(mesh, 0))
            bad = {"pairs": [[dict(loop, steps=5), loop]]}
            args = ["verify", "--field", str(good_path), "--pairs", str(bad_path)]
        else:
            bad = {"final_action": 1.0, "step_history": 5}
            args = ["plot-data", "--input", str(bad_path)]
        bad_path.write_text(json.dumps(bad))
        proc = entry_point(*args)
        assert proc.returncode == 64
        assert f"{bad_path} is malformed" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "case, value",
        [
            ("mesh: basepoint", 0.6),
            ("mesh: genus", True),
            ("mesh: a face entry", 1.5),
            ("field: n", 1.4),
            ("matrix: n", 1.5),
            ("loop: base", 0.9),
        ],
        ids=["mesh-basepoint", "mesh-genus", "face-entry", "field-n", "matrix-n", "loop"],
    )
    def test_non_integral_index_is_usage_error(self, case, value, tmp_path):
        # int() would read each value as an index the file means (0.6 as 0,
        # true as 1), so the truncated file would verify with exit 0
        mesh = ah.build_torus_mesh(3)
        field_json = ah.field_to_json(ah.GaugeField.identity(mesh, 1))
        loop = ah.loop_to_json(ah.face_boundary_loop(mesh, 0))
        field_path, pairs_path = tmp_path / "f.json", tmp_path / "pairs.json"
        args = ["verify", "--field", str(field_path), "--random", "3"]
        if case == "mesh: basepoint":
            field_json["mesh"]["basepoint"] = value
        elif case == "mesh: genus":
            field_json["mesh"]["genus"] = value
        elif case == "mesh: a face entry":
            assert field_json["mesh"]["faces"][0][0] == 1
            field_json["mesh"]["faces"][0][0] = value
        elif case == "field: n":
            field_json["n"] = value
        elif case == "matrix: n":
            field_json["edges"][0]["n"] = value
        else:
            assert loop["base"] == 0 and loop["steps"][0][0] == 0
            loop["base"], loop["steps"][0][0] = value, 0.6
            args = ["verify", "--field", str(field_path), "--pairs", str(pairs_path)]
        field_path.write_text(json.dumps(field_json))
        pairs_path.write_text(json.dumps({"pairs": [[loop, loop]]}))
        proc = entry_point(*args)
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr
        assert f"{case} must be an integer, got {value!r}" in proc.stderr

    @pytest.mark.parametrize(
        "case, message",
        [
            ("face-entry-beyond-edges", "face 0 must list edges among 0..17"),
            ("face-entry-zero", "0 names no edge"),
            ("empty-face", "face 0 must list edges among 0..17"),
            ("edge-endpoint", "edge endpoints must be vertices 0..5"),
        ],
        ids=["face-entry-beyond-edges", "face-entry-zero", "empty-face", "edge-endpoint"],
    )
    def test_mesh_index_out_of_range_is_usage_error(self, case, message, tmp_path):
        mesh = ah.build_sphere_mesh(1) if case == "edge-endpoint" else ah.build_torus_mesh(3)
        field_json = ah.field_to_json(ah.GaugeField.identity(mesh, 1))
        faces = field_json["mesh"]["faces"]
        if case == "face-entry-beyond-edges":
            faces[0][0] = 1000
        elif case == "face-entry-zero":
            faces[0][0] = 0
        elif case == "empty-face":
            faces[0] = []
        else:
            # a vertex renamed beyond the vertex count in every edge keeps
            # the faces composable and the Euler characteristic right
            last = mesh.vertex_count - 1
            field_json["mesh"]["edges"] = [[1000 if v == last else v for v in e] for e in field_json["mesh"]["edges"]]
        field_path = tmp_path / "f.json"
        field_path.write_text(json.dumps(field_json))
        proc = entry_point("verify", "--field", str(field_path), "--random", "3")
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    @pytest.mark.parametrize("case", MALFORMED_MESHES)
    def test_malformed_mesh_is_usage_error(self, case, tmp_path):
        field_json = ah.field_to_json(ah.GaugeField.identity(ah.build_torus_mesh(3), 1))
        field_json["mesh"], message = malformed_mesh_json(case)
        field_path = tmp_path / "f.json"
        field_path.write_text(json.dumps(field_json))
        proc = entry_point("verify", "--field", str(field_path), "--random", "3")
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    def test_disconnected_mesh_is_usage_error(self, tmp_path):
        sphere, torus = ah.build_sphere_mesh(1), ah.build_torus_mesh(2)
        edges = [m for mesh in (sphere, torus) for m in ah.field_to_json(ah.GaugeField.identity(mesh, 1))["edges"]]
        field_json = {"mesh": disjoint_union_json(sphere, torus), "n": 1, "edges": edges}
        field_path = tmp_path / "f.json"
        field_path.write_text(json.dumps(field_json))
        proc = entry_point("verify", "--field", str(field_path), "--random", "3")
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr
        assert "the complex is not connected" in proc.stderr

    def test_rebased_torus_field(self, tmp_path):
        # the grid survives the JSON round trip at any basepoint, so the
        # random pairs and their standard cycles start at vertex 5
        mesh = rebased(ah.build_torus_mesh(4), 5)
        field = ah.build_ym_field_from_rep(mesh, flux_rep(2, 1))
        field = ah.apply_gauge(field, ah.random_gauge_transform(mesh, 2, np.random.default_rng(3)))
        field_path = tmp_path / "f.json"
        field_path.write_text(json.dumps(ah.field_to_json(field)))
        result = run_cli(["verify", "--field", str(field_path), "--random", "20", "--seed", "3"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("n", [1, 2])
    def test_slit_face_field(self, tmp_path, n):
        # face 0 runs out along a dangling edge and straight back: the
        # flux-1 field is still a critical point, and the pairs pass
        mesh = slit_face(ah.build_sphere_mesh(2))
        field = ah.build_ym_field_from_rep(mesh, ah.sphere_rep([1] + [0] * (n - 1)))
        assert ah.gradient_norm(field) < 1e-11
        field_path = tmp_path / "f.json"
        field_path.write_text(json.dumps(ah.field_to_json(field)))
        result = run_cli(["verify", "--field", str(field_path), "--random", "20", "--seed", "3"])
        assert result.exit_code == 0, result.output

    def test_missing_mesh_reference_is_io_error(self, tmp_path):
        field_json = ah.field_to_json(ah.GaugeField.identity(ah.build_torus_mesh(3), 1))
        field_json["mesh"] = "absent-mesh.json"
        field_path = tmp_path / "f.json"
        field_path.write_text(json.dumps(field_json))
        proc = entry_point("verify", "--field", str(field_path), "--random", "3")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"cannot read {tmp_path / 'absent-mesh.json'}" in proc.stderr

    def test_nan_residual_fails(self, solved, monkeypatch):
        # the gate passes only residuals below tol, and NaN is not below it
        monkeypatch.setattr(ah._verify, "area_residuals", lambda h1, *args: np.full(len(h1), np.nan))
        result = run_cli(["verify", "--field", solved, "--random", "3"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("pairs", [5, [5], [[{"base": 0, "steps": []}]]], ids=["number", "entry", "single-loop"])
    def test_malformed_pairs_is_usage_error(self, pairs, tmp_path):
        mesh = ah.build_torus_mesh(3)
        field_path, pairs_path = tmp_path / "f.json", tmp_path / "pairs.json"
        field_path.write_text(json.dumps(ah.field_to_json(ah.GaugeField.identity(mesh, 1))))
        pairs_path.write_text(json.dumps({"pairs": pairs}))
        proc = entry_point("verify", "--field", str(field_path), "--pairs", str(pairs_path))
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr
        assert "'pairs' must be a list of [loop, loop] pairs" in proc.stderr

    def test_empty_pairs_is_usage_error(self, tmp_path):
        field_path, pairs_path = tmp_path / "f.json", tmp_path / "pairs.json"
        field_path.write_text(json.dumps(ah.field_to_json(ah.GaugeField.identity(ah.build_torus_mesh(3), 1))))
        pairs_path.write_text(json.dumps({"pairs": []}))
        proc = entry_point("verify", "--field", str(field_path), "--pairs", str(pairs_path))
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr
        assert "'pairs' is empty" in proc.stderr

    def test_open_path_pair_is_usage_error(self, tmp_path):
        # both paths run from vertex 0 to vertex 1 and l1 l2^-1 is the alpha
        # cycle, but neither is a loop, so there is no pair to flag
        mesh = ah.build_torus_mesh(4)
        field_path, pairs_path = tmp_path / "f.json", tmp_path / "pairs.json"
        field_path.write_text(json.dumps(ah.field_to_json(ah.build_ym_field_from_rep(mesh, flux_rep(1, 1)))))
        l1, l2 = {"base": 0, "steps": [[0, 1]]}, {"base": 0, "steps": [[3, -1], [2, -1], [1, -1]]}
        pairs_path.write_text(json.dumps({"pairs": [[l1, l2]]}))
        proc = entry_point("verify", "--field", str(field_path), "--pairs", str(pairs_path))
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr
        assert "loop does not return to its base vertex" in proc.stderr

    def test_identical_loops_row_zero(self, solved, tmp_path):
        field = ah.field_from_json(json.loads(Path(solved).read_text()))
        loop = ah.random_loop(field.mesh, np.random.default_rng(1), 10)
        pairs_path = str(tmp_path / "pairs.json")
        with open(pairs_path, "w") as handle:
            json.dump({"pairs": [[ah.loop_to_json(loop), ah.loop_to_json(loop)]]}, handle)
        table = str(tmp_path / "verify.json")
        result = run_cli(["verify", "--field", solved, "--pairs", pairs_path, "--out", table])
        assert result.exit_code == 0
        assert json.loads(Path(table).read_text())["rows"][0]["residual"] == 0.0

    def test_non_homotopic_pair_flagged(self, solved, tmp_path):
        field = ah.field_from_json(json.loads(Path(solved).read_text()))
        l1 = ah.alpha_loop(field.mesh)
        l2 = ah.MeshLoop(field.mesh.basepoint, ())
        pairs_path = str(tmp_path / "pairs.json")
        with open(pairs_path, "w") as handle:
            json.dump({"pairs": [[ah.loop_to_json(l1), ah.loop_to_json(l2)]]}, handle)
        result = run_cli(["verify", "--field", solved, "--pairs", pairs_path])
        assert result.exit_code == 3
        assert "not null-homotopic" in result.output

    def test_nothing_measured_writes_null(self, solved, tmp_path):
        field = ah.field_from_json(json.loads(Path(solved).read_text()))
        pairs_path, table = str(tmp_path / "pairs.json"), str(tmp_path / "verify.json")
        with open(pairs_path, "w") as handle:
            pair = [ah.alpha_loop(field.mesh), ah.MeshLoop(field.mesh.basepoint, ())]
            json.dump({"pairs": [[ah.loop_to_json(loop) for loop in pair]]}, handle)

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        result = run_cli(["verify", "--field", solved, "--pairs", pairs_path, "--json", "--out", table])
        assert result.exit_code == 3
        for text in (result.output.splitlines()[-1], Path(table).read_text()):
            data = json.loads(text, parse_constant=refuse)
            assert data["max_residual"] is None and data["flagged"] == 1
        result = run_cli(["verify", "--field", solved, "--pairs", pairs_path])
        assert result.exit_code == 3
        assert "max residual: inf" in result.output

    def test_lambda_from_basepoint_frame(self, tmp_path):
        # no face boundary starts at vertex 17, so face 0's curvature is in
        # another vertex's frame; in a random gauge the two frames differ
        mesh_json = ah.mesh_to_json(ah.build_sphere_mesh(2))
        mesh_json["basepoint"] = 17
        mesh = ah.mesh_from_json(mesh_json)
        assert all(mesh.face_start_vertex(f) != 17 for f in range(len(mesh.faces)))
        field = ah.build_ym_field_from_rep(mesh, ah.sphere_rep([1, 0]))
        field = ah.apply_gauge(field, ah.random_gauge_transform(mesh, 2, np.random.default_rng(1)))
        assert ah.gradient_norm(field) < 1e-12
        field_path = tmp_path / "f.json"
        field_path.write_text(json.dumps(ah.field_to_json(field)))
        table = tmp_path / "verify.json"
        proc = entry_point("verify", "--field", str(field_path), "--random", "20", "--seed", "3",
                           "--out", str(table))
        assert proc.returncode == 0, proc.stdout
        assert json.loads(table.read_text())["max_residual"] < 1e-12


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--perturb", "nan"],
        ["verify", "--perturb", "-1"],
        ["verify", "--tol", "nan"],
        ["verify", "--tol", "inf"],
        ["solve", "--eps", "nan"],
        ["solve", "--eps", "inf"],
        ["solve", "--tol", "nan"],
        ["solve", "--tol", "inf"],
    ],
    ids=lambda a: f"{a[0]}{a[1]}={a[2]}",
)
def test_numeric_option_out_of_range_is_usage_error(args, tmp_path):
    # a NaN compares false with every bound, so each option must be
    # required finite and in range rather than tested for being out of it
    if args[0] == "verify":
        field_path = tmp_path / "f.json"
        field_path.write_text(json.dumps(ah.field_to_json(ah.GaugeField.identity(ah.build_torus_mesh(3), 1))))
        args = [*args, "--field", str(field_path), "--random", "3"]
    else:
        args = [*args, "--mesh", "torus:2", "--out", str(tmp_path / "f.json"), "--report", str(tmp_path / "r.json")]
    proc = entry_point(*args)
    assert proc.returncode == 64
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "r.json").exists()


class TestWriteAtomic:
    def test_failing_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            _write_json(str(path), {"x": object()})
        assert list(tmp_path.iterdir()) == []

    def test_failing_rename_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.json"
        with mock.patch("os.replace", side_effect=OSError("no rename")), \
                pytest.raises(CommandError, match="cannot write"):
            _write_json(str(path), {"x": 1})
        assert list(tmp_path.iterdir()) == []


class TestClassify:
    def test_row_count(self):
        result = run_cli(["classify", "--n", "2", "--kmax", "1"])
        assert result.exit_code == 0
        assert "6 Yang-Mills classes" in result.output

    def test_flat_class_only(self):
        result = run_cli(["classify", "--n", "1", "--kmax", "0"])
        assert "1 Yang-Mills classes" in result.output
        assert "[flat]" in result.output

    def test_json_actions_positive_except_flat(self):
        result = run_cli(["classify", "--n", "2", "--kmax", "2", "--json"])
        data = json.loads(result.output)
        assert len(data["classes"]) == 15
        for entry in data["classes"]:
            if entry["flat"]:
                assert entry["action"] == 0.0
            else:
                assert entry["action"] > 0.0


class TestWord:
    def test_single_relation(self):
        result = run_cli(["word", "--genus", "1", "b1 a1"])
        assert "a1 b1, t=-1" in result.output

    def test_relator_check(self):
        # the relator is the central generator J = (empty, 1); at genus 0
        # it is empty and t = 1 is t = 0 in R/Z
        for genus in range(4):
            result = run_cli(["word", "--genus", str(genus), "--check-relator"])
            assert result.exit_code == 0
            assert result.output == f"relator normalizes to (empty, t={min(genus, 1)}): ok\n"

    def test_genus0_canonical(self):
        result = run_cli(["word", "--genus", "0", "--t", "0.7", ""])
        assert "t=-0.3 (mod 1)" in result.output

    def test_parse_error(self):
        result = run_cli(["word", "--genus", "1", "c3"])
        assert result.exit_code == 64

    def test_product(self):
        result = run_cli(["word", "--genus", "2", "a1 b1", "a1^-1 b1^-1"])
        assert "product:" in result.output

    def test_t_values_pair_positionally(self):
        result = run_cli(["word", "--genus", "1", "--t", "0.25", "--t", "0.5",
                              "a1", "a1^-1"])
        assert "input 0: a1, t=0.25" in result.output
        assert "input 1: a1^-1, t=0.5" in result.output
        assert "product: (empty), t=0.75" in result.output

    def test_words_and_options_interleave(self):
        result = run_cli(["word", "a1", "--genus", "1", "--t", "0.25", "a1^-1", "--t", "0.5", "b1"])
        assert result.exit_code == 0
        assert result.output.splitlines()[:3] == ["input 0: a1, t=0.25", "input 1: a1^-1, t=0.5", "input 2: b1, t=0"]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--t", "nan", "a1"], "--t must be finite"),
            (["--t", "inf", "a1"], "--t must be finite"),
            (["--t", "0.5", "--t", "-inf", "a1", "b1"], "--t must be finite"),
            (["--t", "0.5", "--t", "0.2", "a1"], "2 --t value(s) for 1 word(s)"),
            (["--check-relator", "--t", "0.5"], "1 --t value(s) for 0 word(s)"),
        ],
        ids=["nan", "inf", "second-infinite", "surplus", "no-words"],
    )
    def test_bad_t_is_usage_error(self, args, message):
        proc = entry_point("word", "--genus", "1", *args)
        assert proc.returncode == 64
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestPlotData:
    def test_flow_rows(self, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        assert run_cli(["solve", "--mesh", "torus:4", "--flux", "1", "--seed", "3",
                            "--trace", "--out", out, "--report", rep]).exit_code == 0
        csv_path = str(tmp_path / "flow.csv")
        result = run_cli(["plot-data", "--input", rep, "--out", csv_path])
        assert result.exit_code == 0
        lines = Path(csv_path).read_text().splitlines()
        assert lines[0] == "iteration,action,gradient_norm"
        report = json.loads(Path(rep).read_text())
        assert len(lines) == 1 + len(report["step_history"])
        assert Path(csv_path).read_text() == run_cli(["plot-data", "--input", rep]).output

    def test_header_only_without_trace(self, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        assert run_cli(["solve", "--mesh", "torus:4", "--flux", "0", "--seed", "3",
                            "--out", out, "--report", rep]).exit_code == 0
        result = run_cli(["plot-data", "--input", rep])
        assert result.output == "iteration,action,gradient_norm\n"

    @pytest.mark.parametrize("report", ["final_action", ["final_action"]], ids=["string", "list"])
    def test_report_not_an_object_is_usage_error(self, report, tmp_path):
        # "final_action" in a string or list passes the key test
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        proc = entry_point("plot-data", "--input", str(path))
        assert proc.returncode == 64
        assert f"{path} is malformed" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "table, message",
        [
            ({"rows": [{"area": 0.5}]}, "shrinking-loop row lacks the key 'residual'"),
            ({"foo": 1}, "is neither a flow report nor a shrinking-loop table"),
            ({"final_action": 1.0, "step_history": [[1.5, 2.0, 3.0]]}, "iteration must be an integer, got 1.5"),
            ({"final_action": 1.0, "step_history": [[0, True, 1.0]]}, "step_history row 0: action must be a number, got True"),
            ({"final_action": 1.0, "step_history": [[0, 1.0, 1.0], [1, "a", 1.0]]},
             "step_history row 1: action must be a number, got 'a'"),
            ({"final_action": 1.0, "step_history": [[0, 1.0, [1.0]]]},
             "step_history row 0: gradient_norm must be a number, got [1.0]"),
            ({"final_action": 1.0, "step_history": [[0, 1.0]]},
             "step_history row 0 must be [iteration, action, gradient_norm], got [0, 1.0]"),
            ({"final_action": 1.0, "step_history": [7]}, "step_history row 0 must be [iteration, action, gradient_norm], got 7"),
            ({"final_action": 1.0, "step_history": 7}, "step_history must be a list of [iteration, action, gradient_norm] rows"),
            ({"rows": [[0.5, False]]}, "shrinking-loop row 0: residual must be a number, got False"),
            ({"rows": [{"area": "x", "residual": 1.0}]}, "shrinking-loop row 0: area must be a number, got 'x'"),
            ({"rows": [[0.5, 1.0, 2.0]]}, "shrinking-loop row 0 must be [area, residual], got [0.5, 1.0, 2.0]"),
        ],
        ids=["row-without-residual", "neither", "fractional-iteration", "boolean-action", "string-action",
             "list-gradient", "short-row", "number-row", "number-history", "boolean-residual", "string-area",
             "long-row"],
    )
    def test_malformed_table_is_usage_error(self, table, message, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(table))
        proc = entry_point("plot-data", "--input", str(path))
        assert proc.returncode == 64
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_numbers_of_either_type(self, tmp_path):
        # an integral action reads as a float; NaN is a number, as json reads it
        path = tmp_path / "r.json"
        path.write_text('{"final_action": 1, "step_history": [[0, 2, 0.5], [1.0, NaN, 0.1]]}')
        result = run_cli(["plot-data", "--input", str(path)])
        assert result.output == "iteration,action,gradient_norm\n0,2,0.5\n1,nan,0.10000000000000001\n"

    def test_shrinking_table(self, tmp_path):
        mesh = ah.build_torus_mesh(8)
        field = ah.build_ym_field_from_rep(
            mesh,
            ah.YangMillsRep(1, 1, [ah.Unitary([[1.0]])], [ah.Unitary([[1.0]])],
                            ah.SkewHermitian([[2j * np.pi]])),
        )
        rows = ah.shrinking_loop_curvature(field)
        table_path = str(tmp_path / "shrink.json")
        with open(table_path, "w") as handle:
            json.dump({"rows": [[a, r] for a, r in rows]}, handle)
        result = run_cli(["plot-data", "--input", table_path])
        lines = result.output.splitlines()
        assert lines[0] == "area,residual"
        values = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert values == sorted(values, reverse=True)


# ---------------------------------------------------------------------------
# malformed input files: every node of a valid file replaced by a bad value


FUZZ_VALUES = [None, True, False, 0, 1, -1, 10**6, 0.5, -0.5, math.nan, math.inf, -math.inf, 1e308,
               "", "x", [], [1], {}, {"n": 1}]


@functools.cache
def fuzz_documents() -> dict:
    """A torus:3 field, a sphere:1 n = 2 field and a pairs file for the torus field."""
    torus, sphere = ah.build_torus_mesh(3), ah.build_sphere_mesh(1)
    rng = np.random.default_rng(5)
    pairs = [ah.random_homotopic_pair(torus, rng, 6) for _ in range(2)]
    return {
        "torus-field": ah.field_to_json(ah.build_ym_field_from_rep(torus, flux_rep(1, 1))),
        "sphere-field": ah.field_to_json(ah.build_ym_field_from_rep(sphere, ah.sphere_rep([1, 0]))),
        "pairs": {"pairs": [[ah.loop_to_json(l1), ah.loop_to_json(l2)] for l1, l2 in pairs]},
    }


def json_paths(value, path=()):
    """The path of every node of a JSON value, the root's () included."""
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_survives_fuzzed_json(data):
    docs = fuzz_documents()
    name = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(list(json_paths(docs[name]))))
    value = data.draw(st.sampled_from(FUZZ_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        field_path, pairs_path = os.path.join(tmp, "f.json"), os.path.join(tmp, "pairs.json")
        field = docs["torus-field"] if name == "pairs" else replaced(docs[name], path, value)
        with open(field_path, "w") as handle:
            json.dump(field, handle)
        with open(pairs_path, "w") as handle:
            json.dump(replaced(docs["pairs"], path, value) if name == "pairs" else docs["pairs"], handle)
        source = ["--pairs", pairs_path] if name == "pairs" else ["--random", "3"]
        code = run_cli(["verify", "--field", field_path, *source]).exit_code
    # a string "mesh" is a path to a mesh file, and there is none
    missing_mesh = name != "pairs" and path == ("mesh",) and isinstance(value, str)
    assert code in ({1} if missing_mesh else {0, 3, 64})


# besides the corpus, values that a type pass must refuse or hand on
# whole: ints beyond intp, integral floats, and lists where numbers belong
READER_VALUES = FUZZ_VALUES + [10**30, -(10**30), 2.0, -1.0, [0, 1], [[1.0]]]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_field_reader_matches_the_per_element_oracle(data):
    # the array passes of field_from_json raise what the element-by-element
    # oracle raises, with its message, or read the field it reads
    docs = fuzz_documents()
    name = data.draw(st.sampled_from(["torus-field", "sphere-field"]))
    path = data.draw(st.sampled_from(list(json_paths(docs[name]))))
    value = data.draw(st.sampled_from(READER_VALUES))
    if path == ("mesh",) and isinstance(value, str):
        value = None  # a string "mesh" names a mesh file
    doc = replaced(docs[name], path, value)
    try:
        mesh, U = oracle_field_from_json(doc)
    except Exception as ex:
        with pytest.raises(type(ex)) as raised:
            ah.field_from_json(doc)
        assert (type(raised.value), str(raised.value)) == (type(ex), str(ex))
        return
    field = ah.field_from_json(doc)
    got = field.mesh
    assert (got.genus, got.vertex_count, got.edges, got.faces, got.basepoint) == mesh[:4] + mesh[5:]
    assert got.face_areas.tobytes() == mesh[4].tobytes() and field.U.tobytes() == U.tobytes()
