"""Command-line interface: exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import areaholonomy as ah
from areaholonomy.cli import cli

FOUR_PI_SQ = 4 * np.pi**2


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, args, **kwargs):
    return runner.invoke(cli, args, catch_exceptions=False, **kwargs)


def child_python(*args):
    """Run python in a child process that imports the same package as this
    test run."""
    package_root = str(Path(ah.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def entry_point(*args):
    """Run the real entry point, which owns the exit-code contract."""
    return child_python("-m", "areaholonomy.cli", *args)


def test_import_does_not_load_scipy():
    proc = child_python(
        "-c",
        "import sys, areaholonomy, areaholonomy.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


class TestSolve:
    def test_flux_sector_value(self, runner, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        result = run(runner, ["solve", "--mesh", "torus:8", "--n", "1", "--flux", "1",
                              "--seed", "7", "--out", out, "--report", rep])
        assert result.exit_code == 0
        report = json.loads(open(rep).read())
        assert abs(report["final_action"] - FOUR_PI_SQ) < 1e-6
        assert report["converged"] is True
        assert report["stop_reason"] == "converged"
        assert report["config"]["seed"] == 7
        field = ah.field_from_json(json.loads(open(out).read()))
        assert field.n == 1 and len(field.mesh.edges) == 128

    def test_torus64_abelian_solve(self, runner, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        result = run(runner, ["solve", "--mesh", "torus:64", "--n", "1", "--flux", "1",
                              "--seed", "7", "--tol", "1e-9", "--out", out, "--report", rep])
        assert result.exit_code == 0
        report = json.loads(open(rep).read())
        assert report["converged"] is True
        assert report["final_gradient_norm"] <= 1e-9
        assert abs(report["final_action"] - FOUR_PI_SQ) < 1e-6

    def test_flat_sector(self, runner, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        result = run(runner, ["solve", "--mesh", "torus:4", "--n", "1", "--flux", "0",
                              "--seed", "1", "--out", out, "--report", rep])
        assert result.exit_code == 0
        assert json.loads(open(rep).read())["final_action"] < 1e-10

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

    def test_entry_point_success_path(self, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        proc = entry_point("solve", "--mesh", "torus:4", "--flux", "1", "--seed", "7",
                           "--out", out, "--report", rep)
        assert proc.returncode == 0
        assert abs(json.loads(open(rep).read())["final_action"] - FOUR_PI_SQ) < 1e-6

    def test_non_convergence_exit(self, runner, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        # n = 2: an abelian flow takes the exact Newton step and converges at once
        result = runner.invoke(cli, ["solve", "--mesh", "torus:4", "--n", "2", "--flux", "1",
                                     "--seed", "7", "--max-iter", "2",
                                     "--out", out, "--report", rep])
        assert result.exit_code == 2
        report = json.loads(open(rep).read())
        assert report["converged"] is False
        assert report["stop_reason"] == "iteration_budget"
        assert "NOT converged (iteration_budget)" in result.output

    # sphere:2 n = 2 re-unitarises every trial step (Newton-Schulz)
    @pytest.mark.parametrize("config", [["--mesh", "torus:4"], ["--mesh", "sphere:2", "--n", "2"]],
                             ids=["torus:4", "sphere:2-n2"])
    def test_deterministic_bytes(self, runner, tmp_path, config):
        paths = []
        for tag in ("a", "b"):
            out, rep = str(tmp_path / f"f{tag}.json"), str(tmp_path / f"r{tag}.json")
            assert run(runner, ["solve", *config, "--flux", "1", "--seed", "3",
                                "--out", out, "--report", rep]).exit_code == 0
            paths.append((out, rep))
        assert open(paths[0][0], "rb").read() == open(paths[1][0], "rb").read()
        assert open(paths[0][1], "rb").read() == open(paths[1][1], "rb").read()

    def test_sphere_solve_and_verify(self, runner, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        result = run(runner, ["solve", "--mesh", "sphere:2", "--flux", "1", "--seed", "2",
                              "--eps", "0.1", "--out", out, "--report", rep])
        assert result.exit_code == 0
        assert abs(json.loads(open(rep).read())["final_action"] - FOUR_PI_SQ) < 1e-6
        result = run(runner, ["verify", "--field", out, "--random", "15", "--seed", "4"])
        assert result.exit_code == 0


class TestVerify:
    @pytest.fixture()
    def solved(self, runner, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        assert run(runner, ["solve", "--mesh", "torus:8", "--flux", "1", "--seed", "7",
                            "--out", out, "--report", rep]).exit_code == 0
        return out

    def test_random_pairs_pass(self, runner, solved, tmp_path):
        table = str(tmp_path / "verify.json")
        result = run(runner, ["verify", "--field", solved, "--random", "20",
                              "--seed", "5", "--out", table])
        assert result.exit_code == 0
        data = json.loads(open(table).read())
        assert data["max_residual"] < 1e-6
        assert len(data["rows"]) == 20

    def test_perturbed_fails(self, runner, solved):
        result = runner.invoke(cli, ["verify", "--field", solved, "--random", "10",
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

    def test_nan_residual_fails(self, runner, solved, monkeypatch):
        # the gate passes only residuals below tol, and NaN is not below it
        monkeypatch.setattr(ah.lattice, "_area_residual", lambda *args, **kwargs: float("nan"))
        result = runner.invoke(cli, ["verify", "--field", solved, "--random", "3"])
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

    def test_identical_loops_row_zero(self, runner, solved, tmp_path):
        field = ah.field_from_json(json.loads(open(solved).read()))
        loop = ah.random_loop(field.mesh, np.random.default_rng(1), 10)
        pairs_path = str(tmp_path / "pairs.json")
        with open(pairs_path, "w") as handle:
            json.dump({"pairs": [[ah.loop_to_json(loop), ah.loop_to_json(loop)]]}, handle)
        table = str(tmp_path / "verify.json")
        result = run(runner, ["verify", "--field", solved, "--pairs", pairs_path, "--out", table])
        assert result.exit_code == 0
        assert json.loads(open(table).read())["rows"][0]["residual"] == 0.0

    def test_non_homotopic_pair_flagged(self, runner, solved, tmp_path):
        field = ah.field_from_json(json.loads(open(solved).read()))
        l1 = ah.alpha_loop(field.mesh)
        l2 = ah.MeshLoop(field.mesh.basepoint, ())
        pairs_path = str(tmp_path / "pairs.json")
        with open(pairs_path, "w") as handle:
            json.dump({"pairs": [[ah.loop_to_json(l1), ah.loop_to_json(l2)]]}, handle)
        result = runner.invoke(cli, ["verify", "--field", solved, "--pairs", pairs_path])
        assert result.exit_code == 3
        assert "not null-homotopic" in result.output


class TestClassify:
    def test_row_count(self, runner):
        result = run(runner, ["classify", "--n", "2", "--kmax", "1"])
        assert result.exit_code == 0
        assert "6 Yang-Mills classes" in result.output

    def test_flat_class_only(self, runner):
        result = run(runner, ["classify", "--n", "1", "--kmax", "0"])
        assert "1 Yang-Mills classes" in result.output
        assert "[flat]" in result.output

    def test_json_actions_positive_except_flat(self, runner):
        result = run(runner, ["classify", "--n", "2", "--kmax", "2", "--json"])
        data = json.loads(result.output)
        assert len(data["classes"]) == 15
        for entry in data["classes"]:
            if entry["flat"]:
                assert entry["action"] == 0.0
            else:
                assert entry["action"] > 0.0


class TestWord:
    def test_single_relation(self, runner):
        result = run(runner, ["word", "--genus", "1", "b1 a1"])
        assert "a1 b1, t=-1" in result.output

    def test_relator_check(self, runner):
        result = run(runner, ["word", "--genus", "2", "--check-relator"])
        assert result.exit_code == 0
        assert "t=1" in result.output and "ok" in result.output

    def test_genus0_canonical(self, runner):
        result = run(runner, ["word", "--genus", "0", "--t", "0.7", ""])
        assert "t=-0.3 (mod 1)" in result.output

    def test_parse_error(self, runner):
        result = runner.invoke(cli, ["word", "--genus", "1", "c3"])
        assert result.exit_code == 2  # UsageError under CliRunner

    def test_product(self, runner):
        result = run(runner, ["word", "--genus", "2", "a1 b1", "a1^-1 b1^-1"])
        assert "product:" in result.output

    def test_t_values_pair_positionally(self, runner):
        result = run(runner, ["word", "--genus", "1", "--t", "0.25", "--t", "0.5",
                              "a1", "a1^-1"])
        assert "input 0: a1, t=0.25" in result.output
        assert "input 1: a1^-1, t=0.5" in result.output
        assert "product: (empty), t=0.75" in result.output


class TestPlotData:
    def test_flow_rows(self, runner, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        assert run(runner, ["solve", "--mesh", "torus:4", "--flux", "1", "--seed", "3",
                            "--trace", "--out", out, "--report", rep]).exit_code == 0
        csv_path = str(tmp_path / "flow.csv")
        result = run(runner, ["plot-data", "--input", rep, "--out", csv_path])
        assert result.exit_code == 0
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "iteration,action,gradient_norm"
        report = json.loads(open(rep).read())
        assert len(lines) == 1 + len(report["step_history"])
        assert open(csv_path).read() == run(runner, ["plot-data", "--input", rep]).output

    def test_header_only_without_trace(self, runner, tmp_path):
        out, rep = str(tmp_path / "f.json"), str(tmp_path / "r.json")
        assert run(runner, ["solve", "--mesh", "torus:4", "--flux", "0", "--seed", "3",
                            "--out", out, "--report", rep]).exit_code == 0
        result = run(runner, ["plot-data", "--input", rep])
        assert result.output == "iteration,action,gradient_norm\n"

    def test_shrinking_table(self, runner, tmp_path):
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
        result = run(runner, ["plot-data", "--input", table_path])
        lines = result.output.splitlines()
        assert lines[0] == "area,residual"
        values = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert values == sorted(values, reverse=True)
