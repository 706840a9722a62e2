"""End-to-end and per-layer benchmark of areaholonomy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
This program is one process.  It starts one child at a time, each a fresh
interpreter, and checks every child's output.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The lines
before it give the environment and each metric with its sample count.  A
full record also goes to .perfbench_out/<workload>-seed<N>-trace<T>/.

--trace 0 (tracing off) reports the end-to-end metrics:
  wall_s       median wall time of the workload's child, spawn to exit,
               scaled to the reference core speed (pace.py)
  setup_s      the same for a child that does only the set-up: interpreter
               start, import, building or loading mesh and field; set-up
               and workload children alternate
  peak_rss_mb  median peak resident memory of the workload's child (wait4)
--trace 1 alternates untraced and traced children and reports the
per-layer metrics, derived from the traced children's spans, plus the
import split from `python -X importtime`.

Workloads (see workloads.py for sizes):
  flow-torus-u1   areaholonomy solve --mesh torus:32 --n 1 --flux 1
  flow-sphere-u2  areaholonomy solve --mesh sphere:4 --n 2 --flux 1
  verify-torus    areaholonomy verify --random 200 on the exact flux-1
                  torus:32 field, plus a perturbed negative control
  group-classes   loop_class homomorphism and relator-count checks
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import metadata

import pace
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
PY = sys.executable

IMPORTTIME_REPEATS = 3
MIN_SAMPLES = 3
RUN_DEADLINE_S = 170.0
CHILD_TIMEOUT_S = 90.0
THREAD_VARS = ("AH_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
# Children get one BLAS thread unless the caller says otherwise: the
# matrices are tiny, and a second spinning thread on a shared host only adds
# noise.  The package reads AH_NUM_THREADS at import.
DEFAULT_THREADS = "1"

LAYERS = ("cli", "lattice", "liecore", "surfaces", "words", "reps", "import")


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    spawned: float  # perf_counter at spawn; the clock is shared with children
    stdout: str
    pace: list[float]  # the child's core-speed samples, if it was asked for them


class Run:
    """State of one benchmark run: its work directory, operations and failures."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.work = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace{trace}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
        self.env.setdefault("AH_NUM_THREADS", DEFAULT_THREADS)
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str, count: int = 1) -> bool:
        """Count `count` operations; all of them failed unless ok."""
        self.attempted += count
        if not ok:
            self.failures.extend([what] * count)
        return ok

    def spawn(self, argv: list[str], tag: str, paced: bool = False) -> Child:
        """Start one child, wait for it, and return its wall time and peak RSS."""
        out_path = os.path.join(self.work, f"{tag}.out")
        err_path = os.path.join(self.work, f"{tag}.err")
        pace_path = os.path.join(self.work, f"{tag}.pace")
        env = {**self.env, "PERFBENCH_PACE": pace_path} if paced else self.env
        timeout = min(CHILD_TIMEOUT_S, RUN_DEADLINE_S - (time.perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            # kill without reaping, so the wait4 below still collects the child
            previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted (SIGINT, or SIGTERM via main): end the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as handle:
            stdout = handle.read()
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, spawned, stdout,
                     pace.read(pace_path) if paced else [])

    def time_left(self, budget_end: float, typical: float) -> bool:
        """Whether one more child of `typical` length should start: it would
        end less than half a child past the budget, and well before the deadline."""
        now = time.perf_counter()
        return now + typical / 2 <= budget_end and now + 2 * typical < self.started + RUN_DEADLINE_S


# ---------------------------------------------------------------------------
# workload children and their correctness checks


def cli_argv(args: list[str]) -> list[str]:
    return [PY, CHILD, "cli", *args]


def _read_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _read_trace(path: str):
    """Spans file of a traced child: the spans, then a line of timestamps."""
    try:
        with open(path) as handle:
            body, header = handle.read().splitlines()
        return {**json.loads(body), **json.loads(header)}
    except (OSError, ValueError):
        return None


def _read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


class Workload:
    """How to prepare, run and check one workload's children."""

    def __init__(self, run: Run):
        self.run = run
        self.field = os.path.join(run.work, "field.json")
        self.reference: dict[str, bytes] = {}
        self.iterations: list[int] = []

    def prepare(self) -> None:
        if self.run.workload == wl.VERIFY_TORUS:
            child = self.run.spawn([PY, CHILD, "field", self.field], "prepare-field")
            self.run.op(child.code == 0, f"writing the input field exited {child.code}")

    def setup_argv(self) -> list[str]:
        return [PY, CHILD, "setup", self.run.workload, str(self.run.seed), self.field]

    def argv(self, tag: str, traced_spans: str | None = None) -> list[str]:
        w = self.run.workload
        if w == wl.GROUP_CLASSES:
            args = [str(self.run.seed)]
        else:
            args = wl.cli_args(w, self.run.seed, self.run.work, tag, field=self.field)
        if traced_spans is not None:
            return [PY, CHILD, "traced", w, str(self.run.seed), traced_spans, *args]
        if w == wl.GROUP_CLASSES:
            return [PY, CHILD, "classes", *args]
        return cli_argv(args)

    def check(self, child: Child, tag: str) -> bool:
        w = self.run.workload
        if w in wl.SOLVES:
            return self._check_solve(child, tag)
        if w == wl.VERIFY_TORUS:
            return self._check_verify(child)
        return self._check_classes(child)

    def _check_solve(self, child: Child, tag: str) -> bool:
        run = self.run
        report_path = os.path.join(run.work, f"report-{tag}.json")
        field_path = os.path.join(run.work, f"field-{tag}.json")
        report = _read_json(report_path)
        if child.code != 0 or not isinstance(report, dict):
            return run.op(False, f"solve {tag} exited {child.code}")
        problems = []
        if report.get("converged") is not True:
            problems.append("not converged")
        if not report.get("final_gradient_norm", math.inf) <= wl.SOLVE_TOL:
            problems.append(f"gradient norm {report.get('final_gradient_norm')}")
        if not abs(report.get("final_action", math.inf) - wl.SECTOR_MINIMUM) <= wl.ACTION_TOL:
            problems.append(f"action {report.get('final_action')} is not 4 pi^2")
        self.iterations.append(int(report.get("iterations", -1)))
        for kind, path in (("field", field_path), ("report", report_path)):
            data = _read_bytes(path)
            first = self.reference.setdefault(kind, data)
            if data != first:
                problems.append(f"{kind} file differs from the first run of this seed")
        if len(set(self.iterations)) > 1:
            problems.append(f"iterations differ between runs of one seed: {sorted(set(self.iterations))}")
        if len(self.iterations) > 1:
            os.remove(field_path)
        return run.op(not problems, f"solve {tag}: {'; '.join(problems)}")

    def _verify_table(self, child: Child):
        lines = child.stdout.strip().splitlines()
        try:
            table = json.loads(lines[-1]) if lines else None
        except ValueError:
            table = None
        return table if isinstance(table, dict) and isinstance(table.get("rows"), list) else None

    def _check_verify(self, child: Child) -> bool:
        """One CLI call plus one operation per verified pair."""
        table = self._verify_table(child)
        run = self.run
        if table is None:
            run.op(False, f"verify exited {child.code} without a table", 1 + wl.VERIFY_PAIRS)
            return False
        rows = table["rows"]
        bad = [r for r in rows if not r.get("residual", math.inf) < wl.VERIFY_TOL]
        missing = wl.VERIFY_PAIRS - len(rows)
        for r in bad:
            run.op(False, f"verify pair {r.get('pair')}: {r}")
        run.op(True, "", len(rows) - len(bad))
        if missing > 0:
            run.op(False, "verify returned too few pairs", missing)
        ok = child.code == 0 and table.get("max_residual", math.inf) < wl.VERIFY_TOL and not bad and missing <= 0
        return run.op(ok, f"verify exited {child.code}, max_residual {table.get('max_residual')}")

    def control(self) -> None:
        """Negative control: the perturbed field must fail verification loudly."""
        if self.run.workload != wl.VERIFY_TORUS:
            return
        args = wl.cli_args(wl.VERIFY_TORUS, self.run.seed, self.run.work, "control",
                           field=self.field, perturb=wl.CONTROL_PERTURB)
        child = self.run.spawn(cli_argv(args), "control")
        table = self._verify_table(child)
        residual = table.get("max_residual", 0.0) if table else 0.0
        self.run.op(child.code == 3 and residual > wl.CONTROL_MIN_RESIDUAL,
                    f"perturbed control exited {child.code} with max_residual {residual}")

    def _check_classes(self, child: Child) -> bool:
        run = self.run
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            checks, failed = int(result["checks"]), int(result["failed"])
        except (IndexError, ValueError, KeyError, TypeError):
            checks = failed = 0
        if child.code != 0 or checks == 0:
            expected = wl.TORUS_CHECKS + wl.SPHERE_CHECKS + len(wl.WORDS)
            run.op(False, f"group-classes exited {child.code} after {checks} checks", expected)
            return False
        run.op(True, "", checks - failed)
        run.op(False, f"class check failed; first failures: {result.get('notes')}", failed)
        return failed == 0


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _scipy_and_package_import(stderr: str) -> tuple[float, float]:
    """Cumulative import seconds of areaholonomy and of scipy, from -X importtime.

    Entries are printed after their children, indented by depth; an entry's
    parent is the next line with a smaller indent.  scipy's time is the sum
    of the outermost scipy.* entries.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    package = scipy = 0.0
    for i, (depth, name, cumulative) in enumerate(entries):
        parent = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
        if name == "areaholonomy":
            package = cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy += cumulative
    return package, scipy


def span_metrics(trace: dict, spawned: float, wall: float) -> dict[str, float]:
    names = trace["names"]
    cols = trace["columns"]
    spans = list(zip(cols["name"], cols["start"], cols["end"], cols["parent"], cols["count"], cols["raised"]))
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    top_level = 0.0
    for i, (name_id, start, end, parent, count, _) in enumerate(spans):
        name = names[name_id]
        own = (end - start) - child_time[i]
        total[name] += end - start
        self_time[name] += own
        layer_self[name.split(".")[0]] += own
        calls[name] += 1
        counts[name] += count
        if parent < 0:
            top_level += end - start

    # line search, read from the spans directly under each gradient_flow span
    flows = {i for i, s in enumerate(spans) if names[s[0]] == "lattice.gradient_flow"}
    under_flow = Counter()
    branchcut = 0
    for name_id, _, _, parent, _, raised in spans:
        if parent in flows:
            under_flow[names[name_id]] += 1
            if raised and names[name_id] == "lattice.logs":
                branchcut += 1
    iterations = counts["lattice.gradient_flow"]
    trials = under_flow["liecore.expm_raw"]
    # each flow evaluates one gradient up front and one per accepted step;
    # any other gradient was computed for the gradient-norm gate and discarded
    gate_rejections = under_flow["lattice.gradient_from_logs"] - len(flows) - iterations if flows else 0

    startup = trace["t_start"] - spawned
    dump = trace["t_dumped"] - trace["t_end"]
    metrics = {
        "liecore.logm_raw_calls": calls["liecore.logm_raw"],
        "liecore.logm_raw_s": total["liecore.logm_raw"],
        "liecore.log_matrices": calls["liecore.logm_raw"] + counts["liecore.plaquette_angles"],
        "liecore.expm_raw_calls": calls["liecore.expm_raw"],
        "liecore.expm_raw_s": total["liecore.expm_raw"],
        "lattice.plaquettes_s": total["lattice.plaquettes"],
        "lattice.logs_calls": calls["lattice.logs"],
        "lattice.logs_self_s": self_time["lattice.logs"],
        "lattice.gradient_calls": calls["lattice.gradient_from_logs"],
        "lattice.gradient_s": total["lattice.gradient_from_logs"],
        "lattice.unitarize_s": total["lattice.unitarize"],
        "lattice.s_per_iteration": total["lattice.gradient_flow"] / iterations if iterations else 0.0,
        "lattice.linesearch_trials": trials,
        "lattice.accept_ratio": iterations / trials if trials else 0.0,
        "lattice.gnorm_gate_rejections": gate_rejections,
        "lattice.branchcut_rejections": branchcut,
        "surfaces.enclosed_area_calls": calls["surfaces.enclosed_area"],
        "surfaces.enclosed_area_steps": counts["surfaces.enclosed_area"],
        "surfaces.enclosed_area_s": total["surfaces.enclosed_area"],
        "surfaces.random_pair_s": total["surfaces.random_homotopic_pair"],
        "surfaces.mesh_build_s": total["surfaces.build_torus_mesh"] + total["surfaces.build_sphere_mesh"],
        "surfaces.mesh_from_json_s": total["surfaces.mesh_from_json"],
        "lattice.verify_area_property_s": total["lattice.verify_area_property"],
        "lattice.loop_holonomy_s": total["lattice.loop_holonomy"],
        "lattice.field_from_json_s": total["lattice.field_from_json"],
        "lattice.field_to_json_s": total["lattice.field_to_json"],
        "lattice.build_ym_field_s": total["lattice.build_ym_field_from_rep"],
        "reps.validate_rep_s": total["reps.validate_rep"],
        "words.loop_class_calls": calls["words.loop_class"],
        "words.loop_class_self_s": self_time["words.loop_class"],
        "words.normalize_s": total["words.normalize"],
        "words.normalize_letters": counts["words.normalize"],
        "words.word_problem_s": total["words.word_problem"],
        "flow_iterations": iterations,
        "trace.wall_s": wall,
        "trace.startup_s": startup,
        "trace.spans_s": top_level,
        "trace.dump_s": dump,
        "trace.unattributed_s": wall - startup - top_level - dump,
        "trace.span_count": len(spans),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics


# ---------------------------------------------------------------------------


def environment(seed: int, child_env: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        **versions,
        "seed": seed,
        **{var: child_env.get(var) for var in THREAD_VARS},
    }


def summary(name: str, unit: str, values: list[float]) -> str:
    if not values:
        return f"{name}: no samples"
    return (f"{name} = {statistics.median(values):.6g} {unit} "
            f"(median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})")


def measure_end_to_end(run: Run, work: Workload, seconds: float) -> dict[str, list[float]]:
    work.control()
    setups: list[Child] = []
    passed, failed = [], []
    budget_end = time.perf_counter() + seconds
    i = 0
    # set-up and workload children alternate, so that both see the host alike
    while i < MIN_SAMPLES or (
        passed and setups and run.time_left(
            budget_end, statistics.median(c.wall_s for c in passed) + statistics.median(c.wall_s for c in setups))
    ):
        child = run.spawn(work.setup_argv(), f"setup-{i}", paced=True)
        if run.op(child.code == 0 and bool(child.pace), f"set-up child {i} exited {child.code}"):
            setups.append(child)
        tag = f"run-{i}"
        child = run.spawn(work.argv(tag), tag, paced=True)
        ok = work.check(child, tag)
        if ok and not child.pace:
            ok = run.op(False, f"{tag} wrote no speed samples")
        (passed if ok else failed).append(child)
        i += 1
    # failed children are timed only when none passed; the run is then incorrect anyway
    timed = passed or failed
    return {
        "wall_s": [pace.scaled(c.wall_s, c.pace) if c.pace else c.wall_s for c in timed],
        "setup_s": [pace.scaled(c.wall_s, c.pace) for c in setups],
        "peak_rss_mb": [c.rss_mb for c in timed],
        "unscaled_wall_s": [c.wall_s for c in timed],
        "unscaled_setup_s": [c.wall_s for c in setups],
        "slowdown": [pace.slowdown(c.pace) for c in timed + setups if c.pace],
    }


def measure_layers(run: Run, work: Workload, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = defaultdict(list)
    for i in range(IMPORTTIME_REPEATS):
        child = run.spawn([PY, "-X", "importtime", "-c", "import areaholonomy"], f"importtime-{i}")
        with open(os.path.join(run.work, f"importtime-{i}.err")) as handle:
            package, scipy = _scipy_and_package_import(handle.read())
        if run.op(child.code == 0 and package > 0, f"import child {i} exited {child.code}"):
            samples["import.areaholonomy_s"].append(package)
            samples["import.scipy_s"].append(scipy)
    walls, traced_walls = [], []
    budget_end = time.perf_counter() + seconds
    i = 0
    while i == 0 or run.time_left(budget_end, statistics.median(walls) + statistics.median(traced_walls)):
        tag = f"run-{i}"
        child = run.spawn(work.argv(tag), tag)
        if work.check(child, tag):
            walls.append(child.wall_s)
        tag = f"traced-{i}"
        spans_path = os.path.join(run.work, f"spans-{i}.json")
        child = run.spawn(work.argv(tag, traced_spans=spans_path), tag)
        trace = _read_trace(spans_path)
        if work.check(child, tag) and trace is not None:
            traced_walls.append(child.wall_s)
            for name, value in span_metrics(trace, child.spawned, child.wall_s).items():
                samples[name].append(value)
        i += 1
        if not walls or not traced_walls:
            break
    samples["trace.untraced_wall_s"] = walls
    if walls and traced_walls:
        samples["trace.overhead_s"] = [statistics.median(traced_walls) - statistics.median(walls)]
    return samples


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "areaholonomy", "__init__.py")):
        print(f"error: no areaholonomy package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.trace)
    work = Workload(run)
    env = environment(args.seed, run.env)
    print("env " + json.dumps(env, sort_keys=True))
    work.prepare()
    if args.trace:
        samples = measure_layers(run, work, args.seconds)
    else:
        samples = measure_end_to_end(run, work, args.seconds)
    samples["failed_ratio"] = [len(run.failures) / max(run.attempted, 1)]

    # the metrics BENCHMARK.json declares for this mode, each exactly once
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, values in samples.items():
        print(summary(name, units.get(name, ""), values))
    metrics = {
        m["name"]: {"value": statistics.median(samples[m["name"]]) if samples.get(m["name"]) else 0.0,
                    "unit": m["unit"]}
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}")
    result = {
        "correct": not run.failures,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": metrics,
    }
    with open(os.path.join(run.work, "result.json"), "w") as handle:
        json.dump({**result, "env": env, "samples": samples, "failures": run.failures,
                   "workload": args.workload, "seconds": args.seconds, "trace": args.trace}, handle, indent=1)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
