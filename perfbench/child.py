"""One benchmark child process; perfbench/run.py starts these.

    child.py field PATH                        write the exact flux-1 torus field verify-torus reads
    child.py setup WORKLOAD SEED [FIELD]       only the workload's set-up: import, mesh, field
    child.py cli [CLI ARGS...]                 the `areaholonomy` command, as `python -m areaholonomy.cli`
    child.py classes SEED                      the group-classes workload
    child.py traced WORKLOAD SEED SPANS [CLI ARGS...]
                                               the workload in this process, with spans recorded

The package is imported from PYTHONPATH, which run.py points at the
checkout's src/.  `classes` prints one JSON line: {"checks", "failed",
"notes"}.  `traced` runs the CLI (or the classes workload) exactly as the
untraced child would, then writes its spans to SPANS.  With PERFBENCH_PACE
set to a path, a child samples its core's speed (pace.py) and writes the
samples there when it exits.
"""

import time

T_START = time.perf_counter()  # end of interpreter start-up; run.py reads the same monotonic clock

import os

import pace

if os.environ.get("PERFBENCH_PACE"):
    pace.start(os.environ["PERFBENCH_PACE"])

import json
import math
import sys

import workloads as wl

WORD_T0 = 0.25


def _import_package(with_cli: bool):
    import areaholonomy

    if with_cli:
        import areaholonomy.cli  # noqa: F401
    return areaholonomy


def _flux_field(ah, mesh, n: int):
    """The CLI's sector representative: weights (FLUX, 0, ..., 0)."""
    import numpy as np

    weights = [wl.FLUX] + [0] * (n - 1)
    if mesh.genus == 0:
        rep = ah.sphere_rep(weights)
    else:
        eye = ah.Unitary(np.eye(n))
        lam = ah.SkewHermitian(2j * np.pi * np.diag(np.array(weights, dtype=np.float64)))
        rep = ah.YangMillsRep(1, n, [eye], [eye], lam)
    return ah.build_ym_field_from_rep(mesh, rep)


def write_field(path: str) -> None:
    ah = _import_package(False)
    field = _flux_field(ah, ah.build_torus_mesh(wl.VERIFY_GRID), 1)
    with open(path, "w") as handle:
        json.dump(ah.field_to_json(field), handle, sort_keys=True)


def setup(workload: str, seed: int, field_path: str) -> None:
    """What a workload's child does before its measured work starts."""
    if workload == wl.GROUP_CLASSES:
        ah = _import_package(False)
        ah.build_torus_mesh(wl.CLASSES_TORUS_GRID)
        ah.build_sphere_mesh(wl.CLASSES_SPHERE_SUBDIVISION)
        return
    ah = _import_package(True)
    if workload == wl.VERIFY_TORUS:
        with open(field_path) as handle:
            ah.field_from_json(json.load(handle), base_dir=os.path.dirname(os.path.abspath(field_path)))
        return
    import numpy as np

    spec, n = wl.SOLVES[workload]
    kind, _, size = spec.partition(":")
    mesh = ah.build_torus_mesh(int(size)) if kind == "torus" else ah.build_sphere_mesh(int(size))
    ah.perturb_field(_flux_field(ah, mesh, n), np.random.default_rng(seed), 0.3)


def _random_reduced_word(rng, genus: int, length: int) -> list[int]:
    letters: list[int] = []
    while len(letters) < length:
        letter = int(rng.integers(1, 2 * genus + 1)) * (1 if rng.integers(2) else -1)
        if not letters or letters[-1] != -letter:
            letters.append(letter)
    return letters


def relator_word(ah, rng, genus: int, length: int) -> tuple[list[int], int]:
    """A word of at least `length` letters that is trivial in the surface
    group: pieces u R^a u^-1 with random u and nonzero a.  Returns the
    letters and k, the sum of the a; the word must normalize to (empty, t + k)."""
    relator = list(ah.relator_letters(genus))
    inverse = [-l for l in reversed(relator)]
    letters: list[int] = []
    k = 0
    while len(letters) < length:
        u = _random_reduced_word(rng, genus, int(rng.integers(10, 120)))
        a = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        letters += u + (relator if a > 0 else inverse) * abs(a) + [-l for l in reversed(u)]
        k += a
    return letters, k


def group_classes(seed: int) -> dict:
    """loop_class homomorphism checks on torus and sphere, then relator counts."""
    import numpy as np

    ah = _import_package(False)
    rng = np.random.default_rng(seed)
    torus = ah.build_torus_mesh(wl.CLASSES_TORUS_GRID)
    sphere = ah.build_sphere_mesh(wl.CLASSES_SPHERE_SUBDIVISION)
    checks = 0
    notes: list[str] = []

    def check(label, run):
        nonlocal checks
        checks += 1
        try:
            ok = run()
        except Exception as ex:  # a crashing check is a failed check; keep checking
            ok = False
            label = f"{label}: {type(ex).__name__}: {ex}"
        if not ok:
            notes.append(label)

    def homomorphism(mesh, l1, l2):
        c1, c2 = ah.loop_class(mesh, l1), ah.loop_class(mesh, l2)
        c12 = ah.loop_class(mesh, ah.loop_concat(l1, l2))
        return ah.word_problem(c12, ah.gamma_mul(c1, c2))

    for i in range(wl.TORUS_CHECKS):
        w1, w2 = (tuple(int(v) for v in rng.integers(-1, 2, size=2)) for _ in range(2))
        l1 = ah.random_loop(torus, rng, wl.TORUS_LOOP_STEPS, windings=w1)
        l2 = ah.random_loop(torus, rng, wl.TORUS_LOOP_STEPS, windings=w2)
        check(f"torus pair {i} windings {w1} {w2}", lambda: homomorphism(torus, l1, l2))
    for i in range(wl.SPHERE_CHECKS):
        l1 = ah.random_loop(sphere, rng, wl.SPHERE_LOOP_STEPS)
        l2 = ah.random_loop(sphere, rng, wl.SPHERE_LOOP_STEPS)
        check(f"sphere pair {i}", lambda: homomorphism(sphere, l1, l2))
    for genus, length in wl.WORDS:
        letters, k = relator_word(ah, rng, genus, length)

        def relator_count():
            el = ah.GammaRElement(genus, letters, WORD_T0)
            return el.word.letters == () and math.isclose(el.t, WORD_T0 + k, abs_tol=1e-9)

        check(f"genus {genus} word of {len(letters)} letters with {k} relators", relator_count)
    return {"checks": checks, "failed": len(notes), "notes": notes[:5]}


def traced(workload: str, seed: int, spans_path: str, cli_args: list[str]) -> int:
    import tracer

    trace = tracer.Tracer(f"{workload}-seed{seed}-pid{os.getpid()}")
    start = time.perf_counter()
    ah = _import_package(workload != wl.GROUP_CLASSES)
    trace.add("import.areaholonomy", start, time.perf_counter())
    tracer.install(trace)
    code = 0
    if workload == wl.GROUP_CLASSES:
        print(json.dumps(group_classes(seed)))
    else:
        sys.argv = ["areaholonomy", *cli_args]
        try:
            trace.wrap(f"cli.{cli_args[0]}", ah.cli.main)()
        except SystemExit as ex:
            code = ex.code or 0
    end = time.perf_counter()
    sys.stdout.flush()
    trace.dump(spans_path, t_start=T_START, t_end=end)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "field":
        write_field(argv[1])
    elif mode == "setup":
        setup(argv[1], int(argv[2]), argv[3] if len(argv) > 3 else "")
    elif mode == "cli":
        sys.argv = ["areaholonomy", *argv[1:]]
        _import_package(True).cli.main()
    elif mode == "classes":
        print(json.dumps(group_classes(int(argv[1]))))
    elif mode == "traced":
        return traced(argv[1], int(argv[2]), argv[3], argv[4:])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 64
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
