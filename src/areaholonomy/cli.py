"""Command-line interface: solve, verify, classify, word, plot-data.

Exit codes: 0 success, 1 I/O error, 2 non-convergence, 3 verification
failure, 64 usage error, 130 interrupted.  All outputs embed the seed; JSON
files are written atomically with sorted keys and floats written with repr,
which round-trips, so identical configurations produce byte-identical files.
solve's field file is streamed straight from the edge arrays in bounded
pieces (fields._field_pieces), byte for byte what json.dump with indent=1
wrote.
Output files get the mode open() would give them, 0o666 less the umask.
The verify table's max_residual is null when no pair was measured.
Arguments are parsed with the standard library's argparse, so numpy is the
package's only runtime dependency.
"""

from __future__ import annotations

# fields and the modules it imports (numpy, liecore, surfaces) load
# first, before the modules below.  With this order the children of the
# benchmark's CLI workloads peak at a median 40.86 MB of resident memory
# on a torus:32 n = 1 solve, 40.17 MB on a sphere:4 n = 2 solve and
# 40.73 MB on a torus:32 verify (BENCH_31.json, 2-vCPU host); importing
# fields after the standard library raised the torus solve and lowered
# the other two, by 0.1-0.2 MB.  lattice and reps load in solve only, and
# words and _verify only in the commands that call them.
from . import fields  # noqa: F401, I001

import argparse
import contextlib
import json
import math
import os
import re
import sys
import tempfile

EXIT_IO = 1
EXIT_NOT_CONVERGED = 2
EXIT_VERIFY_FAILED = 3
EXIT_USAGE = 64


class UsageError(Exception):
    """Bad arguments or input: exit 64 after the command's usage."""


class CommandError(Exception):
    """A file that cannot be read or written, or a failed check: exit 1."""


def _write_atomic(path: str, write) -> None:
    """Call write(handle) on a temp file in the target directory, give it
    the mode open() would (0o666 less the umask), then atomically rename
    it to path.  On any failure the temp file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                write(handle)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as ex:
        raise CommandError(f"cannot write {path}: {ex}")


def _write_json(path: str, obj) -> None:
    def write(handle):
        json.dump(obj, handle, sort_keys=True, indent=1)
        handle.write("\n")

    _write_atomic(path, write)


def _read_json(path: str, decode):
    """decode(obj) for the JSON value in path.  A value of the wrong JSON
    type (a number where a list belongs) makes the decoders raise TypeError,
    which is reported as invalid input naming the file.  A file the decoder
    reads in turn (a field's mesh reference) that cannot be read is an I/O
    error like path itself."""
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except OSError as ex:
        raise CommandError(f"cannot read {path}: {ex}")
    except json.JSONDecodeError as ex:
        raise CommandError(f"{path} is not valid JSON: {ex}")
    try:
        return decode(obj)
    except TypeError as ex:
        raise ValueError(f"{path} is malformed: {ex}") from None
    except OSError as ex:
        raise CommandError(f"cannot read {ex.filename or path}: {ex}")


def _parse_mesh(spec: str):
    import areaholonomy as ah

    kind, _, size = spec.partition(":")
    try:
        size_int = int(size)
    except ValueError:
        raise UsageError(f"mesh spec {spec!r} is not torus:N or sphere:S")
    if kind == "torus":
        return ah.build_torus_mesh(size_int)
    if kind == "sphere":
        return ah.build_sphere_mesh(size_int)
    raise UsageError(f"unknown mesh kind {kind!r} (use torus:N or sphere:S)")


def _flux_rep(mesh, n: int, flux: int):
    import numpy as np

    import areaholonomy as ah

    weights = [flux] + [0] * (n - 1)
    if mesh.genus == 0:
        return ah.sphere_rep(weights)
    lam = ah.SkewHermitian(2j * np.pi * np.diag(np.array(weights, dtype=np.float64)))
    eye = ah.Unitary(np.eye(n))
    return ah.YangMillsRep(1, n, [eye], [eye], lam)


def solve(mesh_spec, n, flux, seed, tol, max_iter, eps, out, report_path, trace):
    """Flow a randomly perturbed sector representative to a critical point."""
    import numpy as np

    import areaholonomy as ah
    from areaholonomy.fields import _field_pieces

    # chained bounds fail closed: NaN is in no range
    if n < 1 or not 0 < tol < math.inf or not 0 <= eps < math.inf:
        raise UsageError("need n >= 1, finite tol > 0, finite eps >= 0")
    mesh = _parse_mesh(mesh_spec)
    rng = np.random.default_rng(seed)
    start = ah.build_ym_field_from_rep(mesh, _flux_rep(mesh, n, flux))
    if eps > 0:
        start = ah.perturb_field(start, rng, eps)
    config = {
        "command": "solve",
        "mesh": mesh_spec,
        "n": n,
        "flux": flux,
        "seed": seed,
        "tol": tol,
        "max_iter": max_iter,
        "eps": eps,
    }
    converged = True
    try:
        field, flow_report = ah.gradient_flow(start, tol=tol, max_iter=max_iter, record_history=trace)
    except ah.NotConvergedError as ex:
        converged = False
        field, flow_report = ex.field, ex.report
    _write_atomic(out, lambda handle: handle.writelines(_field_pieces(field, seed)))
    _write_json(
        report_path,
        {"config": config, "converged": converged, "seed": seed, **flow_report.to_json()},
    )
    status = "converged" if converged else f"NOT converged ({flow_report.stop_reason})"
    print(
        f"{status}: action={flow_report.final_action:.12g} "
        f"gradient_norm={flow_report.final_gradient_norm:.3g} "
        f"iterations={flow_report.iterations}"
    )
    if not converged:
        sys.exit(EXIT_NOT_CONVERGED)


def verify(field_path, pairs_path, random_pairs, perturb, seed, tol, as_json, out):
    """Check that holonomy depends only on homotopy class and enclosed area.

    The generator Lambda is the curvature density in the basepoint frame.
    """
    import numpy as np

    import areaholonomy as ah
    from areaholonomy._verify import verify_pairs
    from areaholonomy.surfaces import required_keys

    if (pairs_path is None) == (random_pairs is None):
        raise UsageError("choose exactly one of --pairs FILE or --random K")
    if random_pairs is not None and random_pairs < 1:
        raise UsageError("--random K needs K >= 1")
    if not 0 < tol < math.inf or not 0 <= perturb < math.inf:
        raise UsageError("need finite tol > 0, finite perturb >= 0")
    base_dir = os.path.dirname(os.path.abspath(field_path))
    field = _read_json(field_path, lambda obj: ah.field_from_json(obj, base_dir=base_dir))
    rng = np.random.default_rng(seed)
    if perturb > 0:
        field = ah.perturb_field(field, rng, perturb)
    if pairs_path is not None:

        def decode_pairs(obj):
            (raw_pairs,) = required_keys(obj, "pairs file", "pairs")
            if not isinstance(raw_pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in raw_pairs
            ):
                raise ValueError("pairs file: 'pairs' must be a list of [loop, loop] pairs")
            if not raw_pairs:
                raise ValueError("pairs file: 'pairs' is empty")
            return [(ah.loop_from_json(a), ah.loop_from_json(b)) for a, b in raw_pairs]

        pairs = _read_json(pairs_path, decode_pairs)
    else:
        pairs = [
            ah.random_homotopic_pair(field.mesh, rng, n_steps=12)
            for _ in range(random_pairs)
        ]
    rows = []
    for idx, row in enumerate(verify_pairs(field, pairs)):
        if isinstance(row, ah.NotNullHomotopicError):
            rows.append({"pair": idx, "error": f"not null-homotopic: windings {row.windings}"})
        else:
            delta, residual = row
            rows.append({"pair": idx, "delta_area": delta, "residual": residual})
    residuals = [r["residual"] for r in rows if "residual" in r]
    flagged = len(rows) - len(residuals)
    max_residual = max(residuals, default=math.inf)
    table = {
        "seed": seed,
        "tol": tol,
        "rows": rows,
        # null, not the non-JSON Infinity, when no pair was measured
        "max_residual": max_residual if residuals else None,
        "flagged": flagged,
    }
    if out:
        _write_json(out, table)
    if as_json:
        print(json.dumps(table, sort_keys=True))
    else:
        for r in rows:
            if "residual" in r:
                print(f"pair {r['pair']:3d}: delta_area={r['delta_area']:+.6f} residual={r['residual']:.3e}")
            else:
                print(f"pair {r['pair']:3d}: {r['error']}")
        print(f"max residual: {max_residual:.3e} (tol {tol:g})")
    # fail closed: a NaN residual is not below tol
    if flagged or not max_residual < tol:
        sys.exit(EXIT_VERIFY_FAILED)


def classify(n, kmax, as_json):
    """Enumerate the isolated genus-0 classes as weight vectors."""
    import areaholonomy as ah

    if n < 1 or kmax < 0:
        raise UsageError("need n >= 1 and kmax >= 0")
    classes = ah.enumerate_sphere_classes(n, kmax)
    entries = []
    for wv in classes:
        action = ah.ym_action_value(ah.sphere_rep(wv))
        entries.append(
            {
                "weights": list(wv.k),
                "action": action,
                "flat": all(k == 0 for k in wv.k),
                "geodesic": "diag(" + ", ".join(f"exp(2*pi*i*{k}*t)" for k in wv.k) + ")",
            }
        )
    if as_json:
        print(json.dumps({"n": n, "kmax": kmax, "classes": entries}, sort_keys=True))
        return
    print(f"{len(entries)} Yang-Mills classes on the sphere (n={n}, kmax={kmax}):")
    for e in entries:
        flat = "  [flat]" if e["flat"] else ""
        print(f"  k={tuple(e['weights'])!s:<16} action={e['action']:.6f}{flat}  {e['geodesic']}")


def word(genus, t_values, check_relator, words):
    """Normalize words in the extended surface group and multiply them."""
    import areaholonomy as ah

    if genus < 0:
        raise UsageError("genus must be nonnegative")
    if len(t_values) > len(words):
        raise UsageError(f"{len(t_values)} --t value(s) for {len(words)} word(s): at most one per word")
    if not all(math.isfinite(t) for t in t_values):
        raise UsageError("--t must be finite")

    def render(el):
        if el.genus == 0:
            return f"t={el.t:g} (mod 1)"
        word_str = str(el.word) or "(empty)"
        return f"{word_str}, t={el.t:g}"

    if check_relator:
        rel = ah.GammaRElement(genus, ah.relator_letters(genus), 0.0)
        # the central generator J = (empty, 1); at genus 0 t lives in R/Z
        ok = ah.word_problem(rel, ah.GammaRElement(genus, (), 1.0))
        print(f"relator normalizes to ({str(rel.word) or 'empty'}, t={rel.t:g}): {'ok' if ok else 'FAILED'}")
        if not ok:
            raise CommandError("relator did not normalize to (empty, 1)")
    elements = []
    for i, text in enumerate(words):
        t = t_values[i] if i < len(t_values) else 0.0
        try:
            el = ah.GammaRElement(genus, text, t)
        except ValueError as ex:
            raise UsageError(str(ex))
        elements.append(el)
        print(f"input {i}: {render(el)}")
    if elements:
        product = elements[0]
        for el in elements[1:]:
            product = ah.gamma_mul(product, el)
        print(f"product: {render(product)}")


def plot_data(input_path, out):
    """Convert a flow report or shrinking-loop table to CSV."""
    from areaholonomy.surfaces import json_float, json_int, required_keys

    def decode(obj):
        if not isinstance(obj, dict):
            raise TypeError("expected a JSON object")
        if "step_history" in obj or "final_action" in obj:
            what, rows = "step_history", obj.get("step_history") or []
            columns = (("iteration", json_int), ("action", json_float), ("gradient_norm", json_float))
        elif "rows" in obj and isinstance(obj["rows"], list) and all(
            isinstance(r, list) or (isinstance(r, dict) and "area" in r) for r in obj["rows"]
        ):
            what = "shrinking-loop"
            rows = [
                required_keys(r, "shrinking-loop row", "area", "residual") if isinstance(r, dict) else r
                for r in obj["rows"]
            ]
            columns = (("area", json_float), ("residual", json_float))
        else:
            raise ValueError(f"{input_path} is neither a flow report nor a shrinking-loop table")
        names = [name for name, _ in columns]
        # a value of the wrong JSON type raises TypeError, as in every decoder
        if not isinstance(rows, list):
            raise TypeError(f"{what} must be a list of [{', '.join(names)}] rows")
        lines = [",".join(names)]
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(columns):
                error = ValueError if isinstance(row, list) else TypeError
                raise error(f"{what} row {i} must be [{', '.join(names)}], got {row!r}")
            values = [read(value, f"{what} row {i}: {name}") for value, (name, read) in zip(row, columns)]
            lines.append(",".join(str(v) if isinstance(v, int) else f"{v:.17g}" for v in values))
        return lines

    text = "\n".join(_read_json(input_path, decode)) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, lambda handle: handle.write(text))


class _Formatter(argparse.HelpFormatter):
    """click's help layout: 'Usage:', and each option's default or [required]."""

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)

    def _get_help_string(self, action):
        if action.required or action.nargs == 0 or action.default in (None, []):
            return action.help + " [required]" * action.required
        return action.help + " [default: %(default)s]"


class _Parser(argparse.ArgumentParser):
    """Takes no abbreviated option and any number after an option as its
    value, as click did; a usage error exits 64."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, formatter_class=_Formatter, **kwargs)
        # argparse reads -1 and -.5 as values but -inf and -1e-3 as options
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        sys.stderr.write(f"{self.format_usage()}Try '{self.prog} --help' for help.\n\nError: {message}\n")
        sys.exit(EXIT_USAGE)


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only non-negative seeds."""
    with contextlib.suppress(ValueError):
        if int(text) >= 0:
            return int(text)
    raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")


def _parser() -> _Parser:
    parser = _Parser(prog="areaholonomy", description="Yang-Mills critical points on surfaces via area-dependent holonomy.")
    parser.set_defaults(run=None, parser=parser)
    commands = parser.add_subparsers(title="commands", metavar="COMMAND")

    def command(run, name=None):
        doc = run.__doc__ or ""
        sub = commands.add_parser(name or run.__name__, help=doc.partition("\n")[0], description=doc)
        sub.set_defaults(run=run, parser=sub)
        return sub.add_argument

    option = command(solve)
    option("--mesh", dest="mesh_spec", required=True, help="torus:N or sphere:S")
    option("--n", type=int, default=1, help="structure group dimension")
    option("--flux", type=int, default=0, help="topological sector weight")
    option("--seed", type=_seed, default=0, help="initialization seed")
    option("--tol", type=float, default=1e-9, help="gradient-norm threshold")
    option("--max-iter", type=int, default=20000, help="iteration budget")
    option("--eps", type=float, default=0.3, help="random start perturbation scale")
    option("--out", default="field.json", help="field snapshot path")
    option("--report", dest="report_path", default="report.json", help="flow report path")
    option("--trace", action="store_true", help="record the full step history")

    option = command(verify)
    option("--field", dest="field_path", required=True, help="field snapshot")
    option("--pairs", dest="pairs_path", help="loop-pair JSON file")
    option("--random", dest="random_pairs", type=int, help="draw this many random homotopic pairs")
    option("--perturb", type=float, default=0.0, help="perturb the field before verifying")
    option("--seed", type=_seed, default=0, help="seed of --random and --perturb")
    option("--tol", type=float, default=1e-6, help="residual threshold")
    option("--json", dest="as_json", action="store_true", help="emit the residual table as JSON")
    option("--out", help="also write the table to this path")

    option = command(classify)
    option("--n", type=int, required=True, help="structure group dimension")
    option("--kmax", type=int, required=True, help="weight bound")
    option("--json", dest="as_json", action="store_true", help="emit the classes as JSON")

    option = command(word)
    option("--genus", type=int, required=True, help="surface genus")
    option("--t", dest="t_values", action="append", type=float, default=[], help="area coordinate per word (default 0)")
    option("--check-relator", action="store_true", help="verify the relator reduces to (empty, 1)")
    option("words", nargs="*", default=[], metavar="WORDS", help="words to normalize and multiply, in order")

    option = command(plot_data, "plot-data")
    option("--input", dest="input_path", required=True, help="flow report or shrinking-loop table")
    option("--out", help="CSV path (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Run the command in argv (default sys.argv[1:]); exit with its code."""
    try:
        try:
            args, rest = _parser().parse_known_args(argv)
            kwargs = vars(args)
            run, parser = kwargs.pop("run"), kwargs.pop("parser")
            # click let WORDS and options interleave; argparse takes a
            # positional's values once, so words after an option land in rest
            if rest and run is word and not any(r.startswith("-") for r in rest):
                kwargs["words"] += rest
            elif rest:
                parser.error(f"unrecognized arguments: {' '.join(rest)}")
            if run is None:
                parser.print_help(sys.stderr)
                sys.exit(EXIT_USAGE)
            run(**kwargs)
        finally:
            sys.stdout.flush()
    except UsageError as ex:
        parser.error(str(ex))
    except CommandError as ex:
        print(f"Error: {ex}", file=sys.stderr)
        sys.exit(EXIT_IO)
    except BrokenPipeError:
        # nothing reads stdout any more: the flush at exit writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_IO)
    except KeyboardInterrupt:
        sys.exit(130)
    except (ValueError, ArithmeticError) as ex:
        # ValueError: invalid input data (bad mesh/field/word files, domain
        # violations); ArithmeticError: BranchCut, a plaquette on the log
        # branch cut (flux too large for the mesh; refine it or lower the flux)
        print(f"error: {ex}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    main()
