"""Command-line interface: solve, verify, classify, word, plot-data.

Exit codes: 0 success, 1 I/O error, 2 non-convergence, 3 verification
failure, 64 usage error.  All outputs embed the seed; JSON files are
written atomically with sorted keys and floats written with repr, which
round-trips, so identical configurations produce byte-identical files.
solve's field file is formed straight from the edge arrays
(lattice._field_text), byte for byte what json.dump with indent=1 wrote.
Output files get the mode open() would give them, 0o666 less the umask.
The verify table's max_residual is null when no pair was measured.
"""

from __future__ import annotations

# lattice and the modules it imports (numpy, liecore, surfaces, reps)
# load first, before click: a solve child that loads them after click and
# the modules below peaks about 0.5 MB higher in resident memory
# (sphere:4, n = 2), from the heap's layout, not from more live data.
# words and _verify load only in the commands that call them.
from . import lattice  # noqa: F401, I001

import contextlib
import json
import math
import os
import sys
import tempfile

import click

EXIT_IO = 1
EXIT_NOT_CONVERGED = 2
EXIT_VERIFY_FAILED = 3
EXIT_USAGE = 64


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
        raise click.ClickException(f"cannot write {path}: {ex}")


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
        raise click.ClickException(f"cannot read {path}: {ex}")
    except json.JSONDecodeError as ex:
        raise click.ClickException(f"{path} is not valid JSON: {ex}")
    try:
        return decode(obj)
    except TypeError as ex:
        raise ValueError(f"{path} is malformed: {ex}") from None
    except OSError as ex:
        raise click.ClickException(f"cannot read {ex.filename or path}: {ex}")


def _parse_mesh(spec: str):
    import areaholonomy as ah

    kind, _, size = spec.partition(":")
    try:
        size_int = int(size)
    except ValueError:
        raise click.UsageError(f"mesh spec {spec!r} is not torus:N or sphere:S")
    if kind == "torus":
        return ah.build_torus_mesh(size_int)
    if kind == "sphere":
        return ah.build_sphere_mesh(size_int)
    raise click.UsageError(f"unknown mesh kind {kind!r} (use torus:N or sphere:S)")


def _flux_rep(mesh, n: int, flux: int):
    import numpy as np

    import areaholonomy as ah

    weights = [flux] + [0] * (n - 1)
    if mesh.genus == 0:
        return ah.sphere_rep(weights)
    lam = ah.SkewHermitian(2j * np.pi * np.diag(np.array(weights, dtype=np.float64)))
    eye = ah.Unitary(np.eye(n))
    return ah.YangMillsRep(1, n, [eye], [eye], lam)


@click.group()
def cli():
    """Yang-Mills critical points on surfaces via area-dependent holonomy."""


@cli.command()
@click.option("--mesh", "mesh_spec", required=True, help="torus:N or sphere:S")
@click.option("--n", default=1, show_default=True, help="structure group dimension")
@click.option("--flux", default=0, show_default=True, help="topological sector weight")
@click.option("--seed", default=0, show_default=True, help="initialization seed")
@click.option("--tol", default=1e-9, show_default=True, help="gradient-norm threshold")
@click.option("--max-iter", default=20000, show_default=True)
@click.option("--eps", default=0.3, show_default=True, help="random start perturbation scale")
@click.option("--out", default="field.json", show_default=True, help="field snapshot path")
@click.option("--report", "report_path", default="report.json", show_default=True)
@click.option("--trace", is_flag=True, help="record the full step history")
def solve(mesh_spec, n, flux, seed, tol, max_iter, eps, out, report_path, trace):
    """Flow a randomly perturbed sector representative to a critical point."""
    import numpy as np

    import areaholonomy as ah
    from areaholonomy.lattice import _field_text

    # chained bounds fail closed: NaN is in no range
    if n < 1 or not 0 < tol < math.inf or not 0 <= eps < math.inf:
        raise click.UsageError("need n >= 1, finite tol > 0, finite eps >= 0")
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
    text = _field_text(field, seed) + "\n"
    _write_atomic(out, lambda handle: handle.write(text))
    _write_json(
        report_path,
        {"config": config, "converged": converged, "seed": seed, **flow_report.to_json()},
    )
    status = "converged" if converged else f"NOT converged ({flow_report.stop_reason})"
    click.echo(
        f"{status}: action={flow_report.final_action:.12g} "
        f"gradient_norm={flow_report.final_gradient_norm:.3g} "
        f"iterations={flow_report.iterations}"
    )
    if not converged:
        sys.exit(EXIT_NOT_CONVERGED)


@cli.command()
@click.option("--field", "field_path", required=True, type=click.Path(), help="field snapshot")
@click.option("--pairs", "pairs_path", default=None, type=click.Path(), help="loop-pair JSON file")
@click.option("--random", "random_pairs", default=None, type=int, help="draw this many random homotopic pairs")
@click.option("--perturb", default=0.0, show_default=True, help="perturb the field before verifying")
@click.option("--seed", default=0, show_default=True)
@click.option("--tol", default=1e-6, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="emit the residual table as JSON")
@click.option("--out", default=None, type=click.Path(), help="also write the table to this path")
def verify(field_path, pairs_path, random_pairs, perturb, seed, tol, as_json, out):
    """Check that holonomy depends only on homotopy class and enclosed area.

    The generator Lambda is the curvature density in the basepoint frame.
    """
    import numpy as np

    import areaholonomy as ah
    from areaholonomy._verify import verify_pairs
    from areaholonomy.surfaces import required_keys

    if (pairs_path is None) == (random_pairs is None):
        raise click.UsageError("choose exactly one of --pairs FILE or --random K")
    if random_pairs is not None and random_pairs < 1:
        raise click.UsageError("--random K needs K >= 1")
    if not 0 < tol < math.inf or not 0 <= perturb < math.inf:
        raise click.UsageError("need finite tol > 0, finite perturb >= 0")
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
        click.echo(json.dumps(table, sort_keys=True))
    else:
        for r in rows:
            if "residual" in r:
                click.echo(f"pair {r['pair']:3d}: delta_area={r['delta_area']:+.6f} residual={r['residual']:.3e}")
            else:
                click.echo(f"pair {r['pair']:3d}: {r['error']}")
        click.echo(f"max residual: {max_residual:.3e} (tol {tol:g})")
    # fail closed: a NaN residual is not below tol
    if flagged or not max_residual < tol:
        sys.exit(EXIT_VERIFY_FAILED)


@cli.command()
@click.option("--n", required=True, type=int, help="structure group dimension")
@click.option("--kmax", required=True, type=int, help="weight bound")
@click.option("--json", "as_json", is_flag=True)
def classify(n, kmax, as_json):
    """Enumerate the isolated genus-0 classes as weight vectors."""
    import areaholonomy as ah

    if n < 1 or kmax < 0:
        raise click.UsageError("need n >= 1 and kmax >= 0")
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
        click.echo(json.dumps({"n": n, "kmax": kmax, "classes": entries}, sort_keys=True))
        return
    click.echo(f"{len(entries)} Yang-Mills classes on the sphere (n={n}, kmax={kmax}):")
    for e in entries:
        flat = "  [flat]" if e["flat"] else ""
        click.echo(f"  k={tuple(e['weights'])!s:<16} action={e['action']:.6f}{flat}  {e['geodesic']}")


@cli.command()
@click.option("--genus", required=True, type=int)
@click.option("--t", "t_values", multiple=True, type=float, help="area coordinate per word (default 0)")
@click.option("--check-relator", is_flag=True, help="verify the relator reduces to (empty, 1)")
@click.argument("words", nargs=-1)
def word(genus, t_values, check_relator, words):
    """Normalize words in the extended surface group and multiply them."""
    import areaholonomy as ah

    if genus < 0:
        raise click.UsageError("genus must be nonnegative")
    if len(t_values) > len(words):
        raise click.UsageError(f"{len(t_values)} --t value(s) for {len(words)} word(s): at most one per word")
    if not all(math.isfinite(t) for t in t_values):
        raise click.UsageError("--t must be finite")

    def render(el):
        if el.genus == 0:
            return f"t={el.t:g} (mod 1)"
        word_str = str(el.word) or "(empty)"
        return f"{word_str}, t={el.t:g}"

    if check_relator:
        rel = ah.GammaRElement(genus, ah.relator_letters(genus), 0.0)
        # the central generator J = (empty, 1); at genus 0 t lives in R/Z
        ok = ah.word_problem(rel, ah.GammaRElement(genus, (), 1.0))
        click.echo(f"relator normalizes to ({str(rel.word) or 'empty'}, t={rel.t:g}): {'ok' if ok else 'FAILED'}")
        if not ok:
            raise click.ClickException("relator did not normalize to (empty, 1)")
    elements = []
    for i, text in enumerate(words):
        t = t_values[i] if i < len(t_values) else 0.0
        try:
            el = ah.GammaRElement(genus, text, t)
        except ValueError as ex:
            raise click.UsageError(str(ex))
        elements.append(el)
        click.echo(f"input {i}: {render(el)}")
    if elements:
        product = elements[0]
        for el in elements[1:]:
            product = ah.gamma_mul(product, el)
        click.echo(f"product: {render(product)}")


@cli.command("plot-data")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--out", default=None, type=click.Path(), help="CSV path (default: stdout)")
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
        click.echo(text, nl=False)
    else:
        _write_atomic(out, lambda handle: handle.write(text))


def main():
    try:
        cli(standalone_mode=False)
    except click.UsageError as ex:
        ex.show()
        sys.exit(EXIT_USAGE)
    except click.ClickException as ex:
        ex.show()
        sys.exit(EXIT_IO)
    except click.exceptions.Abort:
        sys.exit(130)
    except (ValueError, ArithmeticError) as ex:
        # ValueError: invalid input data (bad mesh/field/word files, domain
        # violations); ArithmeticError: BranchCut, a plaquette on the log
        # branch cut (flux too large for the mesh; refine it or lower the flux)
        click.echo(f"error: {ex}", err=True)
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    main()
