"""Many loops at once: the steps of K loops laid out flat, and the kernels
over that layout that surfaces and lattice build their loop and face
operations from.

A layout (LoopSteps) is one edge array, one sign array, each step's row
and the per-loop offsets into them.  A step (e, s) has row 2e for s = +1
and 2e + 1 for s = -1 in every per-step table: a mesh's step_ends (where
the step starts and ends), grid_moves (its move on a torus grid), the
surfaces module's fluxes of the area potential and the matrices of
step_table, so the kernels gather a step's data by its row instead of
swapping or negating by its sign.  Loops a caller names are laid out per
call, and every SurfaceMesh lays out its face boundaries once
(mesh.face_steps), so a plaquette is the holonomy of a face's loop.
first_fault checks every loop in one pass, reduced frees them of
retraced steps, lifts walks their lifts to a torus grid's universal
cover with integer prefix sums, and prefixes multiplies the step
matrices of every loop, one step position of all loops at a time, in the
order a loop over the steps would multiply them (schedule).  The kernels
read a mesh's step_ends and counts and a grid's N, and import from the
package only liecore's product kernel.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .liecore import matmul_raw, real_form


def clip_steps(steps) -> tuple[tuple[int, int], ...]:
    """Delete adjacent (edge, s)(edge, -s) pairs until none remain.

    The result is independent of deletion order (free reduction is
    confluent), so a single stack pass suffices.
    """
    out: list[tuple[int, int]] = []
    for e, s in steps:
        if out and out[-1][0] == e and out[-1][1] == -s:
            out.pop()
        else:
            out.append((e, s))
    return tuple(out)


class LoopSteps(NamedTuple):
    """The steps of K loops laid out flat.

    Loop k is based at bases[k] and takes the steps (edges[i], signs[i])
    for starts[k] <= i < starts[k] + lengths[k]; rows[i] is step i's row,
    2 edges[i] + (signs[i] < 0).  The row of an edge beyond the mesh names
    no table row, and only first_fault, which reports it, may read it.
    """

    bases: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    edges: np.ndarray
    signs: np.ndarray
    rows: np.ndarray

    def take(self, loops) -> "LoopSteps":
        """The layout of some of the loops (an index array or a slice),
        sharing the step arrays."""
        return self._replace(bases=self.bases[loops], starts=self.starts[loops], lengths=self.lengths[loops])


def flat_steps(bases: Sequence[int], step_lists: Sequence[tuple[tuple[int, int], ...]]) -> LoopSteps:
    """Lay out the loops (bases[k], step_lists[k]) in order, unchecked.
    Every index must fit intp, as MeshLoop's do."""
    count = len(bases)
    lengths = np.fromiter(map(len, step_lists), np.intp, count=count)
    starts = np.zeros(count, np.intp)
    lengths[:-1].cumsum(out=starts[1:])
    pairs = chain.from_iterable(chain.from_iterable(step_lists))
    edges, signs = np.fromiter(pairs, np.intp, count=2 * int(lengths.sum())).reshape(-1, 2).T
    return LoopSteps(np.fromiter(bases, np.intp, count=count), starts, lengths, edges, signs, step_rows(edges, signs))


def step_rows(edges: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The row of every step (edges[i], signs[i]): 2e, or 2e + 1 for a
    negative sign."""
    return 2 * edges + (signs < 0)


def concat_inverse(steps: LoopSteps) -> LoopSteps:
    """The layout of the loops l1 l2^-1 (surfaces.loop_concat(l1,
    loop_reverse(l2))) from a flat_steps layout of loop pairs l1_0, l2_0,
    l1_1, l2_1, ... with equal bases."""
    # each l2 follows its l1 and is read from its last step back, its
    # signs flipped
    owner = np.repeat(np.arange(len(steps.lengths)), steps.lengths)
    at = np.arange(len(owner))
    backward = owner % 2 == 1
    at[backward] = (2 * steps.starts + steps.lengths - 1)[owner[backward]] - at[backward]
    signs, rows = steps.signs[at], steps.rows[at]
    signs[backward] *= -1
    # a flipped sign is the other row of the same edge
    rows[backward] ^= 1
    lengths = steps.lengths[0::2] + steps.lengths[1::2]
    return LoopSteps(steps.bases[0::2], steps.starts[0::2], lengths, steps.edges[at], signs, rows)


def first_fault(mesh, steps: LoopSteps) -> Optional[tuple[int, str]]:
    """The first malformed loop of a flat_steps layout and its first fault,
    in the words surfaces.validate_loop raises, or None: a base vertex out
    of range, then the first step whose edge is out of range or that does
    not start where the last one ended, then a loop that does not end at
    its base.  Where every step starts and ends is one gather from the
    mesh's step_ends."""
    edges, bases, starts, lengths = steps.edges, steps.bases, steps.starts, steps.lengths
    # a negative index reads as a huge unsigned one
    in_range = edges.view(np.uintp) < len(mesh.edges)
    # out-of-range steps read a clipped row, and are faults whatever they read
    tail, head = mesh.step_ends.take(steps.rows, axis=0, mode="clip").T
    # where each step should start: the last step's end, or its loop's base
    walked = lengths > 0
    ends = starts + lengths
    expected = np.empty_like(head)
    expected[1:] = head[:-1]
    expected[starts[walked]] = bases[walked]
    bad = (~in_range | (tail != expected)).nonzero()[0]
    closing = bases.copy()
    closing[walked] = head[ends[walked] - 1]
    base_out = bases.view(np.uintp) >= mesh.vertex_count
    faulty = base_out | (closing != bases)
    if len(bad):
        # the loop of a flat step comes after every loop that ends before it
        faulty[np.count_nonzero(ends <= bad[0])] = True
    elif not faulty.any():
        return None
    k = int(faulty.argmax())
    if base_out[k]:
        return k, "loop base vertex out of range"
    if len(bad) and bad[0] < ends[k] and in_range[bad[0]]:
        return k, "loop steps are not head-to-tail composable"
    if len(bad) and bad[0] < ends[k]:
        return k, f"edge index {int(edges[bad[0]])} out of range"
    return k, "loop does not return to its base vertex"


def reduced(steps: LoopSteps) -> LoopSteps:
    """The layout with every loop freely reduced as clip_steps reduces it.
    A layout with no adjacent (e, s)(e, -s) pair inside one of its loops
    is reduced already, and those pairs are found without a walk."""
    edges, signs = steps.edges, steps.signs
    # flat steps i and i + 1 cancel (rows 2e and 2e + 1), for i in these,
    # and step i + 1 starts no loop (two of a mesh's faces can share an
    # edge there)
    cancelling = steps.rows[1:] == steps.rows[:-1] ^ 1
    cancelling[steps.starts[(steps.starts > 0) & (steps.starts < len(edges))] - 1] = False
    if np.any(cancelling):
        # and both steps lie in one loop, as a take may leave them not:
        # start <= i < start + length - 1
        size, lasts = len(edges) + 1, steps.starts + np.maximum(steps.lengths - 1, 0)
        cancelling &= np.cumsum(np.bincount(steps.starts, minlength=size) - np.bincount(lasts, minlength=size))[:-2] > 0
    if not np.any(cancelling):
        return steps
    spans = zip(steps.starts.tolist(), steps.lengths.tolist())
    step_lists = [clip_steps(zip(edges[a:a + n].tolist(), signs[a:a + n].tolist())) for a, n in spans]
    return flat_steps(steps.bases.tolist(), step_lists)


@lru_cache(maxsize=8)
def grid_moves(n_grid: int) -> np.ndarray:
    """The moves dx (row 0) and dy (row 1) of every step row on an n_grid x
    n_grid torus grid, whose edges below n_grid^2 point in +x and the
    others in +y (read-only, cached per grid size)."""
    half = 2 * n_grid * n_grid
    moves = np.zeros((2, 2 * half), np.intp)
    moves[0, :half] = moves[1, half:] = np.tile((1, -1), n_grid * n_grid)
    moves.setflags(write=False)
    return moves


def lifts(n_grid: int, steps: LoopSteps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each loop's lift to the universal cover of an n_grid x n_grid torus
    grid: its net displacement (dx, dy) and the discrete Green's cell sum,
    the sum over vertical steps of s * x with x the lift's column counted
    from the base.  For a closed lift that sum is the total winding number
    of all cells around it.  All three come from integer prefix sums over
    the flat steps' moves (grid_moves), so they are exact."""
    starts, ends = steps.starts, steps.starts + steps.lengths
    # every step's move, gathered in place after a leading 0 (numpy
    # buffers a gather into out unless its mode is clip, which leaves the
    # rows of valid loops as they are)
    column, row = np.zeros((2, len(steps.rows) + 1), np.intp)
    for moves, out in zip(grid_moves(n_grid), (column, row)):
        moves.take(steps.rows, out=out[1:], mode="clip")
    # column[i + 1]: the lift's column after flat step i, counted from flat
    # step 0
    column.cumsum(out=column)
    dx, base_column = column[ends] - column[starts], column[starts]
    # a vertical step does not change the column, so its x is
    # column[i + 1] - column[start], and s * x is 0 on a horizontal step;
    # the products s * x overwrite column once row holds the rows
    np.multiply(column, row, out=column)
    row.cumsum(out=row)
    dy = row[ends] - row[starts]
    column.cumsum(out=row)
    cells = row[ends] - row[starts] - base_column * dy
    return dx, dy, cells


class Schedule(NamedTuple):
    """The order prefixes multiplies a layout's loops in, longest first:
    per step j the step table rows of the loops longer than j; row
    offsets[j] + at[k] of its stack is loop k's first j steps' product."""

    at: np.ndarray
    rows: tuple[np.ndarray, ...]
    offsets: np.ndarray


def schedule(steps: LoopSteps) -> Schedule:
    """The Schedule of a layout of valid loops, as laid out.  A layout that
    many calls multiply along (a mesh's faces) is scheduled once."""
    lengths = steps.lengths.tolist()
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    at = np.empty(len(order), np.intp)
    at[order] = np.arange(len(order))
    counts = np.cumsum(np.bincount(steps.lengths)[:0:-1])[::-1].tolist()
    starts = steps.starts[order]
    rows = tuple(steps.rows[starts[:c] + j] for j, c in enumerate(counts))
    return Schedule(at, rows, np.cumsum([0, len(order), *counts], dtype=np.intp))


def prefixes(u: np.ndarray, steps: Schedule) -> np.ndarray:
    """Every partial product of a layout's loops for edge unitaries u
    (E, n, n), K identities and then one per step, as the Schedule numbers
    them.  Each step position is one batched matmul_raw by the loops' step
    matrices (step_table): every product is formed left to right."""
    table, n = step_table(u), u.shape[-1]
    out = np.empty((steps.offsets[-1], n, n), dtype=np.complex128)
    out[: steps.offsets[1]] = np.eye(n)
    for a, b, rows in zip(steps.offsets, steps.offsets[1:], steps.rows):
        out[b : b + len(rows)] = matmul_raw(out[a : a + len(rows)], table[rows])
    return out


def holonomies(u: np.ndarray, steps: LoopSteps) -> np.ndarray:
    """Transports (K, n, n) around the loops of a layout of valid loops for
    edge unitaries u (E, n, n): each loop's last prefix once it is freely
    reduced (reduced), from a stack of one matrix per reduced step."""
    steps = reduced(steps)
    order = schedule(steps)
    return prefixes(u, order)[order.offsets[steps.lengths] + order.at]


def step_table(u: np.ndarray) -> np.ndarray:
    """The matrix of every step row in one table, as matmul_raw multiplies
    by it (real_form): U_e in row 2e for sign +1 and U_e^-1 = U_e* in row
    2e + 1 for sign -1."""
    table = np.stack((u, u.conj().swapaxes(-1, -2)), axis=1).reshape(-1, *u.shape[1:])
    return real_form(table)
