"""Many loops at once: the steps of K loops laid out flat, and the kernels
over that layout that surfaces and lattice build their loop and face
operations from.

A layout (LoopSteps) is one edge array, one sign array and the per-loop
offsets into them.  Loops a caller names are laid out per call, and every
SurfaceMesh lays out its face boundaries once (mesh.face_steps), so a
plaquette is the holonomy of a face's loop.  first_fault checks every loop
in one pass, reduced frees them of retraced steps, lifts walks their lifts
to a torus grid's universal cover with integer prefix sums, and prefixes
multiplies the step matrices of every loop (step_table), one step position
of all loops at a time, in the order a loop over the steps would multiply
them (schedule).  The kernels read a mesh's tails, heads and counts and a
grid's N, and import from the package only liecore's product kernel.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
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
    for starts[k] <= i < starts[k] + lengths[k].
    """

    bases: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    edges: np.ndarray
    signs: np.ndarray

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
    np.cumsum(lengths[:-1], out=starts[1:])
    total = int(np.sum(lengths))
    edges = np.fromiter(map(itemgetter(0), chain.from_iterable(step_lists)), np.intp, count=total)
    signs = np.fromiter(map(itemgetter(1), chain.from_iterable(step_lists)), np.intp, count=total)
    return LoopSteps(np.fromiter(bases, np.intp, count=count), starts, lengths, edges, signs)


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
    signs = steps.signs[at]
    signs[backward] *= -1
    lengths = steps.lengths[0::2] + steps.lengths[1::2]
    return LoopSteps(steps.bases[0::2], steps.starts[0::2], lengths, steps.edges[at], signs)


def first_fault(mesh, steps: LoopSteps) -> Optional[tuple[int, str]]:
    """The first malformed loop of a flat_steps layout and its first fault,
    in the words surfaces.validate_loop raises, or None: a base vertex out
    of range, then the first step whose edge is out of range or that does
    not start where the last one ended, then a loop that does not end at
    its base."""
    edges, signs, bases = steps.edges, steps.signs, steps.bases
    in_range = (edges >= 0) & (edges < len(mesh.edges))
    # where each step starts and ends; out-of-range steps read a clipped
    # edge, and are faults whatever they read
    tail = np.take(mesh.tails, edges, mode="clip")
    head = np.take(mesh.heads, edges, mode="clip")
    backward = signs < 0
    tail[backward], head[backward] = head[backward], tail[backward]
    # where each step should start: the last step's end, or its loop's base
    walked = steps.lengths > 0
    ends = steps.starts + steps.lengths
    expected = np.concatenate((head[:1], head[:-1]))
    expected[steps.starts[walked]] = bases[walked]
    bad = np.flatnonzero(~in_range | (tail != expected))
    closing = bases.copy()
    closing[walked] = head[ends[walked] - 1]
    base_out = (bases < 0) | (bases >= mesh.vertex_count)
    faulty = base_out | (closing != bases)
    if len(bad):
        # the loop of a flat step comes after every loop that ends before it
        faulty[np.count_nonzero(ends <= bad[0])] = True
    if not np.any(faulty):
        return None
    k = int(np.flatnonzero(faulty)[0])
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
    # flat steps i and i + 1 cancel, for i in these, and step i + 1 starts
    # no loop (two of a mesh's faces can share an edge there)
    cancelling = (edges[1:] == edges[:-1]) & (signs[1:] != signs[:-1])
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


def lifts(n_grid: int, steps: LoopSteps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each loop's lift to the universal cover of an n_grid x n_grid torus
    grid: its net displacement (dx, dy) and the discrete Green's cell sum,
    the sum over vertical steps of s * x with x the lift's column counted
    from the base.  For a closed lift that sum is the total winding number
    of all cells around it.  All three come from integer prefix sums over
    the flat steps, so they are exact."""
    starts, ends = steps.starts, steps.starts + steps.lengths
    vertical = steps.edges >= n_grid * n_grid
    # column[i + 1]: the column after flat step i, counted from flat step 0
    column = np.zeros(len(vertical) + 1, np.intp)
    column[1:] = steps.signs
    column[1:][vertical] = 0
    np.cumsum(column[1:], out=column[1:])
    dx, base_column = column[ends] - column[starts], column[starts]
    prefix = np.zeros_like(column)
    prefix[1:] = steps.signs
    prefix[1:][~vertical] = 0
    # a vertical step does not change the column, so its x is
    # column[i + 1] - column[start]; the products s * x overwrite column
    np.multiply(column[1:], prefix[1:], out=column[1:])
    np.cumsum(prefix[1:], out=prefix[1:])
    dy = prefix[ends] - prefix[starts]
    np.cumsum(column[1:], out=prefix[1:])
    cells = prefix[ends] - prefix[starts] - base_column * dy
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
    rows, starts = 2 * steps.edges + (steps.signs < 0), steps.starts[order]
    rows = tuple(rows[starts[:c] + j] for j, c in enumerate(counts))
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
    """The matrix of every step in one table, as matmul_raw multiplies by
    it (real_form): U_e in row 2e for sign +1 and U_e^-1 = U_e* in row
    2e + 1 for sign -1."""
    table = np.stack((u, u.conj().swapaxes(-1, -2)), axis=1).reshape(-1, *u.shape[1:])
    return real_form(table)
