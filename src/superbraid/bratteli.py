"""Leveled diagram graph, path spectra and the restriction checks.

Level -1 holds the left rectangle alone, level 0 the decomposition of the
two rectangles, and each later level the hook one-box extensions of the
previous one.  Paths through the graph index a basis of each multiplicity
space; the polynomial generators act on that basis diagonally by box
contents, which is what :func:`spectral_match` verifies against the
concrete operators.

Irreducibility is read off the same basis.  Once ``z_0..z_d`` have ``k``
distinct one-dimensional joint eigenspaces on a ``k``-dimensional
multiplicity space, everything commuting with them is diagonal in the
joint eigenbasis, and a diagonal ``D`` commutes with ``A`` exactly when
``D_ii = D_jj`` wherever ``A_ij != 0``, because
``[D, A]_ij = (D_ii - D_jj) A_ij``.  So :func:`irreducibility_check`
counts the connected components of the off-diagonal nonzeros of ``x_1``
and ``t_1..t_{d-1}`` in that basis instead of solving for the commutant;
one component means an absolutely irreducible space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .linalg import (
    NotInvariantError,
    Subspace,
    commutant_components,
    restrict_op,
    simultaneous_eigenspaces,
)
from .modules import highest_weight_vectors
from .partitions import (
    Box,
    HookProfile,
    Partition,
    addable_hook_positions,
    box_sets,
    boxes,
    content,
    contains,
    format_partition,
    hook_to_weight,
    partition_size,
    rectangle,
)
from .schur import decompose_two_rectangles
from .superalgebra import casimir_pairing

Path = tuple  # vertices at levels 0..d


class GraphError(ValueError):
    pass


@dataclass
class BratteliGraph:
    a: int
    p: int
    b: int
    q: int
    hp: HookProfile
    d: int
    levels: list  # levels[k] is graph level k - 1, each a lex-sorted vertex list
    edges: list  # edges[k]: (fromIdx, toIdx) pairs from levels[k] to levels[k + 1]

    def level(self, i: int) -> list:
        """Vertices at graph level i, -1 <= i <= d."""
        return self.levels[i + 1]

    def vertex_index(self, i: int, lam: Partition) -> int:
        try:
            return self.level(i).index(tuple(lam))
        except ValueError:
            raise GraphError(f"{lam} is not a vertex at level {i}") from None


def build_graph(
    a: int, p: int, b: int, q: int, hp: HookProfile, d: int, strict: bool = False
) -> BratteliGraph:
    """Assemble the graph for the given rectangle parameters.

    Vertex order inside every level is lexicographic, so identical
    parameters always produce identical serializations.
    """
    if d < 0:
        raise GraphError("d must be nonnegative")
    base = decompose_two_rectangles(a, p, b, q, hp, strict=strict)
    levels = [[rectangle(a, p)], list(base)]
    edges = [[(0, k) for k in range(len(base))]]
    for _ in range(d):
        prev = levels[-1]
        succ = sorted({ext for v in prev for (ext, _) in addable_hook_positions(v, hp)})
        level_edges = []
        index = {v: k for k, v in enumerate(succ)}
        for vi, v in enumerate(prev):
            for ext, _ in addable_hook_positions(v, hp):
                level_edges.append((vi, index[ext]))
        level_edges.sort()
        levels.append(succ)
        edges.append(level_edges)
    return BratteliGraph(a, p, b, q, hp, d, levels, edges)


def paths_to(g: BratteliGraph, lam: Partition) -> list:
    """All directed paths from the root to lam at the top level, lex order."""
    lam = tuple(lam)
    target = g.vertex_index(g.d, lam)
    # walk backwards through the edge lists
    partial = [[target]]
    for level in range(g.d, 0, -1):
        incoming = {}
        for (u, v) in g.edges[level]:
            incoming.setdefault(v, []).append(u)
        partial = [
            [u] + rest for rest in partial for u in incoming.get(rest[0], [])
        ]
    out = [tuple(g.level(k)[idx] for k, idx in enumerate(chain)) for chain in partial]
    out.sort()
    return out


def step_box(prev: Partition, nxt: Partition) -> Box:
    """The single box by which consecutive path vertices differ."""
    diff = set(boxes(nxt)) - set(boxes(prev))
    if len(diff) != 1:
        raise GraphError(f"{prev} -> {nxt} is not a one-box step")
    return diff.pop()


def z_values(path: Path) -> list:
    """Contents of the boxes added along the path, one per tensor step."""
    return [content(step_box(path[i - 1], path[i])) for i in range(1, len(path))]


def z0_value(t0: Partition, a: int, p: int, b: int, q: int) -> int:
    """Boundary eigenvalue q*a*b + sum over rows below p of (2c - (a-p+b-q)).

    The sum runs over the boxes of the level-0 vertex ``t0`` lying in rows
    p + 1 and below.
    """
    below, _ = box_sets(tuple(t0), p, a)
    shift = a - p + b - q
    return q * a * b + sum(2 * content(x) - shift for x in below)


def z0_case_report(t0: Partition, a: int, p: int, b: int, q: int) -> dict:
    """The theorem value next to the two proof-case forms.

    Case form A sums over columns beyond a with constant -b*p*q; case form
    B sums over rows below p with constant a*b*q, which is
    :func:`z0_value` itself.  The forms must agree on every level-0 vertex.
    """
    value = z0_value(t0, a, p, b, q)
    shift = a - p + b - q
    _, beyond = box_sets(tuple(t0), p, a)
    col_form = -b * p * q + sum(2 * content(x) - shift for x in beyond)
    return {
        "vertex": list(t0),
        "value": value,
        "column_form": col_form,
        "row_form": value,
        "agree": value == col_form,
    }


def p0_neighbor_check(g: BratteliGraph) -> list:
    """Content sums over one-box-different pairs at level 0.

    For each unordered pair differing by a single moved box, the two
    distinct-box contents must add up to a - p + b - q.
    """
    target = g.a - g.p + g.b - g.q
    base = g.level(0)
    sets = [set(boxes(lam)) for lam in base]
    records = []
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            lam, mu = base[i], base[j]
            only_lam = sets[i] - sets[j]
            only_mu = sets[j] - sets[i]
            if len(only_lam) != 1 or len(only_mu) != 1:
                continue
            bl, bm = only_lam.pop(), only_mu.pop()
            records.append(
                {
                    "pair": [list(lam), list(mu)],
                    "boxes": [list(bl), list(bm)],
                    "sum": content(bl) + content(bm),
                    "expected": target,
                    "ok": content(bl) + content(bm) == target,
                }
            )
    return records


def transfer_check(
    lam_bar: Partition, mu_bar: Partition, a: int, p: int, b: int, q: int, hp: HookProfile
) -> dict:
    """Casimir difference of two level-0 neighbours, two ways.

    The difference of the Casimir scalars must equal twice the content
    difference of the distinct boxes, and (via the level-0 content-sum
    rule) also 4(c(box of lam) - (a - p + b - q)/2).
    """
    lam_bar, mu_bar = tuple(lam_bar), tuple(mu_bar)
    only_lam = set(boxes(lam_bar)) - set(boxes(mu_bar))
    only_mu = set(boxes(mu_bar)) - set(boxes(lam_bar))
    if len(only_lam) != 1 or len(only_mu) != 1:
        raise GraphError("partitions must differ by exactly one moved box")
    bl, bm = only_lam.pop(), only_mu.pop()
    kappa_diff = casimir_pairing(hook_to_weight(lam_bar, hp), hp) - casimir_pairing(
        hook_to_weight(mu_bar, hp), hp
    )
    content_form = 2 * content(bl) - 2 * content(bm)
    shifted_form = 4 * Fraction(content(bl)) - 2 * (a - p + b - q)
    return {
        "pair": [list(lam_bar), list(mu_bar)],
        "casimir_difference": kappa_diff,
        "content_form": content_form,
        "shifted_form": shifted_form,
        "ok": kappa_diff == content_form == shifted_form,
    }


def s_action_on_paths(g: BratteliGraph, i: int, path: Path) -> Path:
    """Swap the level-i vertex to the unique alternative, if one exists.

    An involution on the path set: index 0 re-chooses the level-0 vertex
    under the same level-1 vertex; higher indices re-route the single
    intermediate vertex between fixed neighbours.
    """
    if not 0 <= i <= g.d - 1:
        raise GraphError(f"index {i} out of range 0..{g.d - 1}")
    nxt = path[i + 1]
    if i == 0:
        candidates = [v for v in g.level(0) if contains(nxt, v) and partition_size(nxt) - partition_size(v) == 1]
    else:
        prev = path[i - 1]
        candidates = [
            v
            for v in g.level(i)
            if contains(v, prev)
            and contains(nxt, v)
            and partition_size(v) == partition_size(prev) + 1
        ]
    others = [v for v in candidates if v != path[i]]
    if not others:
        return path
    if len(others) > 1:
        raise GraphError(f"more than two intermediate choices at index {i}: {candidates}")
    return path[:i] + (others[0],) + path[i + 1 :]


def predicted_tuples(g: BratteliGraph, lam: Partition) -> dict:
    """Map from path to its (z_0, z_1, .., z_d) eigenvalue tuple."""
    out = {}
    for path in paths_to(g, lam):
        out[path] = (
            Fraction(z0_value(path[0], g.a, g.p, g.b, g.q)),
            *[Fraction(c) for c in z_values(path)],
        )
    return out


def _joint_eigenspaces(g: BratteliGraph, images, lam: Partition, joint: dict) -> tuple:
    """``(tuples, mult, spaces, notes)`` for the top vertex ``lam``, counted
    on the first call and kept in ``joint``, which maps each top vertex of
    ``g`` on ``images`` to its entry.

    ``tuples`` are the predicted ``(z_0, z_1..z_d)`` tuples in path order,
    ``mult`` the space of highest weight vectors, and ``spaces`` the joint
    eigenspace of ``z_0..z_d`` for each tuple, in the coordinates of
    ``mult``; ``spaces`` is None when they could not be counted.  ``notes``
    holds each failed precondition of the spectral claim, so it is empty
    exactly when the ``k`` spaces are one-dimensional and their vectors, in
    path order, form a joint eigenbasis.
    """
    lam = tuple(lam)
    if lam in joint:
        return joint[lam]
    tuples = list(predicted_tuples(g, lam).values())
    mult = highest_weight_vectors(images.config, hook_to_weight(lam, g.hp))
    notes = []
    spaces = None
    if len(set(tuples)) != len(tuples):
        notes.append("predicted tuples not distinct")
    if mult.dim != len(tuples):
        notes.append(f"multiplicity {mult.dim} != path count {len(tuples)}")
    else:
        ops = [images.z0] + [images.z[i] for i in range(1, g.d + 1)]
        try:
            spaces = simultaneous_eigenspaces(ops, mult, tuples)
        except NotInvariantError as exc:  # report, do not crash the suite
            notes.append(f"eigenspace count failed: {exc}")
        else:
            if any(space.dim != 1 for space in spaces):
                notes.append("joint eigenspace of dimension != 1")
    joint[lam] = (tuples, mult, spaces, tuple(notes))
    return joint[lam]


def spectral_match(g: BratteliGraph, images, joint: Optional[dict] = None) -> list:
    """Joint spectrum of (z_0, z_1..z_d) on every multiplicity space.

    For each top-level vertex the predicted tuples must be distinct, the
    space of highest weight vectors must have dimension equal to the path
    count ``k``, and every predicted tuple must have a one-dimensional
    joint eigenspace there.  That is a proof of the whole claim: joint
    eigenvectors with distinct tuples are linearly independent, so the
    ``k`` of them form a basis, on which the operators act diagonally,
    commute, and have exactly the predicted joint spectrum.

    ``joint`` keeps each vertex's eigenspaces for later calls on the same
    graph and images, such as :func:`irreducibility_check`; the
    CLI passes its run workspace's (``cli.Workspace``).
    """
    joint = {} if joint is None else joint
    records = []
    for lam in g.level(g.d):
        tuples, mult, spaces, notes = _joint_eigenspaces(g, images, lam, joint)
        record = {
            "partition": list(lam),
            "paths": len(tuples),
            "multiplicity_dim": mult.dim,
            "notes": list(notes),
        }
        if spaces is not None:
            record["eigenspace_dims"] = [space.dim for space in spaces]
        record["ok"] = not notes
        records.append(record)
    return records


def irreducibility_check(g: BratteliGraph, images, lam: Partition, joint: Optional[dict] = None) -> dict:
    """Commutant dimension of the quotient-algebra generators on one space,
    counted as components in the joint ``z``-eigenbasis.

    The generators are ``z_0..z_d``, ``x_1`` and ``t_1..t_{d-1}``.  When
    the spectral claim holds at ``lam`` (see :func:`spectral_match`), the
    ``z``'s have ``k`` one-dimensional joint eigenspaces with distinct
    tuples on the ``k``-dimensional space, and their vectors form a basis.
    Anything commuting with the ``z``'s preserves each of those lines, so
    the commutant is a set of diagonal matrices in that basis, and a
    diagonal ``D`` commutes with ``A`` iff ``D_ii = D_jj`` wherever
    ``A_ij != 0``, since ``[D, A]_ij = (D_ii - D_jj) A_ij``.  The commutant
    dimension is therefore the number of connected components of the graph
    whose edges are the off-diagonal nonzeros of ``x_1`` and the ``t_i`` in
    the eigenbasis (:func:`commutant_components`); this is exact.  One
    component certifies absolute irreducibility, as the dimension of a
    commutant does not change under field extension.  A vertex where the
    spectral claim fails has no such basis and fails with a note saying
    why; there is no other route to a verdict.  ``joint`` is as in
    :func:`spectral_match`.
    """
    _, mult, spaces, notes = _joint_eigenspaces(g, images, lam, {} if joint is None else joint)
    dim = None
    if not notes:
        eigenbasis = Subspace(mult.dim, [space.vectors[0] for space in spaces])
        gens = [images.x[1], *images.t.values()] if images.d else []
        dim = commutant_components([restrict_op(op, mult) for op in gens], eigenbasis)
    return {
        "partition": list(lam),
        "multiplicity_dim": mult.dim,
        "commutant_dim": dim,
        "notes": list(notes),
        "ok": dim == 1,
    }


def graph_as_dict(g: BratteliGraph) -> dict:
    return {
        "schema": 1,
        "params": {"a": g.a, "p": g.p, "b": g.b, "q": g.q, "n": g.hp.n, "m": g.hp.m, "d": g.d},
        "levels": [[list(v) for v in level] for level in g.levels],
        "edges": [[list(e) for e in level_edges] for level_edges in g.edges],
    }


def to_json(g: BratteliGraph) -> str:
    """Byte-stable JSON rendering (sorted keys, fixed separators)."""
    return json.dumps(graph_as_dict(g), sort_keys=True, separators=(",", ":"))


def to_dot(g: BratteliGraph) -> str:
    """DOT rendering with one cluster per level; deterministic bytes."""
    lines = ["digraph bratteli {", "  rankdir=TB;"]
    for li, level in enumerate(g.levels):
        gl = li - 1
        tag = f"m{-gl}" if gl < 0 else str(gl)
        lines.append(f"  subgraph cluster_{tag} {{")
        lines.append(f'    label="level {gl}";')
        for vi, v in enumerate(level):
            lines.append(f'    v_{tag}_{vi} [label="{format_partition(v)}"];')
        lines.append("  }")
    for li, level_edges in enumerate(g.edges):
        gl = li - 1
        tag_from = f"m{-gl}" if gl < 0 else str(gl)
        tag_to = f"m{-(gl + 1)}" if gl + 1 < 0 else str(gl + 1)
        for (u, v) in level_edges:
            lines.append(f"  v_{tag_from}_{u} -> v_{tag_to}_{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
