"""Hook partitions, integral weights and the bijection between them.

Partitions are stored as tuples of positive parts, weakly decreasing, with
trailing zeros stripped; equality is structural so they can be hashed and
used as graph vertices.  Boxes are 1-indexed (row, column) pairs so that
the content of a box is simply ``col - row``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

Partition = tuple  # weakly decreasing tuple of positive ints
Weight = tuple  # integer vector of length n + m


class CombinatoricsError(ValueError):
    """Invalid partition, weight or parameter data."""


class NotHookError(CombinatoricsError):
    """Partition does not fit in the (n, m)-hook."""


@dataclass(frozen=True)
class HookProfile:
    """The pair (n, m): n even basis directions, m odd ones."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise CombinatoricsError(f"need n >= 1 and m >= 1, got ({self.n}, {self.m})")

    @property
    def rank(self) -> int:
        return self.n + self.m


class Box(NamedTuple):
    row: int
    col: int


def content(b: Box) -> int:
    """Content col - row of a box."""
    return b.col - b.row


def normalize_partition(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize a sequence of parts."""
    seq = [int(x) for x in parts]
    while seq and seq[-1] == 0:
        seq.pop()
    if any(x < 0 for x in seq):
        raise CombinatoricsError(f"negative part in {seq}")
    if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
        raise CombinatoricsError(f"parts not weakly decreasing: {seq}")
    return tuple(seq)


def partition_size(p: Partition) -> int:
    return sum(p)


def boxes(p: Partition) -> list[Box]:
    """All boxes of the diagram, row by row."""
    return [Box(r + 1, c + 1) for r, width in enumerate(p) for c in range(width)]


def transpose(p: Partition) -> Partition:
    if not p:
        return ()
    cols = [0] * p[0]
    for width in p:
        for c in range(width):
            cols[c] += 1
    return tuple(cols)


def contains(outer: Partition, inner: Partition) -> bool:
    """Row-wise containment of diagrams."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def rectangle(a: int, p: int) -> Partition:
    """The rectangle with p rows of a boxes."""
    if a < 0 or p < 0:
        raise CombinatoricsError("rectangle sides must be nonnegative")
    return (a,) * p if a > 0 else ()


def is_hook(p: Partition, hp: HookProfile) -> bool:
    """True iff row n + 1 (zero if absent) has at most m boxes."""
    row = p[hp.n] if len(p) > hp.n else 0
    return row <= hp.m


def hook_to_weight(p: Partition, hp: HookProfile) -> Weight:
    """Transpose the rows below n and paste them under the first n rows.

    The resulting integer vector of length n + m is the highest weight of
    the irreducible module attached to the hook diagram.  Rejects
    non-hook input: the map is only defined on the hook set.
    """
    if not is_hook(p, hp):
        raise NotHookError(f"{p} does not fit the ({hp.n}, {hp.m})-hook")
    even = list(p[: hp.n]) + [0] * max(0, hp.n - len(p))
    odd_t = transpose(p[hp.n :])
    coords = even + list(odd_t) + [0] * (hp.m - len(odd_t))
    return tuple(coords)


def box_sets(p: Partition, row_bound: int, col_bound: int) -> tuple[list[Box], list[Box]]:
    """Boxes strictly below ``row_bound`` rows and strictly beyond ``col_bound`` columns."""
    below = [b for b in boxes(p) if b.row > row_bound]
    beyond = [b for b in boxes(p) if b.col > col_bound]
    return below, beyond


def box_sum_identity(lam: Partition, a: int, p: int, b: int, q: int) -> tuple[int, int]:
    """Both sides of the two-rectangle box-sum identity.

    Left side sums 2c(box) - (a - p + b - q) over boxes in columns a + 1
    and beyond; right side sums the same quantity over boxes in rows
    p + 1 and below, plus q*b*(a + p).  The two agree for every partition
    occurring in the decomposition of the two rectangles.
    """
    shift = a - p + b - q
    below, beyond = box_sets(lam, p, a)
    lhs = sum(2 * content(x) - shift for x in beyond)
    rhs = sum(2 * content(x) - shift for x in below) + q * b * (a + p)
    return lhs, rhs


def addable_hook_positions(p: Partition, hp: HookProfile) -> list[tuple[Partition, Box]]:
    """One-box extensions that stay partitions and stay inside the hook.

    Results are sorted lexicographically by the extended partition.
    """
    if not is_hook(p, hp):
        raise NotHookError(f"{p} does not fit the ({hp.n}, {hp.m})-hook")
    out = []
    rows = len(p)
    for r in range(rows + 1):
        width = p[r] if r < rows else 0
        above = p[r - 1] if r >= 1 else None
        if above is not None and width + 1 > above:
            continue
        cand = list(p) + [0] * (r + 1 - rows)
        cand[r] += 1
        cand_p = normalize_partition(cand)
        if is_hook(cand_p, hp):
            out.append((cand_p, Box(r + 1, width + 1)))
    out.sort(key=lambda t: t[0])
    return out


def check_rectangle_params(a: int, p: int, b: int, q: int, hp: HookProfile, strict: bool = True) -> None:
    """Validate the two-rectangle parameters.

    In strict mode enforces a, b <= m together with a >= p - n and
    b >= q - n.  In non-strict mode only requires both rectangles to be
    hook diagrams (p <= n or a <= m, q <= n or b <= m), which is the
    condition the rest of the construction actually needs.
    """
    if min(a, p, b, q) < 1:
        raise CombinatoricsError("rectangle parameters must be positive")
    if strict:
        if a > hp.m or b > hp.m:
            raise CombinatoricsError(f"strict mode needs a, b <= m = {hp.m}, got a = {a}, b = {b}")
        if a < p - hp.n or b < q - hp.n:
            raise CombinatoricsError("strict mode needs a >= p - n and b >= q - n")
    else:
        for side, rows in ((a, p), (b, q)):
            if not is_hook(rectangle(side, rows), hp):
                raise NotHookError(
                    f"rectangle ({side}^{rows}) is not a ({hp.n}, {hp.m})-hook diagram"
                )


def parse_partition(text: str) -> Partition:
    """Parse '[4,3,1]' or '4,3,1' (empty string means the empty partition)."""
    t = text.strip()
    if t.startswith("[") and t.endswith("]"):
        t = t[1:-1]
    if not t:
        return ()
    try:
        parts = [int(x) for x in t.split(",")]
    except ValueError as exc:
        raise CombinatoricsError(f"cannot parse partition from {text!r}") from exc
    return normalize_partition(parts)


def format_partition(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"
