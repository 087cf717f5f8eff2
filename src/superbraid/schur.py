"""Littlewood-Richardson coefficients and the two-rectangle decomposition.

The lattice-word count on skew tableaux (:func:`lr_coeff`) is the
package's one route to LR coefficients.  The independent route, expanding
an actual product of Schur polynomials by leading-monomial triangularity,
is a test oracle in ``tests/schur_oracle.py``, with the hook Schur
polynomials and the hook-tableau count of module dimensions.
"""

from __future__ import annotations

from typing import Iterator

from .partitions import (
    HookProfile,
    Partition,
    check_rectangle_params,
    contains,
    is_hook,
    normalize_partition,
    partition_size,
    rectangle,
)


class MultiplicityError(RuntimeError):
    """A two-rectangle LR coefficient exceeded 1."""


def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient by the lattice-word rule.

    Counts fillings of nu/lam with content mu, rows weakly increasing,
    columns strictly increasing, whose reverse reading word (right to left,
    top to bottom) is a lattice word.
    """
    lam, mu, nu = normalize_partition(lam), normalize_partition(mu), normalize_partition(nu)
    if partition_size(nu) != partition_size(lam) + partition_size(mu):
        return 0
    if not contains(nu, lam):
        return 0
    ell = len(mu)
    # cells in reverse reading order: rows top to bottom, right to left
    cells = []
    for r, width in enumerate(nu):
        inner = lam[r] if r < len(lam) else 0
        for c in range(width - 1, inner - 1, -1):
            cells.append((r, c))
    filling: dict = {}
    counts = [0] * (ell + 1)
    total = 0

    def backtrack(k: int):
        nonlocal total
        if k == len(cells):
            total += 1
            return
        r, c = cells[k]
        right = filling.get((r, c + 1))
        up = filling.get((r - 1, c))
        for val in range(1, ell + 1):
            if counts[val] >= mu[val - 1]:
                continue
            if val > 1 and counts[val] >= counts[val - 1]:
                continue  # lattice condition on the reading word
            if right is not None and val > right:
                continue
            if up is not None and val <= up:
                continue
            filling[(r, c)] = val
            counts[val] += 1
            backtrack(k + 1)
            counts[val] -= 1
            del filling[(r, c)]

    backtrack(0)
    return total


def partitions_of(total: int, max_part: int = None, max_len: int = None) -> Iterator:
    """All partitions of ``total`` within the given bounds, lex decreasing."""
    cap = total if max_part is None else min(max_part, total)
    rows = total if max_len is None else max_len

    def gen(rem: int, bound: int, length: int, acc: list) -> Iterator:
        if rem == 0:
            yield tuple(acc)
            return
        if length == 0:
            return
        for part in range(min(bound, rem), 0, -1):
            acc.append(part)
            yield from gen(rem - part, part, length - 1, acc)
            acc.pop()

    if total == 0:
        yield ()
        return
    yield from gen(total, cap, rows, [])


def decompose_two_rectangles(
    a: int, p: int, b: int, q: int, hp: HookProfile, strict: bool = False
) -> list:
    """All hook partitions occurring in the product of the two rectangles.

    Asserts the decomposition is multiplicity free; a coefficient above 1
    would contradict the known rectangle product structure and is raised as
    a hard failure rather than reported.  Sorted lexicographically.
    """
    check_rectangle_params(a, p, b, q, hp, strict=strict)
    ra, rb = rectangle(a, p), rectangle(b, q)
    total = partition_size(ra) + partition_size(rb)
    out = []
    for nu in partitions_of(total, max_part=a + b, max_len=p + q):
        if not is_hook(nu, hp):
            continue
        c = lr_coeff(ra, rb, nu)
        if c > 1:
            raise MultiplicityError(f"coefficient of {nu} in ({a}^{p}) * ({b}^{q}) is {c}")
        if c == 1:
            out.append(nu)
    out.sort()
    return out
