"""Weight-side inverses and closed forms, kept as test oracles.

The package maps hook partitions to highest weights (``hook_to_weight``)
and evaluates Casimir pairings directly (``casimir_pairing``); nothing in
it needs the way back or the paper's closed form on rectangle weights.
Both stay here to check those maps: the inverse bijection on polynomial
dominant weights, and ``<u w, u w + 2rho>`` for fundamental-type ``w``.
"""

from superbraid.partitions import (
    CombinatoricsError,
    HookProfile,
    Partition,
    Weight,
    normalize_partition,
    transpose,
)


class NotDominantError(CombinatoricsError):
    """Weight violates the polynomial dominance condition."""


def is_polynomial_dominant(w: Weight, hp: HookProfile) -> bool:
    """Dominance plus the polynomiality condition on an integral weight.

    Requires: first n coordinates weakly decreasing, last m weakly
    decreasing, all nonnegative, and coordinate n at least the number of
    nonzero coordinates among the last m.
    """
    if len(w) != hp.rank:
        raise CombinatoricsError(f"weight length {len(w)} != n + m = {hp.rank}")
    even, odd = w[: hp.n], w[hp.n :]
    if any(x < 0 for x in w):
        return False
    if any(even[i] < even[i + 1] for i in range(len(even) - 1)):
        return False
    if any(odd[i] < odd[i + 1] for i in range(len(odd) - 1)):
        return False
    nonzero_odd = sum(1 for x in odd if x != 0)
    return even[-1] >= nonzero_odd


def weight_to_hook(w: Weight, hp: HookProfile) -> Partition:
    """Inverse of ``hook_to_weight``."""
    if not is_polynomial_dominant(w, hp):
        raise NotDominantError(f"{w} is not a polynomial dominant weight for {hp}")
    even = [x for x in w[: hp.n]]
    odd_rows = transpose(normalize_partition(w[hp.n :]))
    return normalize_partition(tuple(even) + odd_rows)


def rectangle_pairing(u: int, size: int, kind: str, hp: HookProfile) -> int:
    """<u w, u w + 2rho> for w a fundamental-type weight.

    kind 'phi': w = eps_1 + ... + eps_t (t <= n), value u t (-t + n - m + u).
    kind 'psi': w = eps_{n+1} + ... + eps_{n+s} (s <= m), value u s (s - n - m - u).
    """
    n, m = hp.n, hp.m
    if kind == "phi":
        if not 0 <= size <= n:
            raise ValueError(f"phi weight needs t <= n, got t = {size}")
        return u * size * (-size + n - m + u)
    if kind == "psi":
        if not 0 <= size <= m:
            raise ValueError(f"psi weight needs s <= m, got s = {size}")
        return u * size * (size - n - m - u)
    raise ValueError(f"kind must be 'phi' or 'psi', got {kind!r}")
