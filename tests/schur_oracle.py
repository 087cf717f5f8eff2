"""Schur and hook Schur polynomials, kept as test oracles.

The package gets its Littlewood-Richardson coefficients from one route,
the lattice-word count of ``superbraid.schur.lr_coeff``.  Here is the
independent one: expand an actual product of Schur polynomials by
leading-monomial triangularity.  Hook Schur polynomials follow the
standard row/column rule for (n, m)-semistandard tableaux: unprimed
letters weakly increase along rows and strictly down columns, primed
letters strictly increase along rows and weakly down columns.  They give
the hook-tableau count of module dimensions and weights, and the product
identity of hook Schur polynomials with ordinary LR coefficients.
"""

from __future__ import annotations

from typing import Iterator

from superbraid.partitions import (
    CombinatoricsError,
    HookProfile,
    Partition,
    is_hook,
    normalize_partition,
    partition_size,
)
from superbraid.schur import lr_coeff, partitions_of

SymPoly = dict  # {exponent tuple: int coefficient}, zero coefficients absent


def poly_mul(f: SymPoly, g: SymPoly) -> SymPoly:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            nv = out.get(key, 0) + ca * cb
            if nv:
                out[key] = nv
            else:
                del out[key]
    return out


def poly_sub_scaled(f: SymPoly, g: SymPoly, c: int) -> SymPoly:
    out = dict(f)
    for e, v in g.items():
        nv = out.get(e, 0) - c * v
        if nv:
            out[e] = nv
        else:
            out.pop(e, None)
    return out


def ssyt_weights(shape: Partition, nvars: int) -> Iterator:
    """Weights of semistandard tableaux with entries 1..nvars.

    Rows weakly increase, columns strictly increase; yielded as exponent
    vectors of length nvars, one per tableau.
    """
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    filling: dict = {}
    weight = [0] * nvars

    def backtrack(k: int) -> Iterator:
        if k == len(cells):
            yield tuple(weight)
            return
        r, c = cells[k]
        lo = 1
        if c > 0:
            lo = max(lo, filling[(r, c - 1)])
        if r > 0:
            lo = max(lo, filling[(r - 1, c)] + 1)
        for val in range(lo, nvars + 1):
            filling[(r, c)] = val
            weight[val - 1] += 1
            yield from backtrack(k + 1)
            weight[val - 1] -= 1
            del filling[(r, c)]

    yield from backtrack(0)


def schur_poly(shape: Partition, nvars: int) -> SymPoly:
    """Schur polynomial as a sum over semistandard tableaux."""
    out: dict = {}
    for w in ssyt_weights(shape, nvars):
        out[w] = out.get(w, 0) + 1
    return out


def hook_tableau_weights(shape: Partition, hp: HookProfile) -> Iterator:
    """Weights of (n, m)-semistandard hook tableaux of the given shape.

    Letters are x_1 < .. < x_n < y_1 < .. < y_m.  The x part of a filling
    must form a sub-Young-diagram (weakly increasing rows, strictly
    increasing columns); the y letters fill the rest, strictly increasing
    along rows and weakly increasing down columns.  Empty iterator exactly
    when the shape is not a hook.
    """
    n, m = hp.n, hp.m
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    filling: dict = {}
    weight = [0] * (n + m)

    def entry_ok(r: int, c: int, val: int) -> bool:
        # letters 1..n are the x block; n+1..n+m the y block
        left = filling.get((r, c - 1))
        up = filling.get((r - 1, c))
        if left is not None:
            if val < left:
                return False
            if left > n and val == left:
                return False  # y letters strict along rows
        if up is not None:
            if val < up:
                return False
            if up <= n and val == up:
                return False  # x letters strict down columns
        return True

    def backtrack(k: int) -> Iterator:
        if k == len(cells):
            yield tuple(weight)
            return
        r, c = cells[k]
        for val in range(1, n + m + 1):
            if entry_ok(r, c, val):
                filling[(r, c)] = val
                weight[val - 1] += 1
                yield from backtrack(k + 1)
                weight[val - 1] -= 1
                del filling[(r, c)]

    yield from backtrack(0)


def hook_schur_poly(shape: Partition, hp: HookProfile) -> SymPoly:
    """Hook Schur polynomial in x_1..x_n, y_1..y_m (exponents concatenated)."""
    out: dict = {}
    for w in hook_tableau_weights(shape, hp):
        out[w] = out.get(w, 0) + 1
    return out


def hook_dimension(shape: Partition, hp: HookProfile) -> int:
    """Number of (n, m)-semistandard tableaux: the hook Schur value at all ones."""
    return sum(1 for _ in hook_tableau_weights(shape, hp))


def lr_product_oracle(lam: Partition, mu: Partition, nvars: int) -> dict:
    """Expand s_lam * s_mu in the Schur basis by leading-monomial triangularity.

    Independent of :func:`lr_coeff`; requires nvars at least the number of
    parts of any partition of |lam| + |mu| that should be seen.
    """
    product = poly_mul(schur_poly(lam, nvars), schur_poly(mu, nvars))
    out: dict = {}
    guard = 0
    while product:
        guard += 1
        if guard > 100000:
            raise RuntimeError("Schur expansion failed to terminate")
        lead = max(product)
        coeff = product[lead]
        shape = normalize_partition(lead)
        if tuple(lead) != shape + (0,) * (nvars - len(shape)):
            raise CombinatoricsError(f"leading exponent {lead} is not a partition; nvars too small?")
        out[shape] = coeff
        product = poly_sub_scaled(product, schur_poly(shape, nvars), coeff)
    return out


def remmel_check(lam: Partition, mu: Partition, hp: HookProfile) -> bool:
    """Product of hook Schur polynomials expands with ordinary LR coefficients.

    Verifies s'_lam * s'_mu = sum over hook nu of c^nu_{lam,mu} s'_nu as an
    exact polynomial identity (non-hook nu contribute zero polynomials).
    """
    if not (is_hook(lam, hp) and is_hook(mu, hp)):
        raise CombinatoricsError("remmel check needs hook inputs")
    lhs = poly_mul(hook_schur_poly(lam, hp), hook_schur_poly(mu, hp))
    total = partition_size(lam) + partition_size(mu)
    rhs: dict = {}
    for nu in partitions_of(total):
        if not is_hook(nu, hp):
            continue
        c = lr_coeff(lam, mu, nu)
        if c:
            for e, v in hook_schur_poly(nu, hp).items():
                nv = rhs.get(e, 0) + c * v
                if nv:
                    rhs[e] = nv
                else:
                    del rhs[e]
    return lhs == rhs
