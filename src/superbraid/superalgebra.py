"""The Lie superalgebra gl(n|m) and its signed action on tensor factors.

Basis indices 1..n are even, n+1..n+m odd.  Operators on a product of
module factors are built entry by entry: one loop over the product basis
reads the factors' unit matrices, with explicit Koszul sign bookkeeping: an
element acting on factor t picks up the sign
(-1)^(parity of element * parity of everything left of t).  This makes the
sign conventions locally testable instead of hiding them in Hopf-algebra
plumbing.  A split Casimir first sums its unit pairs into a local matrix on
its two factors, so that loop only copies that matrix's columns with their
Koszul signs.  Weight spaces are read off a weight index that each product
builds on first use, factor by factor, from its factors' weights.

Every factor is a :class:`RealizedModule`, a module given by its unit
matrices and the parity and weight of each vector of its own basis, the
only parities kept.  The natural module V is the irreducible L(1)
(Berele-Regev 1987) and is written down here directly; every other
irreducible is realized in :mod:`superbraid.modules`.  Basis vectors carry
no names: a basis index of a product decodes to one index per factor
(:meth:`TensorConfig.decode`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import add
from typing import Optional, Sequence

from .linalg import LinearOp, Subspace, product_sum
from .partitions import HookProfile, Partition


def index_parity(i: int, hp: HookProfile) -> int:
    """Parity of basis direction i (1-based): 0 for i <= n, 1 beyond."""
    if not 1 <= i <= hp.rank:
        raise ValueError(f"index {i} out of range 1..{hp.rank}")
    return 0 if i <= hp.n else 1


def unit_parity(i: int, j: int, hp: HookProfile) -> int:
    """Parity of the matrix unit E_ij."""
    return (index_parity(i, hp) + index_parity(j, hp)) % 2


def positive_roots(hp: HookProfile) -> list:
    """Pairs (i, j), i < j, for the roots eps_i - eps_j."""
    r = hp.rank
    return [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]


def two_rho(hp: HookProfile) -> tuple:
    """Even positive roots minus odd positive roots, summed.

    Closed form: coordinate k is n - m - 2k + 1 for k <= n and
    n + m - 2s + 1 for k = n + s.
    """
    coords = [0] * hp.rank
    for (i, j) in positive_roots(hp):
        sign = -1 if unit_parity(i, j, hp) else 1
        coords[i - 1] += sign
        coords[j - 1] -= sign
    return tuple(coords)


def bilinear_form(w1: Sequence, w2: Sequence, hp: HookProfile):
    """Super trace form on weights: sum (-1)^parity(k) w1_k w2_k."""
    if len(w1) != hp.rank or len(w2) != hp.rank:
        raise ValueError("weight length mismatch")
    total = 0
    for k in range(hp.rank):
        sign = -1 if index_parity(k + 1, hp) else 1
        total += sign * w1[k] * w2[k]
    return total


def pairing_eps(i: int, hp: HookProfile) -> int:
    """<eps_i, eps_i + 2rho> in closed form, by the even/odd case."""
    n, m = hp.n, hp.m
    if not 1 <= i <= hp.rank:
        raise ValueError(f"index {i} out of range 1..{hp.rank}")
    if i <= n:
        return -2 * i + 2 + n - m
    return 2 * i - 2 - 3 * n - m


def casimir_pairing(w: Sequence, hp: HookProfile):
    """<w, w + 2rho>: the scalar by which the quadratic Casimir acts on L(w)."""
    rho2 = two_rho(hp)
    shifted = tuple(w[k] + rho2[k] for k in range(hp.rank))
    return bilinear_form(w, shifted, hp)


def natural_casimir_scalar(hp: HookProfile) -> int:
    """Casimir scalar on the natural module: <eps_1, eps_1 + 2rho> = n - m."""
    return hp.n - hp.m


def rectangle_weight(u: int, size: int, kind: str, hp: HookProfile) -> tuple:
    """The weight u * (eps_1 + .. + eps_t) or u * (eps_{n+1} + .. + eps_{n+s})."""
    coords = [0] * hp.rank
    offset = 0 if kind == "phi" else hp.n
    for k in range(size):
        coords[offset + k] = u
    return tuple(coords)


def psi_pairing_report(s: int, hp: HookProfile) -> dict:
    """Compare the two published forms of <psi_s, psi_s + 2rho> with direct evaluation.

    The special-case value (n + m - 2) s and the u = 1 instance of the
    general formula s (s - n - m - 1) disagree in general; the direct
    bilinear-form evaluation decides.
    """
    n, m = hp.n, hp.m
    direct = casimir_pairing(rectangle_weight(1, s, "psi", hp), hp)
    special = (n + m - 2) * s
    general = s * (s - n - m - 1)
    return {
        "s": s,
        "direct": direct,
        "special_case_form": special,
        "general_form_at_u1": general,
        "matching": "general" if direct == general else ("special" if direct == special else "neither"),
    }


@dataclass
class RealizedModule:
    """The irreducible L(partition) on its own basis: the parity and weight
    of each basis vector, and its unit actions.  The one module type:
    boundary modules and V alike."""

    partition: Partition
    hp: HookProfile
    highest_weight: tuple
    parities: tuple  # Z2 parity per basis vector
    weights: tuple  # weight per basis vector
    units: dict  # (i, j) -> LinearOp of dimension dim

    @property
    def dim(self) -> int:
        return len(self.parities)

    def units_graded(self) -> bool:
        """Whether each unit E_ij changes parity by its own parity: every
        entry joins two basis vectors whose parities differ by |E_ij|."""
        ps = self.parities
        return all(
            ps[row] ^ ps[col] == unit_parity(i, j, self.hp)
            for (i, j), op in self.units.items()
            for col, entries in op.cols.items()
            for row in entries
        )


def natural_factor(hp: HookProfile) -> RealizedModule:
    """The natural module V = L(1), highest weight eps_1, with E_ij e_j = e_i."""
    r = hp.rank
    parities = tuple(index_parity(k + 1, hp) for k in range(r))
    units = {}
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            units[(i, j)] = LinearOp.from_entries(r, [(i - 1, j - 1, 1)])
    weights = tuple(
        tuple(1 if k == t else 0 for k in range(r)) for t in range(r)
    )
    return RealizedModule((1,), hp, weights[0], parities, weights, units)


class TensorConfig:
    """A product of module factors carrying the diagonal gl(n|m) action.

    Factor positions are 0-based indices into ``factors``, each a
    :class:`RealizedModule` on the same ``hp``.  Basis indices of
    the product are mixed-radix with the first factor slowest (row-major),
    and a product basis vector's parity is the sum of its factors'
    parities, which each sign reads off the factors: no table per basis
    index is kept.
    """

    def __init__(self, factors: Sequence, hp: HookProfile):
        self.factors = list(factors)
        self.hp = hp
        dims = [f.dim for f in self.factors]
        self.dim = 1
        for d in dims:
            self.dim *= d
        strides = [1] * len(dims)
        for t in range(len(dims) - 2, -1, -1):
            strides[t] = strides[t + 1] * dims[t + 1]
        self.strides = strides
        self._unit_cache: dict = {}
        # position -> the first position holding the same module object
        first: dict = {}
        self._kind = [first.setdefault(id(f), t) for t, f in enumerate(self.factors)]
        self._local_cache: dict = {}

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def decode(self, idx: int) -> tuple:
        """The basis index of each factor in the product basis index idx."""
        return tuple(idx // s % f.dim for s, f in zip(self.strides, self.factors))

    def _basis(self):
        """``(idx, components)`` for every basis index in order, the
        components generated on the fly, first factor slowest as in the
        mixed-radix index."""
        return enumerate(product(*(range(f.dim) for f in self.factors)))

    def _span_parities(self, span: range) -> list:
        """Per basis index, the parity of its components at the positions in
        ``span``, grown one factor at a time like the index itself; the
        Koszul table of :meth:`split_casimir_op`, built for that call."""
        out = [0]
        for t, f in enumerate(self.factors):
            ps = f.parities if t in span else (0,) * f.dim
            out = [p ^ q for p in out for q in ps]
        return out

    def local(self, positions: Sequence) -> tuple:
        """``(key, config, where)`` for the factors at the increasing
        ``positions``, the legs: ``config`` holds them in order and nothing
        else, and ``where`` maps each leg to its rank among them.  ``key``
        names ``config`` by the identity of its modules, so calls with
        equal keys get the one config, built once.  The transport lemma in
        :mod:`superbraid.braid` says why an identity of split Casimirs,
        swaps and units on the legs is decided on it, whatever the factors
        between them."""
        key = tuple(self._kind[pos] for pos in positions)
        config = self._local_cache.get(key)
        if config is None:
            config = self._local_cache[key] = TensorConfig([self.factors[pos] for pos in positions], self.hp)
        return key, config, {pos: k for k, pos in enumerate(positions)}

    def act_unit(self, i: int, j: int) -> LinearOp:
        """Coproduct action of E_ij on all factors: on factor t, E_ij with the
        Koszul sign (-1)^(parity of E_ij * parity of everything left of t)."""
        cached = self._unit_cache.get((i, j))
        if cached is not None:
            return cached
        pu = unit_parity(i, j, self.hp)
        out = LinearOp(self.dim)
        for idx, comps in self._basis():
            left = 0
            for t, fac in enumerate(self.factors):
                col = fac.units[(i, j)].cols.get(comps[t])
                if col:
                    sign = -1 if (pu and left) else 1
                    for row_c, val in col.items():
                        out.add_entry(idx + (row_c - comps[t]) * self.strides[t], idx, sign * val)
                left ^= fac.parities[comps[t]]
        self._unit_cache[(i, j)] = out
        return out

    def casimir_op(self) -> LinearOp:
        """Quadratic Casimir acting through the coproduct on all factors.

        This is sum (-1)^parity(j) D(E_ij) D(E_ji) with D the diagonal
        action, so it contains all cross terms between the factors.  The
        r^2 products go into one accumulator per column
        (:func:`~superbraid.linalg.product_sum`).
        """
        r = self.hp.rank
        unit = self.act_unit
        return product_sum(
            self.dim,
            (
                (-1 if index_parity(j, self.hp) else 1, unit(i, j), unit(j, i))
                for i in range(1, r + 1)
                for j in range(1, r + 1)
            ),
        )

    def split_casimir_op(self, pos1: int, pos2: int, corrupt: Optional[str] = None) -> LinearOp:
        """The mixed term of the coproduct Casimir on an ordered factor pair:
        sum (-1)^parity(j) E_ij at pos1 composed with E_ji at pos2.

        E_ji acts first, so the Koszul signs of the two legs cancel across
        the factors left of pos1 and leave (-1)^(parity of E_ij * parity of
        factors pos1..pos2-1).  Column idx depends on idx only through the
        components (a, b) at pos1 and pos2 and that one Koszul parity, so the
        sum over (i, j) is formed once, as a local matrix on the two factors:
        column (a, b) lists its entries by index offset and unit parity.  One
        pass over the product basis then copies each column's entries,
        negating those of odd unit parity where the Koszul parity, read from
        a per-index table (:meth:`_span_parities`), is odd.  ``corrupt`` is
        a negative-control hook: 'parity' drops the (-1)^parity(j)
        prefactor, 'koszul' drops the Koszul sign on the second leg.
        Production callers leave it None.
        """
        if pos1 >= pos2:
            raise ValueError("need pos1 < pos2 in factor order")
        if corrupt not in (None, "parity", "koszul"):
            raise ValueError(f"unknown corruption mode {corrupt!r}")
        f1, f2 = self.factors[pos1], self.factors[pos2]
        s1, s2 = self.strides[pos1], self.strides[pos2]
        r = self.hp.rank
        # (a, b) -> {(offset, unit parity): entry}
        local: dict = {}
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                pu = unit_parity(i, j, self.hp)
                sign = -1 if index_parity(j, self.hp) and corrupt != "parity" else 1
                cols2 = f2.units[(j, i)].cols
                for a, col1 in f1.units[(i, j)].cols.items():
                    for b, col2 in cols2.items():
                        acc = local.setdefault((a, b), {})
                        for b2, v2 in col2.items():
                            for a2, v1 in col1.items():
                                key = ((a2 - a) * s1 + (b2 - b) * s2, pu)
                                acc[key] = acc.get(key, 0) + sign * v1 * v2
        across = self._span_parities(range(pos1) if corrupt == "koszul" else range(pos1, pos2))
        out = LinearOp(self.dim)
        for idx, comps in self._basis():
            acc = local.get((comps[pos1], comps[pos2]))
            if not acc:
                continue
            odd = across[idx]
            for (off, pu), v in acc.items():
                out.add_entry(idx + off, idx, -v if pu and odd else v)
        return out

    def signed_swap(self, pos: int) -> LinearOp:
        """v (x) w -> (-1)^(|v| |w|) w (x) v on factors pos, pos + 1."""
        f1, f2 = self.factors[pos], self.factors[pos + 1]
        if f1.parities != f2.parities:
            raise ValueError("signed swap needs identical adjacent factors")
        out = LinearOp(self.dim)
        s1, s2 = self.strides[pos], self.strides[pos + 1]
        for idx, comps in self._basis():
            a, b = comps[pos], comps[pos + 1]
            sign = -1 if (f1.parities[a] and f2.parities[b]) else 1
            new_idx = idx + (b - a) * s1 + (a - b) * s2
            out.add_entry(new_idx, idx, sign)
        return out

    @cached_property
    def _weight_index(self) -> dict:
        """weight -> the basis indices carrying it, grown one factor at a
        time: index i of the product so far and component c of the next
        factor make index i * dim + c."""
        index = {(0,) * self.hp.rank: [0]}
        for f in self.factors:
            comps_of: dict = {}
            for c, w in enumerate(f.weights):
                comps_of.setdefault(w, []).append(c)
            grown: dict = {}
            for total, indices in index.items():
                for w, comps in comps_of.items():
                    grown.setdefault(tuple(map(add, total, w)), []).extend(
                        [i * f.dim + c for i in indices for c in comps]
                    )
            index = grown
        for indices in index.values():
            indices.sort()
        return index

    def weight_indices(self, w: Sequence) -> list:
        """The basis indices of weight w in increasing order, read off the
        weight index built on the first call; empty for a weight that does
        not occur."""
        return self._weight_index.get(tuple(w), [])

    def weight_subspace(self, w: Sequence) -> Subspace:
        """The weight-w space, spanned by the basis vectors of that weight in
        increasing index order; a weight that does not occur gives dimension 0."""
        return Subspace(self.dim, [{idx: 1} for idx in self.weight_indices(w)])


def tensor_power_config(hp: HookProfile, k: int) -> TensorConfig:
    """V tensored with itself k times."""
    v = natural_factor(hp)
    return TensorConfig([v] * k, hp)
