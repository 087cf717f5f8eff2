"""Exact rational sparse linear algebra on spaces given by their dimension.

Everything here is over the rationals, in one canonical exact form: an
integral value is a plain ``int`` and any other value a
:class:`fractions.Fraction` with denominator > 1.  Almost every entry of
the operators checked downstream is an integer, and ``int`` arithmetic
stays ``int`` at machine speed while mixed arithmetic promotes to
``Fraction`` exactly.  Every insert point normalises back to that form,
and a true division goes through ``Fraction``, never ``int / int``.  There
is deliberately no floating-point mode: all downstream checks are exact
operator identities, so a single rounded entry would be useless.

Vectors are sparse dicts ``{index: value}``; operators store their
entries column-major (``cols[j][i]``), which makes products and
matrix-vector application cheap for the very sparse operators produced by
tensor-factor embeddings.  :func:`_add_scaled` is the one loop that combines
sparse entries: sums, differences, products, applications and elimination
all go through it (:func:`op_sum` adds many operators, and
:func:`product_sum` many products, into one accumulator per column), and
:meth:`LinearOp.add_entry` is the single-entry insert.  A commutator goes
through it one column at a time, both products' columns into one
accumulator, with no product operators built.
The matrix of an operator restricted to a subspace is again a
:class:`LinearOp`, on the subspace's coordinate space.
:class:`RowReducer` holds the one elimination loop; only :class:`Subspace`,
:func:`kernel_intersection` and :func:`restrict_op` drive it.

A joint spectrum is checked by counting, not by splitting: joint
eigenvectors with pairwise distinct eigenvalue tuples are linearly
independent, so one-dimensional joint eigenspaces for ``k`` distinct
tuples on a ``k``-dimensional space already form a basis of it.  A
commutant is found by counting too: in such a joint eigenbasis it is
diagonal, and :func:`commutant_components` counts the connected components
of the other operators' off-diagonal entries there.  The joint-kernel
solve :func:`commutant_dimension`, on the space of matrices, is kept as
the oracle for that count.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, Optional, Sequence

Vector = dict  # {index: int | Fraction}, canonical (integral values as int), zero entries absent


class LinalgError(ValueError):
    pass


class NotInvariantError(LinalgError):
    """An operator does not preserve the given subspace."""


def _canonical(v: Rational) -> Rational:
    """v as an int when integral, else as it is (a Fraction)."""
    return v.numerator if v.denominator == 1 else v


def _add_scaled(out: Vector, vec: Vector, coeff: Rational) -> None:
    """out += coeff * vec in place, dropping entries that cancel."""
    for k, v in vec.items():
        old = out.get(k)
        nv = coeff * v if old is None else old + coeff * v
        if nv:
            # _canonical inlined: a call per entry costs about a tenth of a product
            out[k] = nv.numerator if nv.denominator == 1 else nv
        else:
            out.pop(k, None)


class LinearOp:
    """Sparse exact endomorphism of the ``dim``-dimensional space."""

    __slots__ = ("dim", "cols")

    def __init__(self, dim: int, cols: Optional[dict] = None):
        self.dim = dim
        self.cols = cols if cols is not None else {}

    @classmethod
    def identity(cls, dim: int, scale: Rational = 1) -> "LinearOp":
        if not scale:
            return cls(dim)
        scale = _canonical(scale)
        return cls(dim, {j: {j: scale} for j in range(dim)})

    @classmethod
    def from_entries(cls, dim: int, entries: Iterable) -> "LinearOp":
        op = cls(dim)
        for i, j, v in entries:
            op.add_entry(i, j, v)
        return op

    def add_entry(self, i: int, j: int, v: Rational) -> None:
        if not v:
            return
        col = self.cols.setdefault(j, {})
        old = col.get(i)
        nv = v if old is None else old + v
        if nv:
            col[i] = nv.numerator if nv.denominator == 1 else nv
        else:
            del col[i]
            if not col:
                del self.cols[j]

    def entries(self) -> Iterator:
        for j in sorted(self.cols):
            col = self.cols[j]
            for i in sorted(col):
                yield i, j, col[i]

    def _plus_scaled(self, other: "LinearOp", c: Rational) -> "LinearOp":
        """self + c * other, without cancelled entries or empty columns."""
        cols = {j: dict(col) for j, col in self.cols.items()}
        for j, col in other.cols.items():
            acc = cols.setdefault(j, {})
            _add_scaled(acc, col, c)
            if not acc:
                del cols[j]
        return LinearOp(self.dim, cols)

    def __add__(self, other: "LinearOp") -> "LinearOp":
        return self._plus_scaled(other, 1)

    def __sub__(self, other: "LinearOp") -> "LinearOp":
        return self._plus_scaled(other, -1)

    def plus_scalar(self, c: Rational) -> "LinearOp":
        """self + c * identity."""
        return self + LinearOp.identity(self.dim, c)

    def __matmul__(self, other: "LinearOp") -> "LinearOp":
        """Column j of self @ other is self applied to column j of other."""
        out = LinearOp(self.dim)
        for j, bcol in other.cols.items():
            col = self.apply(bcol)
            if col:
                out.cols[j] = col
        return out

    def commutator(self, other: "LinearOp") -> "LinearOp":
        """self @ other - other @ self, one column at a time: column j of
        both products goes into one accumulator, so neither product and no
        difference copy is built."""
        cols = {}
        for j in self.cols.keys() | other.cols.keys():
            acc = self.apply(other.cols.get(j, {}))
            for k, v in self.cols.get(j, {}).items():
                col = other.cols.get(k)
                if col:
                    _add_scaled(acc, col, -v)
            if acc:
                cols[j] = acc
        return LinearOp(self.dim, cols)

    def apply(self, vec: Vector) -> Vector:
        out: dict = {}
        for j, vj in vec.items():
            col = self.cols.get(j)
            if col:
                _add_scaled(out, col, vj)
        return out

    def max_entry_witness(self) -> Optional[tuple]:
        """Largest-magnitude entry as (row, col, value); None when zero."""
        best = None
        for i, j, v in self.entries():
            key = (abs(v), -j, -i)
            if best is None or key > best[0]:
                best = (key, (i, j, v))
        return None if best is None else best[1]


def add_into(cols: dict, op: LinearOp) -> None:
    """``cols += op`` in place, for ``cols`` the columns of an operator of
    ``op``'s dimension: each column of ``op`` is added into its
    accumulator, and a column that cancels is dropped."""
    for j, col in op.cols.items():
        acc = cols.get(j)
        if acc is None:
            cols[j] = dict(col)
            continue
        _add_scaled(acc, col, 1)
        if not acc:
            del cols[j]


def op_sum(ops: Sequence) -> LinearOp:
    """The sum of nonempty ``ops``, all of one dimension, with one
    accumulator per column (:func:`add_into`), so no partial sum is ever
    copied."""
    cols: dict = {}
    for op in ops:
        add_into(cols, op)
    return LinearOp(ops[0].dim, cols)


def product_sum(dim: int, terms: Iterable) -> LinearOp:
    """The sum of ``c * A @ B`` over the triples ``(c, A, B)`` of
    ``terms``, all of dimension ``dim``, with one accumulator per column:
    column ``j`` of each product is added into it entry by entry of ``B``'s
    column ``j``, so no product and no partial sum is built."""
    cols: dict = {}
    for c, a, b in terms:
        for j, bcol in b.cols.items():
            acc = cols.setdefault(j, {})
            for k, v in bcol.items():
                acol = a.cols.get(k)
                if acol:
                    _add_scaled(acc, acol, c * v)
    return LinearOp(dim, {j: col for j, col in cols.items() if col})


class RowReducer:
    """Incremental exact Gaussian elimination with coordinate tracking.

    Maintains an echelon set of sparse rows together with the expression of
    each echelon row in terms of the rows fed to :meth:`add`.  Pivot choice
    inside an added row prefers unit entries, then small numerators and
    denominators, which keeps intermediate fractions tame.
    """

    def __init__(self):
        self.rows: list = []  # echelon rows (sparse dicts), pivot normalized to 1
        self.pivots: list = []  # pivot column per row
        self.trans: list = []  # row i of echelon = sum trans[i][k] * accepted row k

    def _reduce(self, vec: Vector, tr: Vector) -> tuple:
        """Eliminate vec against the echelon rows, carrying the transform tr
        along; returns (residual, transform)."""
        v = dict(vec)
        t = dict(tr)
        for row, piv, rt in zip(self.rows, self.pivots, self.trans):
            coeff = v.get(piv)
            if coeff:
                _add_scaled(v, row, -coeff)
                _add_scaled(t, rt, -coeff)
        return v, t

    @staticmethod
    def _pick_pivot(vec: Vector) -> int:
        def cost(item):
            k, v = item
            return (0 if abs(v) == 1 else 1, abs(v.denominator), abs(v.numerator), k)

        return min(vec.items(), key=cost)[0]

    def _append(self, v: Vector, t: Vector) -> None:
        """Normalise a nonzero residual at its pivot and make it an echelon row."""
        piv = self._pick_pivot(v)
        c = v[piv]
        self.rows.append({k: _canonical(Fraction(val, c)) for k, val in v.items()})
        self.pivots.append(piv)
        self.trans.append({k: _canonical(Fraction(val, c)) for k, val in t.items()})

    def add(self, vec: Vector) -> bool:
        """Insert a vector; True when it enlarges the span.  Only accepted
        vectors are numbered, so coordinates index them in order."""
        return self.insert(vec) is None

    def insert(self, vec: Vector) -> Optional[Vector]:
        """Insert a vector: None when it enlarges the span (it is then the
        last accepted vector), else its coordinates in the accepted vectors,
        read off the same elimination."""
        new = len(self.rows)
        v, t = self._reduce(vec, {new: 1})
        if v:
            self._append(v, t)
            return None
        # v = vec + sum_{k != new} t[k] * accepted_k vanishes; the echelon
        # transforms never mention vector `new`, so t[new] is still 1
        del t[new]
        return {k: -c for k, c in t.items()}

    def coordinates(self, vec: Vector) -> Optional[Vector]:
        """Express vec in terms of the accepted vectors; None if outside the span."""
        # _reduce returns v = vec + sum_k t[k] * accepted_k, so when v vanishes
        # the coordinates of vec are -t
        v, t = self._reduce(vec, {})
        if v:
            return None
        return {k: -c for k, c in t.items()}


class Subspace:
    """Subspace of the ``ambient``-dimensional space, spanned by explicit
    exact vectors."""

    def __init__(self, ambient: int, vectors: Sequence):
        self.ambient = ambient
        self.vectors: list = []
        self._solver = RowReducer()
        for v in vectors:
            if not self.add(v):
                raise LinalgError("subspace basis vectors are linearly dependent")

    def add(self, vec: Vector) -> bool:
        """Append vec to the basis if it lies outside the span; True if it did."""
        if not self._solver.add(vec):
            return False
        self.vectors.append(dict(vec))
        return True

    def insert(self, vec: Vector) -> Vector:
        """Append vec to the basis if it lies outside the span, and return
        its coordinates in the basis as it then stands: ``{dim - 1: 1}`` when
        it was appended, else those found by the elimination that rejected
        it, with no second solve."""
        coords = self._solver.insert(vec)
        if coords is None:
            self.vectors.append(dict(vec))
            return {self.dim - 1: 1}
        return coords

    @classmethod
    def full(cls, dim: int) -> "Subspace":
        return cls(dim, [{i: 1} for i in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def coordinates(self, vec: Vector) -> Optional[Vector]:
        return self._solver.coordinates(vec)


def kernel_intersection(ops: Iterable, within: Subspace) -> Subspace:
    """Maximal subspace of ``within`` annihilated by every operator.

    Per operator, the images of the current basis vectors are eliminated in
    turn; an image that reduces to zero carries the coefficients of a kernel
    vector in its transform (sum_k t[k] * image_k = 0).  The kernels in
    between are bases by construction and stay plain vector lists; only the
    last one becomes a :class:`Subspace`.
    """
    basis = within.vectors
    for op in ops:
        if not basis:
            break
        red = RowReducer()
        kernel: list = []
        for k, vec in enumerate(basis):
            v, t = red._reduce(op.apply(vec), {k: 1})
            if v:
                red._append(v, t)
            else:
                combo: dict = {}
                for i, c in t.items():
                    _add_scaled(combo, basis[i], c)
                kernel.append(combo)
        basis = kernel
    return Subspace(within.ambient, basis)


def restrict_op(op: LinearOp, sub: Subspace) -> LinearOp:
    """Matrix of op on the subspace basis, on the coordinate space.

    Column j holds the coordinates of ``op`` applied to ``sub.vectors[j]``.
    Raises :class:`NotInvariantError` when the image leaves the subspace.
    """
    out = LinearOp(sub.dim)
    for j, v in enumerate(sub.vectors):
        coords = sub.coordinates(op.apply(v))
        if coords is None:
            raise NotInvariantError("operator does not preserve the subspace")
        if coords:
            out.cols[j] = coords
    return out


def _ad(mat: LinearOp) -> LinearOp:
    """X -> XA - AX on k x k matrices, X = E_ab being unknown a * k + b:
    E_ab A = sum_c A[b][c] E_ac and A E_ab = sum_r A[r][a] E_rb."""
    k = mat.dim
    rows: dict = {}
    for c, col in mat.cols.items():
        for b, v in col.items():
            rows.setdefault(b, {})[c] = v
    out = LinearOp(k * k)
    for a in range(k):
        for b in range(k):
            for c, v in rows.get(b, {}).items():
                out.add_entry(a * k + c, a * k + b, v)
            for r, v in mat.cols.get(a, {}).items():
                out.add_entry(r * k + b, a * k + b, -v)
    return out


def commutant_dimension(ops: Sequence, within: Subspace) -> int:
    """Dimension of the algebra of matrices commuting with every restricted op.

    The commutant is the joint kernel of the maps ad_A: X -> XA - AX on the
    k^2-dimensional space of k x k matrices, one A per restricted op, so it
    is found by :func:`kernel_intersection` from the full matrix space; each
    ad_A is built only when its turn comes.  Dimension 1 over the rationals
    certifies absolute irreducibility: the commutant dimension of a matrix
    set is invariant under field extension.  The package counts the
    commutant with :func:`commutant_components` instead; this solve is the
    oracle for that count.
    """
    k = within.dim
    ads = (_ad(restrict_op(op, within)) for op in ops)
    return kernel_intersection(ads, Subspace.full(k * k)).dim


def commutant_components(ops: Sequence, basis: Subspace) -> int:
    """Connected components of the graph of ``ops`` in the basis ``basis``.

    ``basis`` is a basis of the coordinate space the ops act on (for
    example a joint eigenbasis found by :func:`simultaneous_eigenspaces`).
    Each op is rewritten in it with :func:`restrict_op`; the graph has the
    vertices ``0..k-1`` and an edge ``i - j`` wherever entry ``(i, j)``, off
    the diagonal, is nonzero.

    The count is the dimension of the diagonal matrices that commute with
    every op, because ``[D, A]_ij = (D_ii - D_jj) A_ij``: a diagonal ``D``
    commutes with ``A`` exactly when ``D_ii = D_jj`` along every edge of
    ``A``, so ``D`` is constant on each component and free across them.
    When the basis consists of joint eigenvectors of further operators
    ``z`` with pairwise distinct eigenvalue tuples, every ``X`` that
    commutes with the ``z`` maps each one-dimensional joint eigenspace into
    itself, so it is diagonal in that basis and commutes with the ``z``;
    the commutant of the ``z`` together with ``ops`` is then exactly those
    diagonal matrices, and the count is its dimension.  The
    :func:`commutant_dimension` solve is the oracle for this count.
    """
    root = list(range(basis.dim))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    count = basis.dim
    for op in ops:
        for j, col in restrict_op(op, basis).cols.items():
            for i in col:
                a, b = find(i), find(j)
                if a != b:
                    root[a] = b
                    count -= 1
    return count


def simultaneous_eigenspaces(ops: Sequence, within: Subspace, tuples: Sequence) -> list:
    """Joint eigenspace of ``ops`` for each eigenvalue tuple, in coordinates.

    Entry ``j`` is the joint kernel of ``ops[i] - tuples[j][i]`` inside
    ``within``, as a :class:`Subspace` of the coordinate space of
    ``within`` (vectors in its coordinates).  Each operator is restricted
    to ``within`` once and shifted once per distinct eigenvalue, and the
    kernels are taken on those small matrices, never on the ambient space.
    Joint eigenvectors with distinct eigenvalue tuples are linearly
    independent, so ``k`` distinct tuples with dimension 1 each on a
    ``k``-dimensional subspace prove that the operators act there
    diagonalizably, commute, and have exactly that joint spectrum; the
    ``k`` vectors are then a basis of the coordinates.
    """
    if any(len(t) != len(ops) for t in tuples):
        raise LinalgError("need one eigenvalue per operator in every tuple")
    mats = [restrict_op(op, within) for op in ops]
    coords = Subspace.full(within.dim)
    shifted: dict = {}  # (i, c) -> mats[i] - c, built once per call
    out = []
    for t in tuples:
        for i, c in enumerate(t):
            if (i, c) not in shifted:
                shifted[i, c] = mats[i].plus_scalar(-c)
        out.append(kernel_intersection([shifted[i, c] for i, c in enumerate(t)], coords))
    return out
