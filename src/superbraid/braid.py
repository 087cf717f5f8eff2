"""Generator images of the two-boundary braid algebra and relation checks.

The polynomial generators are defined as halved differences of coproduct
Casimirs on growing factor prefixes.  By the coproduct identity
Delta(C) = C (x) 1 + 1 (x) C + 2 Gamma, with Gamma the split Casimir, each
difference is a sum of split Casimirs Gamma(s, t) on factor pairs plus the
Casimir of the one factor added, which is the scalar kappa_V because that
factor is the natural module V.  No Casimir needs to be scalar on M or N:
their terms cancel.  So the images are built from the split Casimirs
alone:

    x_i = Gamma(M, v_i) + sum_{k<i} Gamma(v_k, v_i) + kappa_V / 2
    y_i = Gamma(N, v_i) + sum_{k<i} Gamma(v_k, v_i) + kappa_V / 2
    z_i = Gamma(M, v_i) + Gamma(N, v_i) + sum_{k<i} Gamma(v_k, v_i) + kappa_V
    z_0 = Gamma(M, N)

The symmetric-group generators act as signed swaps of adjacent
natural-module factors.  Relations are verified as exact operator
identities on the concrete space, never symbolically: each check reports a
witness entry when a residual operator fails to vanish, since sign bugs
are the dominant failure mode and a witness localizes them.

Each report line is proved by the cheapest exact argument whose premise
is checked first, falling back to the direct residual, so a report is the
same line for line, witnesses included, as if every line were a residual.
Every certificate rests on one premise (:func:`by_construction`): the
images are a :class:`SummedImages` with no corrupt mode on their own config,
which builds each image from its definition when something reads it, a
swap t_i as ``signed_swap`` and any other image as the sum of the split
Casimirs on its factor pairs (:func:`generator_parts`).  Under it, each
identity of Gammas, swaps and units a line needs is decided on a local
config whose size does not grow with d, so a passing braid, centralizer or
Hecke report builds no swap, image or split Casimir on the whole space.
On any other images (the unshifted action, a negative control) every line
is its residual.

Transport lemma.  ``act_unit(i, j)`` sums E_ij on each factor t with the
Koszul sign (-1)^(|E_ij| * parity of the factors left of t), and
``split_casimir_op(p, q)`` sums (-1)^|j| E_ij on factor p times E_ji on
factor q, the product of two such signed actions, whose signs leave
(-1)^(|E_ij| * parity of the factors p .. q-1); ``signed_swap(p)`` reads
factors p and p+1 alone.  So each moves only the components at its own
factors and reads a factor between two of its legs only through its
parity.  The local config of legs p_1 < .. < p_k
(:meth:`TensorConfig.local`) holds the leg factors in order and nothing
else.  Send each whole basis vector to the local one with the same leg
components.  On the whole vectors whose gaps between legs are all even,
each split Casimir and swap on the legs is the local one relabelled along
this map, times the identity on the other factors.  Let every factor be
graded (each unit E_ij moves parity by |E_ij|,
:meth:`RealizedModule.units_graded`, checked first as
:attr:`LocalProofs.graded`) and sigma_R be the parity operator on the legs
right of a gap.  An odd gap multiplies each term of a Gamma across it by
(-1)^|E_ij|, which is conjugation by sigma_R, as sigma_R E sigma_R =
(-1)^|E| E; a Gamma or a swap on one side of the gap is even and commutes
with sigma_R.  Conjugation is an algebra automorphism, so a polynomial
identity in these operators holds on the odd block exactly when it holds
on the even one, the local identity relabelled.  Gamma is even and moves
both legs by one parity, so it commutes with the action of any unit on a
factor off its legs: left of the legs neither sign reads what the other
moves, right of them E reads the legs only through their total parity,
and in a gap E flips Gamma's sign by the same (-1)^(|E| |E_ij|) by which
Gamma, through its first leg, flips E's.  Swaps likewise.  On the legs E
acts as the local E so conjugated, times (-1)^(|E| * parity of the factors
left of the legs).  Hence [Gamma, act_unit(E)] is the relabelled local
commutator, conjugated and signed so; split Casimirs on disjoint pairs
commute, in every interleaving, as one is a sum of products of unit
actions off the other's legs.  ``tests/transport_oracle.py`` relabels
local operators for the desk-scale tests of these statements.  The suites
use the lemma so:

- Centralizer: each Gamma of an image, and each swap, is decided against
  each of the r^2 units on the local config of its two legs, once per
  module pair (:func:`verify_centralizer`).
- R2: [z_0+..+z_i, x_j] expands into commutators of the Gammas on the
  pairs of the prefix M, N, v_1 .. v_i with those of x_j.  Disjoint pairs
  commute, a pair commutes with itself, and the rest group exactly, on the
  index sets, into the infinitesimal braid (4T) relators [Gamma(c,j),
  Gamma(c,e) + Gamma(j,e)] = 0 (Kohno 1987; Drinfeld 1990), one for each
  part (c, j) of x_j and other factor e of the prefix, each decided on its
  three legs (:meth:`LocalProofs.bracket_vanishes`).
- Braid lines: an image is its parts form, the multiset of its pairs.
  The swap t_i has t_i^2 = 1 and t_i Gamma(p,q) t_i = Gamma on the pair
  {s(p), s(q)}, with s interchanging the legs v_i and v_{i+1}, each
  decided on the legs of both (:meth:`LocalProofs.conjugates`), so
  conjugating by t_i relabels a parts form.  R1 and R3 pass when the form
  is fixed by it.  The m_{i,j} are forms too, and R4, R5, R6 and m(i,j)
  pass when the form of their residual is zero.  The sym lines are words
  in the swaps, decided on their legs (:meth:`LocalProofs.swap_words_agree`;
  :func:`verify_braid_relations`).
- Hecke lines: x_1 is Gamma(M, v_1), so (x_1 - a)(x_1 + p) = 0 is decided
  for Gamma on M (x) V, and likewise for y_1 on N (x) V.  t_i =
  Gamma(v_i, v_{i+1}) is signed_swap = Gamma on V (x) V, and x_{i+1} = t_i
  x_i t_i + t_i passes when the parts form of x_{i+1}, less the relabelled
  one of x_i, is that Gamma alone (:func:`verify_hecke_relations`).

The plain images differ from the shifted ones only by scalars, and those
cancel in every defining relation once each t_i^2 = 1: in commutators, in
R5, and in x_{i+1} - t_i x_i t_i through the identity t_i^2 - 1 = 0.  So
``verify braid`` runs :func:`verify_braid_relations` once, on the shifted
images, and reads the plain lines off that report after checking the
``sym:t{i}^2=1`` lines; :func:`unshifted` stays for the negative controls.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .linalg import LinearOp, op_sum
from .superalgebra import TensorConfig, natural_casimir_scalar

POS_M = 0
POS_N = 1


def v_position(i: int) -> int:
    """Factor index of the i-th natural-module copy (1-based)."""
    return 1 + i


@dataclass
class Check:
    id: str
    ok: bool
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        out = {"relation": self.id, "status": "pass" if self.ok else "fail"}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def zero_check(check_id: str, residual: LinearOp, config: TensorConfig) -> Check:
    """Pass when ``residual`` vanishes; otherwise its largest entry is the
    witness, with row and column decoded to one basis index per factor of
    ``config``, the space the residual acts on."""
    wit = residual.max_entry_witness()
    if wit is None:
        return Check(check_id, True)
    i, j, v = wit
    return Check(
        check_id,
        False,
        {
            "row": i,
            "col": j,
            "value": f"{v.numerator}/{v.denominator}",
            "row_basis": list(config.decode(i)),
            "col_basis": list(config.decode(j)),
        },
    )


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "title": self.title,
            "ok": self.ok,
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


@functools.cache
def generator_names(d: int) -> tuple:
    """Every generator's name in report order: ``z0``, ``t1`` .. ``t{d-1}``,
    then ``x1`` .. ``xd``, ``y1`` .. and ``z1`` ..."""
    return ("z0", *(f"t{i}" for i in range(1, d)), *(f"{f}{i}" for f in "xyz" for i in range(1, d + 1)))


@functools.cache
def generator_parts(d: int) -> dict:
    """The factor pairs ``(p, q)`` of the split Casimirs each polynomial
    generator's image is the sum of, less its scalar (module docstring), by
    name: ``z0``, ``x_i``, ``y_i`` and ``z_i``."""
    parts = {"z0": ((POS_M, POS_N),)}
    for i in range(1, d + 1):
        pos = v_position(i)
        pairs = tuple((v_position(k), pos) for k in range(1, i))
        parts[f"x{i}"] = ((POS_M, pos), *pairs)
        parts[f"y{i}"] = ((POS_N, pos), *pairs)
        parts[f"z{i}"] = ((POS_M, pos), (POS_N, pos), *pairs)
    return parts


class SummedImages(Mapping):
    """Every generator image by name (:func:`generator_names`), the swaps and
    the shifted polynomial generators, each built on first read and kept:
    ``t_i`` as ``config.signed_swap(v_i)``, and any other image as the sum
    of ``config.split_casimir_op(p, q, corrupt=corrupt)`` over its factor
    pairs (:func:`generator_parts`).  So with ``corrupt`` None each image is
    by construction its definition.  Membership and iteration read the
    names alone and build nothing.
    """

    def __init__(self, config: TensorConfig, corrupt: Optional[str] = None):
        self.config = config
        self.corrupt = corrupt
        self.names = generator_names(config.n_factors - 2)
        self.parts = generator_parts(config.n_factors - 2)
        self._built: dict = {}

    def __getitem__(self, name: str) -> LinearOp:
        if name not in self._built:
            if name in self.parts:
                gammas = [self.config.split_casimir_op(*pair, corrupt=self.corrupt) for pair in self.parts[name]]
                self._built[name] = op_sum(gammas)
            elif name in self.names:
                self._built[name] = self.config.signed_swap(v_position(int(name[1:])))
            else:
                raise KeyError(name)
        return self._built[name]

    def __contains__(self, name) -> bool:
        return name in self.names

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


class _Family(Mapping):
    """``{i: image}`` for i = 1 .. n of one family, ``t``, ``x``, ``y`` or
    ``z``, read through to :attr:`GeneratorImages.ops` when an image is
    read."""

    def __init__(self, ops: Mapping, family: str, n: int):
        self.ops, self.family, self.n = ops, family, max(n, 0)

    def __getitem__(self, i: int) -> LinearOp:
        if i not in range(1, self.n + 1):
            raise KeyError(i)
        return self.ops[f"{self.family}{i}"]

    def __iter__(self):
        return iter(range(1, self.n + 1))

    def __len__(self) -> int:
        return self.n


@dataclass
class GeneratorImages:
    """Operators for t_i, x_i, y_i, z_i and z_0 on a two-boundary space.

    ``ops`` maps each generator's name (:func:`generator_names`) to its
    image.  ``t``, ``x``, ``y`` and ``z`` are views ``{i: image}`` of it,
    and ``z0`` is its ``z0``; each reads an image only when the image
    itself is read.  :func:`rho_prime_images` gives a :class:`SummedImages`,
    which builds an image on first read; :func:`unshifted` gives a plain
    dict, as a test's ``dataclasses.replace`` may.  ``shifted`` records
    whether the polynomial generators carry the constant shift (x, y by half
    the natural Casimir scalar, z by the full one) under which the boundary
    eigenvalues become box contents.  ``d`` and ``parts``
    (:func:`generator_parts`) follow from ``config``.  The suites rely on
    the images being their definitions only under :func:`by_construction`;
    on any other images every line is its residual.
    """

    config: TensorConfig
    ops: Mapping
    shifted: bool

    @property
    def d(self) -> int:
        return self.config.n_factors - 2

    @property
    def parts(self) -> dict:
        return generator_parts(self.d)

    @property
    def t(self) -> Mapping:
        return _Family(self.ops, "t", self.d - 1)

    @property
    def x(self) -> Mapping:
        return _Family(self.ops, "x", self.d)

    @property
    def y(self) -> Mapping:
        return _Family(self.ops, "y", self.d)

    @property
    def z(self) -> Mapping:
        return _Family(self.ops, "z", self.d)

    @property
    def z0(self) -> LinearOp:
        return self.ops["z0"]

    def named_ops(self) -> list:
        """``(name, image)`` for every generator, each image built."""
        return [(name, self.ops[name]) for name in generator_names(self.d)]


def rho_images(config: TensorConfig) -> GeneratorImages:
    """The unshifted action."""
    return unshifted(rho_prime_images(config))


def rho_prime_images(config: TensorConfig, corrupt_gamma: Optional[str] = None) -> GeneratorImages:
    """The shifted action, under which boundary eigenvalues are contents: a
    :class:`SummedImages` that builds each swap and each polynomial
    generator from its definition (module docstring) when it is first read;
    :func:`unshifted` adds the constants back.

    With ``corrupt_gamma`` ('parity' or 'koszul') every split Casimir is
    built with a wrong sign, which serves as a negative control for the
    relation suite.
    """
    if config.n_factors < 2:
        raise ValueError("config must contain the two boundary factors")
    return GeneratorImages(config, SummedImages(config, corrupt_gamma), True)


def unshifted(images: GeneratorImages) -> GeneratorImages:
    """The plain images from the shifted ones: x_i and y_i up by kappa_V / 2,
    z_i by kappa_V; the swaps and z_0 are shared.  Each image is built."""
    kv = natural_casimir_scalar(images.config.hp)
    shift = {"x": Fraction(kv, 2), "y": Fraction(kv, 2), "z": kv}
    ops = {name: op.plus_scalar(shift[name[0]]) if name in images.parts and name != "z0" else op
           for name, op in images.ops.items()}
    return replace(images, ops=ops, shifted=False)


def with_unsigned_swaps(images: GeneratorImages) -> GeneratorImages:
    """Copy of the images with plain (non-Koszul) swaps; negative control.

    Dropping the sign of every +-1 entry of a signed swap leaves the plain
    transposition of the two factors.
    """
    swaps = {
        f"t{i}": LinearOp.from_entries(op.dim, ((r, c, abs(v)) for r, c, v in op.entries()))
        for i, op in images.t.items()
    }
    return replace(images, ops={**images.ops, **swaps})


def m_pairs(step: dict, conj) -> dict:
    """``{(i, j): m_{i,j}}`` for 1 <= i < j from ``step = {i: m_{i,i+1}}``:
    ``m_{i,j}`` is ``m_{j-1,j}`` conjugated by ``t_i``, .., ``t_{j-2}``, ..,
    ``t_i`` in turn, with ``conj(X, k)`` the conjugate ``t_k X t_k``, so by
    the palindromic word ``t_i .. t_{j-2} .. t_i``, the transposition of the
    copies i and j - 1.  Operators and parts forms alike."""
    out = {}
    for j in range(2, len(step) + 2):
        for i in range(j - 1, 0, -1):
            f = step[j - 1]
            for k in (*range(i, j - 1), *range(j - 3, i - 1, -1)):
                f = conj(f, k)
            out[(i, j)] = f
    return out


def by_construction(images: GeneratorImages) -> bool:
    """Whether every image is its definition by construction: ``images.ops``
    is a :class:`SummedImages` built with no ``corrupt`` mode on
    ``images.config`` itself, so a swap ``t_i`` is ``signed_swap(v_i)`` and
    any other image the sum of ``split_casimir_op(p, q)`` over its
    ``parts``.  The one premise of every certificate; nothing is built."""
    ops = images.ops
    return isinstance(ops, SummedImages) and ops.corrupt is None and ops.config is images.config


def _combine(*terms) -> Optional[dict]:
    """The parts form of the sum of ``c * X`` over the ``(c, f)`` terms, for
    ``X`` of parts form ``f``, or None when a term's form is None (not
    known).  A parts form maps each factor pair ``(p, q)`` to the
    coefficient of its split Casimir; no coefficient is zero, so ``{}`` is
    the zero operator."""
    out: dict = {}
    for c, f in terms:
        if f is None:
            return None
        for key, v in f.items():
            nv = out.get(key, 0) + c * v
            if nv:
                out[key] = nv
            else:
                out.pop(key, None)
    return out


def _swapped(legs: tuple, pos: int) -> tuple:
    """The increasing ``legs`` with ``pos`` and ``pos + 1`` interchanged."""
    swap = {pos: pos + 1, pos + 1: pos}
    return tuple(sorted(swap.get(p, p) for p in legs))


class LocalProofs:
    """Identities of split Casimirs, swaps and units on a config, each
    decided on the local config of its legs (:meth:`TensorConfig.local`)
    and kept by that config's key, so a decision is made once per modules
    however often, and at whatever d, it is asked for.  The module
    docstring has the transport lemma that makes each a proof; its premise
    is :attr:`graded`, which every method reads."""

    def __init__(self, config: TensorConfig):
        self.config = config
        r = config.hp.rank
        # every unit E(i,j), in the order the centralizer reports them
        self.units = [(i, j) for i in range(1, r + 1) for j in range(1, r + 1)]
        # the lemma's premise, read once per module object: it trades signs
        # by the parity each unit moves
        self.graded = all(f.units_graded() for f in {id(f): f for f in config.factors}.values())
        self._memo: dict = {}

    def units_commuting(self, pair: tuple, swap: bool = False) -> set:
        """The units of :attr:`units` whose action commutes with the split
        Casimir on the factor ``pair``, or with the swap of it when ``swap``
        (then the pair is adjacent); none when a factor is not graded."""
        if not self.graded:
            return set()
        key, local, where = self.config.local(pair)
        memo_key = ("units", swap, key)
        if memo_key not in self._memo:
            a, b = where[pair[0]], where[pair[1]]
            op = local.signed_swap(a) if swap else local.split_casimir_op(a, b)
            self._memo[memo_key] = {u for u in self.units if not op.commutator(local.act_unit(*u)).cols}
        return self._memo[memo_key]

    def swap_words_agree(self, lhs: tuple, rhs: tuple) -> bool:
        """Whether the products of the swaps ``signed_swap(p)`` over the
        positions ``p`` of ``lhs`` and over those of ``rhs``, in order, are
        equal, decided on the local config of their legs ``p, p + 1``; no
        when a factor is not graded."""
        if not self.graded:
            return False
        key, local, where = self.config.local(sorted({q for p in lhs + rhs for q in (p, p + 1)}))
        words = tuple(tuple(where[p] for p in word) for word in (lhs, rhs))
        memo_key = ("words", key, words)
        if memo_key not in self._memo:
            products = []
            for word in words:
                op = LinearOp.identity(local.dim)
                for a in word:
                    op = op @ local.signed_swap(a)
                products.append(op.cols)
            self._memo[memo_key] = products[0] == products[1]
        return self._memo[memo_key]

    def conjugates(self, pos: int, legs: tuple) -> bool:
        """Whether the swap ``t = signed_swap(pos)`` has ``t t = 1`` and, for
        a factor pair ``legs``, ``t Gamma(legs) t = Gamma(legs')``, with
        ``legs'`` the pair with ``pos`` and ``pos + 1`` interchanged; decided
        on the local config of the legs of both (the transport lemma's
        relabelling), and no when a factor is not graded."""
        if not self.swap_words_agree((pos, pos), ()):
            return False
        key, local, where = self.config.local(sorted({pos, pos + 1, *legs}))
        a, pair = where[pos], tuple(where[p] for p in legs)
        memo_key = ("conjugates", key, a, pair)
        if memo_key not in self._memo:
            # a pair the swap fixes (off its legs, or on both) is its own image
            image = _swapped(pair, a)
            gamma = local.split_casimir_op(*pair)
            other = gamma if image == pair else local.split_casimir_op(*image)
            t = local.signed_swap(a)
            self._memo[memo_key] = (t @ gamma @ t).cols == other.cols
        return self._memo[memo_key]

    def swap_is_gamma(self, pos: int) -> bool:
        """Whether ``signed_swap(pos)`` is the split Casimir on the factors
        ``pos`` and ``pos + 1``, decided on the local config of the two; no
        when a factor is not graded."""
        if not self.graded:
            return False
        key, local, where = self.config.local((pos, pos + 1))
        memo_key = ("swap=gamma", key)
        if memo_key not in self._memo:
            a = where[pos]
            self._memo[memo_key] = local.signed_swap(a).cols == local.split_casimir_op(a, a + 1).cols
        return self._memo[memo_key]

    def quadratic_vanishes(self, pair: tuple, c1, c2) -> bool:
        """Whether ``(Gamma + c1)(Gamma + c2) = 0`` for the split Casimir on
        the factor ``pair``, decided on the local config of its legs; no
        when a factor is not graded."""
        if not self.graded:
            return False
        key, local, where = self.config.local(pair)
        memo_key = ("quadratic", key, c1, c2)
        if memo_key not in self._memo:
            gamma = local.split_casimir_op(where[pair[0]], where[pair[1]])
            self._memo[memo_key] = not (gamma.plus_scalar(c1) @ gamma.plus_scalar(c2)).cols
        return self._memo[memo_key]

    def _relator_vanishes(self, q: tuple, e: int) -> bool:
        # [Gamma(a,b), Gamma(a,e) + Gamma(b,e)] = 0 on the local config of
        # the legs a, b, e, for q = (a, b)
        key, local, where = self.config.local(sorted((*q, e)))
        a, b, c = where[q[0]], where[q[1]], where[e]
        memo_key = ("4T", key, a, b)
        if memo_key not in self._memo:
            gamma = local.split_casimir_op
            others = gamma(*sorted((a, c))) + gamma(*sorted((b, c)))
            self._memo[memo_key] = not gamma(a, b).commutator(others).cols
        return self._memo[memo_key]

    def bracket_vanishes(self, left: list, right: list) -> bool:
        """Whether the sum of ``[Gamma_p, Gamma_q]`` over ``p`` in ``left`` and
        ``q`` in ``right`` (factor pairs, each increasing) vanishes by local
        identities.  A term on one pair twice is zero, and so is a term on
        two disjoint pairs, by the transport lemma.  Every other term shares
        one leg of ``q = (a, b)`` and has one more leg ``e``, and the terms
        of one ``(q, e)`` must be ``[Gamma(a,e), Gamma_q]`` and
        ``[Gamma(b,e), Gamma_q]`` equally often: together they are that
        multiple of the 4T relator ``-[Gamma_q, Gamma(a,e) + Gamma(b,e)]``,
        decided on the three legs.  When the terms do not group so, the
        answer is no, and so it is when a factor is not graded."""
        if not self.graded:
            return False
        groups: dict = {}
        for p in left:
            for q in right:
                common = set(p) & set(q)
                if len(common) == 1:
                    ((c,), (e,)) = common, set(p) - common
                    groups.setdefault((q, e), Counter())[c] += 1
        for (q, e), legs in groups.items():
            if legs[q[0]] != legs[q[1]] or not self._relator_vanishes(q, e):
                return False
        return True


class _Lines:
    """A relation report, built one line at a time, and the one premise its
    certificates rest on (:func:`by_construction`), checked once.

    ``premise`` is that check.  Under it each swap ``t_i`` is
    ``signed_swap`` on its factors, and ``form`` maps each polynomial image
    to its parts form, the multiset of its factor pairs (:func:`_combine`);
    without it ``form`` is empty.  A line that no certificate proves is its
    residual (:meth:`line`), so it carries the residual's witness.
    """

    def __init__(self, images: GeneratorImages, title: str):
        self.config = images.config
        self.rep = Report(title)
        self.local = LocalProofs(images.config)
        self.premise = by_construction(images)
        self.form = {n: dict.fromkeys(pairs, 1) for n, pairs in images.parts.items()} if self.premise else {}

    def line(self, check_id: str, proved: bool, residual) -> None:
        """Add the line: passed when ``proved``, else the check that the
        operator ``residual()`` vanishes."""
        self.rep.add(Check(check_id, True) if proved else zero_check(check_id, residual(), self.config))

    def conj(self, f: Optional[dict], i: int) -> Optional[dict]:
        """The parts form of ``t_i X t_i``, for ``X`` of form ``f``: its pairs
        relabelled, ``v_i`` and ``v_{i+1}`` interchanged, once ``t_i``
        conjugates each of them (:meth:`LocalProofs.conjugates`); None when
        not known.  A form is known only under :attr:`premise`, so ``t_i``
        is then ``signed_swap``."""
        pos = v_position(i)
        if f is None or not all(self.local.conjugates(pos, key) for key in f):
            return None
        return {_swapped(key, pos): v for key, v in f.items()}

    def fixed(self, f: Optional[dict], i: int) -> bool:
        """Whether the form ``f`` is known and ``t_i`` conjugates it to itself."""
        return _combine((1, self.conj(f, i)), (-1, f)) == {}

    def step(self, name: str, i: int) -> Optional[dict]:
        """The parts form of ``x_{i+1} - t_i x_i t_i`` for ``name`` "x", and
        of its counterpart for "y"."""
        form = self.form
        return _combine((1, form.get(f"{name}{i + 1}")), (-1, self.conj(form.get(f"{name}{i}"), i)))


def verify_braid_relations(images: GeneratorImages) -> Report:
    """Exhaustive exact check of the defining relations on the given space.

    Each line passes by a certificate whose premise is checked first, or
    is its residual, taken on the images as built in the one exact form of
    :mod:`superbraid.linalg`, so a failing line carries the residual's
    witness.  The premise is :func:`by_construction`, checked once by
    :class:`_Lines`; without it every line is its residual.

    - Parts forms.  The swap ``t_i``, ``signed_swap``, conjugates a
      parts form by relabelling its pairs, with ``v_i`` and ``v_{i+1}``
      interchanged, once ``t_i^2 = 1`` and ``t_i Gamma(p,q) t_i`` is the
      relabelled ``Gamma`` for each of them, decided on the local config of
      their legs (:meth:`LocalProofs.conjugates`).  R1 and R3 pass when the
      form is fixed by the relabelling, as ``[X, t] = (X - t X t) t``.  The
      ``m_{i,j}`` are forms too, built by :func:`m_pairs` as the fallback
      operators are, and an R4, R5, R6 or ``m(i,j)`` line passes when the
      form of its residual is zero.
    - The ``sym`` lines are words in the swaps, decided on the local config
      of their legs (:meth:`LocalProofs.swap_words_agree`).
    - An ``R2`` line ``[z_0+..+z_i, x_j]`` (or ``y_j``) passes when every
      image in it has a parts form and the commutator of those sums
      vanishes by local 4T relators (:meth:`LocalProofs.bracket_vanishes`).
      Otherwise the line is the commutator with the prefix sum.

    An image is read only inside a residual.  So a passing report on the
    images of :func:`rho_prime_images` takes no product and builds no swap,
    image or split Casimir on the whole space.
    """
    lines = _Lines(images, "braid relations" + (" (shifted)" if images.shifted else ""))
    line, conj, fixed, form, local = lines.line, lines.conj, lines.fixed, lines.form, lines.local
    premise = lines.premise
    config = images.config
    d = images.d
    t, x, y, z = images.t, images.x, images.y, images.z

    for i in range(1, d):
        pos = v_position(i)
        proved = premise and local.swap_words_agree((pos, pos), ())
        line(f"sym:t{i}^2=1", proved, lambda: t[i] @ t[i] - LinearOp.identity(config.dim))
    for i in range(1, d - 1):
        pos = v_position(i)
        proved = premise and local.swap_words_agree((pos, pos + 1, pos), (pos + 1, pos, pos + 1))
        line(f"sym:braid(t{i},t{i + 1})", proved, lambda: t[i] @ t[i + 1] @ t[i] - t[i + 1] @ t[i] @ t[i + 1])
    for i in range(1, d):
        for j in range(i + 2, d):
            p, q = v_position(i), v_position(j)
            proved = premise and local.swap_words_agree((p, q), (q, p))
            line(f"sym:[t{i},t{j}]", proved, lambda: t[i].commutator(t[j]))

    for family in "xyz":
        for i in range(0 if family == "z" else 1, d + 1):
            name = f"{family}{i}"
            for j in range(1, d):
                if i not in (j, j + 1):
                    line(f"R1:[{name},t{j}]", fixed(form.get(name), j), lambda: images.ops[name].commutator(t[j]))

    @functools.cache
    def prefix(i: int) -> LinearOp:
        # z_0 + .. + z_i, summed when a residual needs it
        return op_sum([images.z0, *(z[k] for k in range(1, i + 1))])

    for j in range(1, d + 1):
        for i in range(j, d + 1):
            names = ["z0", *(f"z{k}" for k in range(1, i + 1))]
            prefix_parts = [pair for name in names for pair in images.parts[name]]
            for name, fam in (("x", x), ("y", y)):
                proved = form.keys() >= {*names, f"{name}{j}"} and local.bracket_vanishes(
                    prefix_parts, images.parts[f"{name}{j}"]
                )
                line(f"R2:[z0+..+z{i},{name}{j}]", proved, lambda: prefix(i).commutator(fam[j]))

    for i in range(1, d):
        for name, fam in (("x", x), ("y", y)):
            f = _combine((1, form.get(f"{name}{i}")), (1, form.get(f"{name}{i + 1}")))
            line(f"R3:[t{i},{name}{i}+{name}{i + 1}]", fixed(f, i), lambda: t[i].commutator(fam[i] + fam[i + 1]))

    # the parts forms of x_{i+1} - t_i x_i t_i and its y counterpart, and of
    # the m_{i,j} from the first
    mf = {name: {i: lines.step(name, i) for i in range(1, d)} for name in ("x", "y")}
    pair = m_pairs(mf["x"], conj)

    @functools.cache
    def whole() -> dict:
        # the operators of those forms, built when a line falls back
        def conj_op(op: LinearOp, k: int) -> LinearOp:
            return t[k] @ op @ t[k]

        ops = {name: {i: fam[i + 1] - conj_op(fam[i], i) for i in range(1, d)} for name, fam in (("x", x), ("y", y))}
        return {**ops, "pair": m_pairs(ops["x"], conj_op)}

    for name in ("x", "y"):
        for i in range(1, d - 1):
            f = _combine((1, conj(conj(mf[name][i], i + 1), i)), (-1, mf[name][i + 1]))
            line(
                f"R4:{name},i={i}",
                f == {},
                lambda: t[i] @ t[i + 1] @ whole()[name][i] @ t[i + 1] @ t[i] - whole()[name][i + 1],
            )

    for i in range(1, d):
        proved = _combine((1, mf["x"][i]), (-1, mf["y"][i])) == {}
        line(f"R5:i={i}", proved, lambda: whole()["x"][i] - whole()["y"][i])

    for j in range(1, d + 1):
        f = _combine(
            (1, form.get(f"z{j}")),
            (-1, form.get(f"x{j}")),
            (-1, form.get(f"y{j}")),
            *((1, pair[(i, j)]) for i in range(1, j)),
        )

        def r6() -> LinearOp:
            m_j = op_sum([LinearOp(config.dim), *(whole()["pair"][(i, j)] for i in range(1, j))])
            return z[j] - (x[j] + y[j] - m_j)

        line(f"R6:z{j}=x{j}+y{j}-m{j}", f == {}, r6)

    for (i, j), f in sorted(pair.items()):
        gamma = (v_position(i), v_position(j))
        line(
            f"m({i},{j})=split-casimir",
            _combine((1, f), (-1, {gamma: 1})) == {},
            lambda: whole()["pair"][(i, j)] - config.split_casimir_op(*gamma),
        )
    return lines.rep


def verify_hecke_relations(images: GeneratorImages, a: int, p: int, b: int, q: int) -> Report:
    """The quotient relations for boundary rectangles (a^p) and (b^q).

    Meaningful for the shifted images; the quadratic relations encode that
    the boundary eigenvalues are the two possible added-box contents.  Each
    line passes by a certificate under the premise of :class:`_Lines`, or
    is its residual, as in :func:`verify_braid_relations`:

    - ``(x1-a)(x1+p)=0`` passes when ``(Gamma - a)(Gamma + p) = 0`` for the
      one split Casimir ``Gamma`` of ``x_1`` on the local config of its
      legs, ``M (x) V`` (:meth:`LocalProofs.quadratic_vanishes`); the
      ``y_1`` line likewise, on ``N (x) V``.
    - ``t{i}=split-casimir(i,i+1)`` passes when ``signed_swap`` is that
      split Casimir on ``V (x) V`` (:meth:`LocalProofs.swap_is_gamma`).
    - ``x{i+1}=t{i}x{i}t{i}+t{i}`` passes when, moreover, the form of
      ``x_{i+1} - t_i x_i t_i`` (:meth:`_Lines.step`) is that split Casimir
      alone; the ``y`` line likewise.

    So a passing report on the images of :func:`rho_prime_images` reads no
    image and takes no product, unit or split Casimir on the whole space.
    """
    title = f"hecke relations a={a} p={p} b={b} q={q}"
    if images.d < 1:
        return Report(title)
    lines = _Lines(images, title)
    config, ops, t, local = images.config, images.ops, images.t, lines.local
    for name, c1, c2 in (("x", a, p), ("y", b, q)):
        gen = f"{name}1"
        (pair,) = images.parts[gen]
        proved = gen in lines.form and local.quadratic_vanishes(pair, -c1, c2)

        def quadratic() -> LinearOp:
            op = ops[gen]
            return op.plus_scalar(-c1) @ op.plus_scalar(c2)

        lines.line(f"hecke:({gen}-{c1})({gen}+{c2})=0", proved, quadratic)
    for i in range(1, images.d):
        gamma = (v_position(i), v_position(i + 1))
        is_gamma = lines.premise and local.swap_is_gamma(gamma[0])
        for name in ("x", "y"):
            proved = is_gamma and lines.step(name, i) == {gamma: 1}
            line_id = f"hecke:{name}{i + 1}=t{i}{name}{i}t{i}+t{i}"
            lines.line(line_id, proved, lambda: ops[f"{name}{i + 1}"] - (t[i] @ ops[f"{name}{i}"] @ t[i] + t[i]))
        lines.line(f"hecke:t{i}=split-casimir({i},{i + 1})", is_gamma, lambda: t[i] - config.split_casimir_op(*gamma))
    return lines.rep


def verify_centralizer(images: GeneratorImages) -> Report:
    """Every generator image commutes exactly with the full diagonal action:
    one line ``[X,E(i,j)]`` per image ``X`` and each of the ``r^2`` units,
    in ``(i, j)`` order.

    Under the premise of :class:`_Lines` a line passes by linearity:
    ``[X, E]`` is the sum of ``[Gamma, E]`` over the split Casimirs
    ``Gamma`` of ``X``'s parts form, so the line passes when each of them
    commutes with ``E``, decided on the local config of its two legs
    (:meth:`LocalProofs.units_commuting`) once per module pair:
    ``M (x) N``, ``M (x) V``, ``N (x) V`` and ``V (x) V``, whatever lies
    between the legs (the module docstring's transport lemma, which holds
    for any unit).  A swap ``t_i``, which is ``signed_swap``, is decided
    on ``V (x) V`` the same way.

    Any other line is the direct residual ``X.commutator(E)``, so every
    failing line carries the witness the full ``r^2`` check would give, and
    an image is read only for such a residual.  So a passing report on the
    images of :func:`rho_prime_images` takes no commutator on the whole
    space and builds no whole-space unit, swap, image or split Casimir.
    Only each line's :class:`Check` is kept, never its residual.
    """
    lines = _Lines(images, "centralizer")
    config, local = images.config, lines.local
    for name in generator_names(images.d):
        proved = set()
        if name in lines.form:
            proved = set.intersection(*(local.units_commuting(pair) for pair in lines.form[name]))
        elif lines.premise:
            pos = v_position(int(name[1:]))
            proved = local.units_commuting((pos, pos + 1), swap=True)
        for i, j in local.units:
            check_id = f"[{name},E({i},{j})]"
            lines.line(check_id, (i, j) in proved, lambda: images.ops[name].commutator(config.act_unit(i, j)))
    return lines.rep
