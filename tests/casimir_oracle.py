"""The paper's definition of the polynomial generators, kept as a test oracle.

The package assembles x_i, y_i, z_i and z_0 from split Casimirs; here they
are built literally as halved differences of coproduct Casimirs on growing
factor prefixes, from single-factor embeddings alone.  Each embedding
id (x) .. (x) E_ij (x) .. (x) id is chained one graded tensor product at a
time by :func:`koszul_tensor_op`, so the oracle shares no sign code with
the assembly it checks.  A graded operator here is a pair ``(op, parities)``,
the operator and the parity of each basis vector it acts on; the oracle
grows the parities of each product itself, from the factors' alone.
"""

from fractions import Fraction
from functools import reduce
from typing import Optional

from superbraid.braid import POS_M, POS_N, v_position
from superbraid.linalg import LinalgError, LinearOp
from superbraid.superalgebra import index_parity, natural_casimir_scalar

from op_helpers import scaled


class NotHomogeneousError(LinalgError):
    """Operator mixes parities and a homogeneous one was required."""


def tensor_space(u: tuple, w: tuple) -> tuple:
    """Parities of the tensor product basis of bases with parities ``u`` and
    ``w``, in row-major order (u index slow): parity is additive."""
    return tuple((pu + pw) % 2 for pu in u for pw in w)


def parity(op: LinearOp, par: tuple) -> Optional[int]:
    """Z2 parity of ``op``, on a basis with parities ``par``, when
    homogeneous; None for the zero operator."""
    found = None
    for j, col in op.cols.items():
        for i in col:
            this = (par[i] + par[j]) % 2
            if found is None:
                found = this
            elif found != this:
                raise NotHomogeneousError("operator mixes parities")
    return found


def koszul_tensor_op(left: tuple, right: tuple) -> tuple:
    """Graded tensor product of homogeneous graded operators ``(op,
    parities)``, as one such pair.

    (a (x) b)(u (x) w) = (-1)^(|b| |u|) (a u) (x) (b w); the sign reads the
    parity of the column-side basis vector of the first factor.
    """
    (a, sa), (b, sb) = left, right
    par_b = parity(b, sb)
    parity(a, sa)  # raises if non-homogeneous
    if par_b is None:
        par_b = 0
    dim_b = len(sb)
    out = LinearOp(len(sa) * dim_b)
    for ja, cola in a.cols.items():
        sign = -1 if (par_b and sa[ja] % 2) else 1
        for jb, colb in b.cols.items():
            j = ja * dim_b + jb
            for ia, va in cola.items():
                for ib, vb in colb.items():
                    out.add_entry(ia * dim_b + ib, j, sign * va * vb)
    return out, tensor_space(sa, sb)


def unit_embeddings(config):
    """{(pos, i, j): E_ij on factor ``pos`` and the identity on every other factor}."""
    r = config.hp.rank
    out = {}
    for pos in range(config.n_factors):
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                legs = [
                    (f.units[(i, j)] if t == pos else LinearOp.identity(f.dim), f.parities)
                    for t, f in enumerate(config.factors)
                ]
                out[(pos, i, j)] = reduce(koszul_tensor_op, legs)[0]
    return out


def coproduct_unit(config, embeddings, positions, i, j):
    """E_ij acting through the coproduct on the factors at ``positions``."""
    out = LinearOp(config.dim)
    for pos in positions:
        out = out + embeddings[(pos, i, j)]
    return out


def coproduct_casimir(config, embeddings, positions):
    """sum (-1)^parity(j) D(E_ij) D(E_ji), D the coproduct action on ``positions``."""
    r = config.hp.rank
    out = LinearOp(config.dim)
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            d_ij = coproduct_unit(config, embeddings, positions, i, j)
            term = d_ij @ coproduct_unit(config, embeddings, positions, j, i)
            out = out + (scaled(term, Fraction(-1)) if index_parity(j, config.hp) else term)
    return out


def casimir_difference_images(config):
    """The unshifted (x, y, z, z0): x_i = (C(M v_1..v_i) - C(M v_1..v_{i-1})) / 2,
    y_i likewise with N, z_i = (C(M N v_1..v_i) - C(M N v_1..v_{i-1})) / 2 + kappa_V / 2
    and z_0 = (C(M N) - C(M) - C(N)) / 2."""
    d = config.n_factors - 2
    half = Fraction(1, 2)
    kv = Fraction(natural_casimir_scalar(config.hp))
    vs = [v_position(k) for k in range(1, d + 1)]
    emb = unit_embeddings(config)
    k_m = [coproduct_casimir(config, emb, [POS_M] + vs[:i]) for i in range(d + 1)]
    k_n = [coproduct_casimir(config, emb, [POS_N] + vs[:i]) for i in range(d + 1)]
    k_mn = [coproduct_casimir(config, emb, [POS_M, POS_N] + vs[:i]) for i in range(d + 1)]
    x = {i: scaled(k_m[i] - k_m[i - 1], half) for i in range(1, d + 1)}
    y = {i: scaled(k_n[i] - k_n[i - 1], half) for i in range(1, d + 1)}
    z = {i: scaled(k_mn[i] - k_mn[i - 1], half).plus_scalar(kv * half) for i in range(1, d + 1)}
    return x, y, z, scaled(k_mn[0] - k_m[0] - k_n[0], half)
