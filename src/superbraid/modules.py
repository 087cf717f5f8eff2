"""Explicit polynomial irreducibles of gl(n|m), built one box at a time.

A module L(lambda) is realized recursively.  Let lambda^- be lambda minus
the last box of its last row; that box is always removable, and removing it
keeps a hook a hook.  By the Pieri rule for hook Schur functions
(Berele-Regev, Adv. Math. 64, 1987), L(lambda) occurs exactly once in
L(lambda^-) (x) V.  So realize L(lambda^-) first, find the one highest
weight vector of weight lambda in L(lambda^-) (x) V, and close it under the
lowering operators breadth-first with exact rank checks.  The closure is
the whole submodule (words in lowering operators span it once the start
vector is killed by all raising operators), and sitting inside a
semisimple product it is automatically irreducible.  The empty diagram is
the trivial module, the empty tensor product.

Finished modules are kept in a process-wide memo keyed by (lambda, (n, m)),
so the chain of parents is built once however many callers ask for it.
Each is a :class:`superbraid.superalgebra.RealizedModule`, the same type
as the natural module V = L(1), so it enters a tensor product as it is.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import GradedSpace, LinearOp, RowReducer, Subspace, kernel_intersection
from .partitions import (
    HookProfile,
    Partition,
    addable_hook_positions,
    content,
    hook_to_weight,
)
from .superalgebra import (
    RealizedModule,
    TensorConfig,
    natural_factor,
    tensor_power_config,
)

DEFAULT_DIM_CAP = 20000


class CapExceededError(RuntimeError):
    """Requested ambient space is larger than the configured cap."""


class ConstructionError(RuntimeError):
    """Module realization failed an internal exactness check."""


# (partition, hook profile) -> RealizedModule.  Only finished modules are
# kept; the product spaces they were cut out of are dropped after use.
_REALIZED: dict = {}


def raising_units(hp: HookProfile) -> list:
    """Simple raising pairs (i, i+1); they generate the whole upper part."""
    return [(i, i + 1) for i in range(1, hp.rank)]


def lowering_units(hp: HookProfile) -> list:
    return [(j, i) for i in range(1, hp.rank + 1) for j in range(i + 1, hp.rank + 1)]


def highest_weight_vectors(config: TensorConfig, w: Sequence) -> Subspace:
    """Weight-w vectors killed by every simple raising operator."""
    within = config.weight_subspace(w)
    ops = [config.act_unit(i, j) for (i, j) in raising_units(config.hp)]
    return kernel_intersection(ops, within)


def check_cap(dim: int, cap: Optional[int]) -> None:
    limit = DEFAULT_DIM_CAP if cap is None else cap
    if dim > limit:
        raise CapExceededError(f"ambient dimension {dim} exceeds cap {limit}")


def _remove_last_box(p: Partition) -> Partition:
    """lambda^-: lambda without the last box of its last row."""
    return p[:-1] + ((p[-1] - 1,) if p[-1] > 1 else ())


def _times_natural(mod: RealizedModule) -> TensorConfig:
    """L(mu) (x) V, the space of one Pieri step."""
    return TensorConfig([mod, natural_factor(mod.hp)], mod.hp)


def _pieri_vector(config: TensorConfig, lam: Partition, mu: Partition) -> dict:
    """The highest weight vector of L(lam) inside L(mu) (x) V.

    The Pieri rule makes it unique up to scale; any other count of highest
    weight vectors is a construction fault.
    """
    hwv = highest_weight_vectors(config, hook_to_weight(lam, config.hp))
    if hwv.dim != 1:
        raise ConstructionError(
            f"summand {lam} of {mu} (x) V has multiplicity {hwv.dim}, expected 1"
        )
    return hwv.vectors[0]


def realize_module(p: Partition, hp: HookProfile, cap: Optional[int] = None) -> RealizedModule:
    """Realize L(lambda) for a hook diagram lambda inside L(lambda^-) (x) V.

    Walks the chain () = lambda_0, lambda_1, .., lambda_k = lambda, each
    lambda_t being lambda_(t+1)^-, and builds whatever the memo lacks.
    ``cap`` bounds every step L(lambda_t) (x) V, memoized or not, so a
    module is refused exactly when building it afresh would be.
    """
    chain = [tuple(p)]
    while chain[-1]:
        chain.append(_remove_last_box(chain[-1]))
    mod = None
    for lam in reversed(chain):
        parent = mod
        if parent is not None:
            check_cap(parent.dim * hp.rank, cap)
        mod = _REALIZED.get((lam, hp))
        if mod is None:
            if parent is None:
                ambient = tensor_power_config(hp, 0)
                start = {0: Fraction(1)}
            else:
                ambient = _times_natural(parent)
                start = _pieri_vector(ambient, lam, parent.partition)
            mod = _REALIZED[(lam, hp)] = lowering_closure(lam, ambient, start)
    return mod


def lowering_closure(p: Partition, ambient: TensorConfig, start: dict) -> RealizedModule:
    """The submodule generated by the highest weight vector ``start`` of L(p),
    with its generator matrices on the closure basis."""
    hp = ambient.hp
    w = hook_to_weight(p, hp)
    reducer = RowReducer()
    reducer.add(start)
    basis = [start]
    basis_weights = [tuple(w)]
    lowering = [(pair, ambient.act_unit(*pair)) for pair in lowering_units(hp)]
    frontier = [0]
    while frontier:
        next_frontier = []
        for bi in frontier:
            vec = basis[bi]
            wt = basis_weights[bi]
            for (j, i), op in lowering:
                img = op.apply(vec)
                if img and reducer.add(img):
                    basis.append(img)
                    new_wt = list(wt)
                    new_wt[i - 1] -= 1
                    new_wt[j - 1] += 1
                    basis_weights.append(tuple(new_wt))
                    next_frontier.append(len(basis) - 1)
        frontier = next_frontier

    sub = Subspace(ambient.space, basis)
    parities = tuple(
        sum(wt[hp.n :]) % 2 for wt in basis_weights
    )
    own_space = GradedSpace(parities)
    units = {}
    for i in range(1, hp.rank + 1):
        for j in range(1, hp.rank + 1):
            full = ambient.act_unit(i, j)
            mat = LinearOp(own_space)
            for col, bvec in enumerate(basis):
                coords = sub.coordinates(full.apply(bvec))
                if coords is None:
                    raise ConstructionError("lowering closure is not a submodule")
                for row, val in coords.items():
                    mat.add_entry(row, col, val)
            units[(i, j)] = mat
    return RealizedModule(p, hp, tuple(w), own_space, tuple(basis_weights), units)


def module_tensor_config(
    alpha: Partition, beta: Partition, d: int, hp: HookProfile, cap: Optional[int] = None
) -> TensorConfig:
    """The space L(alpha) (x) L(beta) (x) V^d with its full diagonal action.

    Factor positions: 0 is the left boundary module, 1 the right one, and
    2..d+1 the natural-module copies.
    """
    m_mod = realize_module(alpha, hp, cap)
    n_mod = realize_module(beta, hp, cap)
    check_cap(m_mod.dim * n_mod.dim * hp.rank ** d, cap)
    v = natural_factor(hp)
    return TensorConfig([m_mod, n_mod] + [v] * d, hp)


def kappa_scalar(mod: RealizedModule) -> Fraction:
    """The (verified) scalar of the quadratic Casimir on a realized module.

    Evaluates the Casimir as an operator from the generator matrices and
    insists it is scalar; never assumes the closed pairing formula, which
    is exactly what the caller wants to cross-check.
    """
    if mod.dim == 0:
        raise ConstructionError("zero module has no Casimir scalar")
    own = TensorConfig([mod], mod.hp)
    op = own.casimir_op()
    scalar = None
    for j in range(mod.dim):
        col = op.cols.get(j, {})
        diag = col.get(j, Fraction(0))
        off = {i: v for i, v in col.items() if i != j}
        if off:
            raise ConstructionError(f"Casimir not diagonal on {mod.partition}: column {j} has {off}")
        if scalar is None:
            scalar = diag
        elif scalar != diag:
            raise ConstructionError(f"Casimir not scalar on {mod.partition}: {scalar} vs {diag}")
    return scalar


def pieri_summands(mu: Partition, hp: HookProfile, cap: Optional[int] = None) -> list:
    """Decompose L(mu) (x) V and read off the split-Casimir eigenvalues.

    Returns one record per summand: the extended partition, the added box,
    the predicted content and the observed eigenvalue on the summand's
    highest weight vector.
    """
    m_mod = realize_module(mu, hp, cap)
    check_cap(m_mod.dim * hp.rank, cap)
    config = _times_natural(m_mod)
    gamma = config.split_casimir_op(0, 1)
    records = []
    for lam, box in addable_hook_positions(mu, hp):
        vec = _pieri_vector(config, lam, mu)
        image = gamma.apply(vec)
        anchor = next(iter(vec))
        observed = image.get(anchor, Fraction(0)) / vec[anchor]
        if image != {k: observed * v for k, v in vec.items() if observed * v}:
            raise ConstructionError(f"split Casimir not scalar on summand {lam}")
        records.append(
            {
                "partition": lam,
                "box": box,
                "predicted": content(box),
                "observed": observed,
                "ok": observed == content(box),
            }
        )
    return records


def module_to_json(mod: RealizedModule) -> str:
    """Sparse JSON dump: weight, dimension, generator matrices as quadruples."""
    gens = {}
    for (i, j), op in sorted(mod.units.items()):
        entries = [
            [r, c, v.numerator, v.denominator] for r, c, v in op.entries()
        ]
        gens[f"E({i},{j})"] = entries
    payload = {
        "schema": 1,
        "partition": list(mod.partition),
        "weight": list(mod.highest_weight),
        "dimension": mod.dim,
        "generators": gens,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
