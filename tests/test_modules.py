import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

from superbraid import modules
from superbraid.linalg import LinearOp, NotInvariantError, Subspace, restrict_op
from superbraid.modules import (
    CapExceededError,
    ConstructionError,
    highest_weight_vectors,
    kappa_scalar,
    lowering_closure,
    lowering_units,
    module_tensor_config,
    module_to_json,
    pieri_summands,
    realize_module,
)
from superbraid.superalgebra import RealizedModule, TensorConfig, natural_factor, tensor_power_config
from superbraid.partitions import HookProfile, hook_to_weight, is_hook
from superbraid.schur import partitions_of
from superbraid.superalgebra import casimir_pairing, natural_casimir_scalar, unit_parity

from op_helpers import scaled
from schur_oracle import hook_dimension, hook_tableau_weights

HP11 = HookProfile(1, 1)
HP21 = HookProfile(2, 1)
HP12 = HookProfile(1, 2)
HP22 = HookProfile(2, 2)
HP31 = HookProfile(3, 1)


def realize_in_tensor_power(p, hp):
    """The direct route, kept as an oracle: L(p) as the lowering closure of
    a highest weight vector inside V^(|p|)."""
    ambient = tensor_power_config(hp, sum(p))
    hwv = highest_weight_vectors(ambient, hook_to_weight(p, hp))
    return lowering_closure(p, ambient, hwv.vectors[0])


def full_restriction_closure(p, ambient, start):
    """The lowering closure of ``start`` with every one of the r^2 unit
    matrices found by restricting the ambient unit to it, one coordinate
    solve per basis vector per unit; kept as the oracle for the units that
    :func:`lowering_closure` reads off, derives or restricts."""
    hp = ambient.hp
    w = hook_to_weight(p, hp)
    sub = Subspace(ambient.dim, [start])
    basis_weights = [tuple(w)]
    lowering = [(pair, ambient.act_unit(*pair)) for pair in lowering_units(hp)]
    frontier = [0]
    while frontier:
        next_frontier = []
        for bi in frontier:
            vec = sub.vectors[bi]
            wt = basis_weights[bi]
            for (j, i), op in lowering:
                if sub.add(op.apply(vec)):
                    new_wt = list(wt)
                    new_wt[i - 1] -= 1
                    new_wt[j - 1] += 1
                    basis_weights.append(tuple(new_wt))
                    next_frontier.append(sub.dim - 1)
        frontier = next_frontier
    parities = tuple(sum(wt[hp.n :]) % 2 for wt in basis_weights)
    units = {}
    for i in range(1, hp.rank + 1):
        for j in range(1, hp.rank + 1):
            try:
                mat = restrict_op(ambient.act_unit(i, j), sub)
            except NotInvariantError as exc:
                raise ConstructionError("lowering closure is not a submodule") from exc
            units[(i, j)] = LinearOp(len(parities), mat.cols)
    return RealizedModule(p, hp, tuple(w), parities, tuple(basis_weights), units)


def realize_by_full_restriction(lam, hp):
    """The last Pieri step of ``realize_module(lam, hp)``, same ambient space
    L(lam^-) (x) V and same start vector, closed by the r^2-restriction
    oracle."""
    if not lam:
        return full_restriction_closure(lam, tensor_power_config(hp, 0), {0: 1})
    parent = realize_module(lam[:-1] + ((lam[-1] - 1,) if lam[-1] > 1 else ()), hp)
    ambient = TensorConfig([parent, natural_factor(hp)], hp)
    start = highest_weight_vectors(ambient, hook_to_weight(lam, hp)).vectors[0]
    return full_restriction_closure(lam, ambient, start)


def hooks_up_to(size, hp):
    return [lam for total in range(size + 1) for lam in partitions_of(total) if is_hook(lam, hp)]


def test_highest_weight_vectors_on_natural():
    config = tensor_power_config(HP21, 1)
    sub = highest_weight_vectors(config, (1, 0, 0))
    assert sub.dim == 1
    assert sub.vectors[0] == {0: Fraction(1)}


def test_highest_weight_vectors_symmetric_square():
    config = tensor_power_config(HP11, 2)
    sub = highest_weight_vectors(config, (2, 0))
    assert sub.dim == 1


def test_realize_natural():
    mod = realize_module((1,), HP21)
    assert mod.dim == 3
    assert mod.highest_weight == (1, 0, 0)
    # generator matrices coincide with plain matrix units
    assert mod.units[(2, 1)].cols == {0: {1: Fraction(1)}}


@pytest.mark.parametrize("hp", [HP11, HP21, HookProfile(1, 2), HP22, HP31])
def test_natural_factor_is_realized_l1(hp):
    # V is written down by hand; it must be exactly the module the Pieri
    # recursion realizes for the one-box diagram
    v = natural_factor(hp)
    mod = realize_module((1,), hp)
    assert v.partition == mod.partition == (1,)
    assert v.highest_weight == mod.highest_weight
    assert v.parities == mod.parities
    assert v.weights == mod.weights
    assert v.units.keys() == mod.units.keys()
    for key, op in v.units.items():
        assert op.cols == mod.units[key].cols, key


def test_realize_row_and_column_pairs():
    # the two summands of V (x) V at (1,1); the tableau count gives 2 + 2 = 4
    row = realize_module((2,), HP11)
    col = realize_module((1, 1), HP11)
    assert row.dim == hook_dimension((2,), HP11) == 2
    assert col.dim == hook_dimension((1, 1), HP11) == 2
    assert row.dim + col.dim == 4


def test_realize_empty_partition():
    mod = realize_module((), HP11)
    assert mod.dim == 1
    assert kappa_scalar(mod) == 0


@pytest.mark.parametrize("hp", [HP11, HP21, HP22])
def test_dimensions_equal_hook_tableau_counts(hp):
    for total in range(0, 5):
        for lam in partitions_of(total):
            if is_hook(lam, hp):
                assert realize_module(lam, hp).dim == hook_dimension(lam, hp), lam


@pytest.mark.parametrize("hp", [HP11, HP21, HP22])
def test_kappa_scalar_matches_pairing(hp):
    for total in range(0, 5):
        for lam in partitions_of(total):
            if is_hook(lam, hp):
                mod = realize_module(lam, hp)
                assert kappa_scalar(mod) == casimir_pairing(mod.highest_weight, hp), lam


def test_kappa_scalar_explicit_value():
    mod = realize_module((2,), HP11)
    # <2 eps_1, 2 eps_1 + 2 rho> with 2 rho = (-1, 1)
    assert kappa_scalar(mod) == 2


def test_module_closed_under_all_units():
    mod = realize_module((2, 1), HP21)
    config_dim = mod.dim
    for op in mod.units.values():
        for j, col in op.cols.items():
            assert j < config_dim
            assert all(i < config_dim for i in col)


def test_cap_enforced():
    with pytest.raises(CapExceededError):
        realize_module((3, 2), HP22, cap=100)


def test_cap_enforced_on_memoized_module():
    # building (3,2) needs a step L(3,1) (x) V above 100; a module realized
    # earlier without a cap must not slip past that bound
    realize_module((3, 2), HP22)
    with pytest.raises(CapExceededError):
        realize_module((3, 2), HP22, cap=100)
    # the step bound is the product dimension, not |V|^|lambda| = 1024
    step = realize_module((3, 1), HP22).dim * HP22.rank
    assert realize_module((3, 2), HP22, cap=step).dim == hook_dimension((3, 2), HP22)
    with pytest.raises(CapExceededError):
        realize_module((3, 2), HP22, cap=step - 1)


def test_chain_longer_than_recursion_limit():
    # one step per box: a long row at gl(1|1) stays 2-dimensional
    k = sys.getrecursionlimit() + 100
    mod = realize_module((k,), HP11)
    assert mod.dim == 2
    assert kappa_scalar(mod) == casimir_pairing(mod.highest_weight, HP11)


def test_chain_length_budget():
    # each step L(k) (x) V at gl(1|1) is 4-dimensional, but a chain of 60
    # steps of at least 2 dimensions each is refused under a cap of 100
    with pytest.raises(CapExceededError):
        realize_module((60,), HP11, cap=100)


ORACLE_CASES = [(lam, HP22) for lam in hooks_up_to(6, HP22)] + [((4, 4, 4), HP31), ((2, 2), HP31)]


@pytest.mark.parametrize(
    "lam, hp", ORACLE_CASES, ids=[f"{list(lam)}-gl({hp.n}|{hp.m})" for lam, hp in ORACLE_CASES]
)
def test_module_matches_tableau_oracles(lam, hp):
    mod = realize_module(lam, hp)
    assert mod.dim == hook_dimension(lam, hp)
    assert Counter(mod.weights) == Counter(hook_tableau_weights(lam, hp))
    assert kappa_scalar(mod) == casimir_pairing(mod.highest_weight, hp)


@pytest.mark.parametrize("hp", [HP11, HP21, HP22])
def test_module_matches_tensor_power_route(hp):
    for lam in hooks_up_to(4, hp):
        mod = realize_module(lam, hp)
        direct = realize_in_tensor_power(lam, hp)
        assert mod.dim == direct.dim, lam
        assert Counter(mod.weights) == Counter(direct.weights), lam
        assert kappa_scalar(mod) == kappa_scalar(direct), lam


RESTRICTION_CASES = [(lam, hp) for hp in (HP11, HP21, HP12, HP22) for lam in hooks_up_to(5, hp)] + [
    ((4, 4, 4), HP31),
    ((2, 2), HP31),
]


@pytest.mark.parametrize(
    "lam, hp", RESTRICTION_CASES, ids=[f"{list(lam)}-gl({hp.n}|{hp.m})" for lam, hp in RESTRICTION_CASES]
)
def test_units_match_full_restriction(lam, hp):
    # read-off lowering, weight-diagonal Cartan and commutator-built raising
    # units are exactly the restrictions of the ambient units
    mod = realize_module(lam, hp)
    oracle = realize_by_full_restriction(lam, hp)
    assert mod.parities == oracle.parities
    assert mod.weights == oracle.weights
    assert list(mod.units) == list(oracle.units)
    for key, op in oracle.units.items():
        assert mod.units[key].cols == op.cols, key


def test_fresh_module_restricts_only_simple_raising_units(monkeypatch):
    lam, hp = (3, 2, 1), HP22
    realize_module((3, 2), hp)
    monkeypatch.delitem(modules._REALIZED, (lam, hp), raising=False)
    calls = []

    def counting_restrict_op(op, sub):
        calls.append(sub.dim)
        return restrict_op(op, sub)

    monkeypatch.setattr(modules, "restrict_op", counting_restrict_op)
    mod = realize_module(lam, hp)
    # r - 1 = 3 restrictions, each to the whole closure
    assert calls == [mod.dim] * (hp.rank - 1)


def test_closure_of_non_highest_weight_vector_is_refused():
    # e_2 (x) e_1 in V (x) V has the weight of (1,1), but its lowering closure
    # misses E(1,2)(e_2 (x) e_1) = e_1 (x) e_1, so raising invariance fails
    ambient = tensor_power_config(HP21, 2)
    start = {next(i for i in range(ambient.dim) if ambient.decode(i) == (1, 0)): 1}
    with pytest.raises(ConstructionError, match="not a submodule"):
        lowering_closure((1, 1), ambient, start)


def test_closure_from_a_vector_of_another_weight_is_refused():
    # e_1 (x) e_1 is a highest weight vector, of weight (2,0,0), not (1,1,0)
    ambient = tensor_power_config(HP21, 2)
    with pytest.raises(ConstructionError, match="not of weight"):
        lowering_closure((1, 1), ambient, {0: 1})


@pytest.mark.parametrize(
    "lam, hp", [((3, 2, 1), HP22), ((4, 4, 4), HP31), ((3, 2, 1), HP21), ((2, 2, 1), HP12)]
)
def test_realized_units_satisfy_supercommutators(lam, hp):
    # [E_ij, E_kl] = delta_jk E_il - (-1)^(|ij| |kl|) delta_li E_kj
    units = realize_module(lam, hp).units
    for (i, j), a in units.items():
        for (k, l), b in units.items():
            sign = -1 if unit_parity(i, j, hp) and unit_parity(k, l, hp) else 1
            lhs = a @ b - scaled(b @ a, Fraction(sign))
            rhs = LinearOp(a.dim)
            if j == k:
                rhs = rhs + units[(i, l)]
            if l == i:
                rhs = rhs - scaled(units[(k, j)], Fraction(sign))
            assert (lhs - rhs).max_entry_witness() is None, ((i, j), (k, l))


def test_module_tensor_config_dims():
    assert module_tensor_config((1,), (1,), 1, HP11).dim == 8
    assert module_tensor_config((1,), (1,), 2, HP21).dim == 81


def test_config_casimir_commutes_with_action():
    config = module_tensor_config((1,), (1,), 1, HP11)
    kappa = config.casimir_op()
    for i in range(1, 3):
        for j in range(1, 3):
            assert kappa.commutator(config.act_unit(i, j)).max_entry_witness() is None


def test_multiplicity_dimension_bookkeeping():
    # sum over top vertices of dim L * path count = total dimension
    from superbraid.bratteli import build_graph, paths_to

    hp = HP21
    config = module_tensor_config((1,), (1,), 2, hp)
    g = build_graph(1, 1, 1, 1, hp, 2)
    total = 0
    for lam in g.level(2):
        mult = highest_weight_vectors(config, hook_to_weight(lam, hp))
        assert mult.dim == len(paths_to(g, lam))
        total += realize_module(lam, hp).dim * mult.dim
    assert total == config.dim == 81


def test_pieri_empty_and_single_box():
    recs = pieri_summands((), HP11)
    assert [(r["partition"], r["observed"]) for r in recs] == [((1,), Fraction(0))]
    recs = pieri_summands((1,), HP11)
    assert [(r["partition"], r["observed"]) for r in recs] == [
        ((1, 1), Fraction(-1)),
        ((2,), Fraction(1)),
    ]
    assert all(r["ok"] for r in recs)


def test_pieri_rectangle_contents():
    # adding to a rectangle only reaches content a or -p
    recs = pieri_summands((2, 2), HP22)
    got = sorted(r["observed"] for r in recs)
    assert got == [Fraction(-2), Fraction(2)]
    assert all(r["ok"] for r in recs)


@pytest.mark.parametrize("hp", [HP11, HP21, HP22])
def test_pieri_all_small_hooks(hp):
    for total in range(0, 4):
        for mu in partitions_of(total):
            if is_hook(mu, hp):
                assert all(r["ok"] for r in pieri_summands(mu, hp)), mu


def test_module_json_round_trip_shape():
    mod = realize_module((2,), HP11)
    payload = json.loads(module_to_json(mod))
    assert payload["schema"] == 1
    assert payload["dimension"] == 2
    assert payload["weight"] == [2, 0]
    entry = payload["generators"]["E(2,1)"][0]
    assert len(entry) == 4  # row, col, numerator, denominator
    # byte stability
    assert module_to_json(mod) == module_to_json(realize_module((2,), HP11))


def test_basis_weights_are_weights():
    mod = realize_module((2, 1), HP21)
    # diagonal units must act diagonally by the recorded weights
    for k in range(1, HP21.rank + 1):
        op = mod.units[(k, k)]
        for col in range(mod.dim):
            expected = {col: Fraction(mod.weights[col][k - 1])} if mod.weights[col][k - 1] else {}
            assert op.cols.get(col, {}) == expected
