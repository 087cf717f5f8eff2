from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from superbraid.linalg import LinearOp
from superbraid.modules import module_tensor_config, realize_module
from superbraid.partitions import HookProfile, rectangle
from superbraid.superalgebra import (
    TensorConfig,
    bilinear_form,
    casimir_pairing,
    index_parity,
    natural_casimir_scalar,
    natural_factor,
    pairing_eps,
    positive_roots,
    psi_pairing_report,
    rectangle_weight,
    tensor_power_config,
    two_rho,
    unit_parity,
)

from casimir_oracle import coproduct_casimir, coproduct_unit, koszul_tensor_op, unit_embeddings
from op_helpers import scaled
from transport_oracle import lift
from weight_oracle import rectangle_pairing

HPS = [HookProfile(n, m) for n in (1, 2, 3, 4) for m in (1, 2, 3, 4)]


def eps(i, hp):
    return tuple(1 if k == i - 1 else 0 for k in range(hp.rank))


def naive_action(hp, i, j, tensor):
    """Literal sign-rule expansion of a unit on a pure tensor of V factors.

    Independent oracle for the coproduct action: the k-th term acts on the
    k-th factor and carries (-1)^(parity of unit * parities before it).
    """
    pu = unit_parity(i, j, hp)
    out = {}
    for k, letter in enumerate(tensor):
        if letter != j:
            continue
        sign = 1
        for s in range(k):
            if index_parity(tensor[s], hp) and pu:
                sign = -sign
        image = tensor[:k] + (i,) + tensor[k + 1 :]
        out[image] = out.get(image, 0) + sign
    return {k: v for k, v in out.items() if v}


def config_vector_to_tensors(config, vec):
    out = {}
    for idx, c in vec.items():
        comps = config.decode(idx)
        out[tuple(x + 1 for x in comps)] = c
    return out


def test_parities():
    hp = HookProfile(2, 1)
    assert [index_parity(i, hp) for i in (1, 2, 3)] == [0, 0, 1]
    assert unit_parity(1, 3, hp) == 1
    assert unit_parity(3, 3, hp) == 0


def test_bilinear_form_on_basis():
    for hp in HPS[:4]:
        assert bilinear_form(eps(1, hp), eps(1, hp), hp) == 1
        assert bilinear_form(eps(hp.n + 1, hp), eps(hp.n + 1, hp), hp) == -1
        assert bilinear_form(eps(1, hp), eps(hp.n + 1, hp), hp) == 0


def test_two_rho_closed_form():
    for hp in HPS:
        rho2 = two_rho(hp)
        n, m = hp.n, hp.m
        for k in range(1, n + 1):
            assert rho2[k - 1] == n - m - 2 * k + 1
        for s in range(1, m + 1):
            assert rho2[n + s - 1] == n + m - 2 * s + 1


@pytest.mark.parametrize("hp", HPS)
def test_pairing_eps_matches_brute_force(hp):
    rho2 = two_rho(hp)
    for i in range(1, hp.rank + 1):
        e = eps(i, hp)
        direct = bilinear_form(e, tuple(x + r for x, r in zip(e, rho2)), hp)
        assert pairing_eps(i, hp) == direct


def test_pairing_eps_examples():
    hp = HookProfile(2, 1)
    assert pairing_eps(1, hp) == hp.n - hp.m
    assert pairing_eps(3, hp) == 2 * 3 - 2 - 3 * 2 - 1  # -3


def test_rectangle_pairing_against_direct():
    for hp in HPS:
        for u in range(0, 4):
            for t in range(0, hp.n + 1):
                w = rectangle_weight(u, t, "phi", hp)
                assert rectangle_pairing(u, t, "phi", hp) == casimir_pairing(w, hp)
            for s in range(0, hp.m + 1):
                w = rectangle_weight(u, s, "psi", hp)
                assert rectangle_pairing(u, s, "psi", hp) == casimir_pairing(w, hp)


def test_rectangle_pairing_phi_special_case():
    for hp in HPS:
        for t in range(0, hp.n + 1):
            assert rectangle_pairing(1, t, "phi", hp) == (-t + 1 + hp.n - hp.m) * t


def test_psi_special_case_disagrees_and_general_wins():
    # the (n+m-2)s form does not match direct evaluation in general; the
    # u = 1 instance of the general formula always does
    hp = HookProfile(2, 2)
    rep = psi_pairing_report(2, hp)
    assert rep["matching"] == "general"
    assert rep["general_form_at_u1"] != rep["special_case_form"]
    for hp in HPS:
        for s in range(0, hp.m + 1):
            assert psi_pairing_report(s, hp)["matching"] in ("general", "neither") or s == 0
            assert psi_pairing_report(s, hp)["direct"] == s * (s - hp.n - hp.m - 1)


def test_casimir_pairing_examples():
    for hp in HPS[:6]:
        assert casimir_pairing((0,) * hp.rank, hp) == 0
        assert casimir_pairing(eps(1, hp), hp) == hp.n - hp.m
        assert natural_casimir_scalar(hp) == hp.n - hp.m


def test_act_unit_matches_naive_expansion():
    for hp in (HookProfile(1, 1), HookProfile(2, 1)):
        config = tensor_power_config(hp, 3)
        for i in range(1, hp.rank + 1):
            for j in range(1, hp.rank + 1):
                full = config.act_unit(i, j)
                for idx in range(config.dim):
                    tensor = tuple(x + 1 for x in config.decode(idx))
                    got = config_vector_to_tensors(config, full.apply({idx: Fraction(1)}))
                    want = {k: Fraction(v) for k, v in naive_action(hp, i, j, tensor).items()}
                    assert got == want, (i, j, tensor)


def test_act_examples_gl11():
    hp = HookProfile(1, 1)
    config = tensor_power_config(hp, 2)
    act21 = config.act_unit(2, 1)
    # e1 (x) e1 -> e2 (x) e1 + e1 (x) e2
    out = config_vector_to_tensors(config, act21.apply({0: Fraction(1)}))
    assert out == {(2, 1): Fraction(1), (1, 2): Fraction(1)}
    # e2 (x) e1: first term dies, Koszul sign flips the second
    idx_21 = 2  # components (1, 0) row-major
    out = config_vector_to_tensors(config, act21.apply({idx_21: Fraction(1)}))
    assert out == {(2, 2): Fraction(-1)}


def test_diagonal_unit_on_natural():
    hp = HookProfile(2, 1)
    config = tensor_power_config(hp, 1)
    e11 = config.act_unit(1, 1)
    assert e11.cols == {0: {0: Fraction(1)}}


def test_bracket_closure_on_tensor_square():
    # [E_ij, E_kl] = d_jk E_il - (-1)^(par par) d_li E_kj on V and V (x) V
    profiles = [
        (HookProfile(1, 1), (1, 2)),
        (HookProfile(2, 1), (1, 2)),
        (HookProfile(2, 2), (1, 2)),
        (HookProfile(1, 2), (1, 2)),
        (HookProfile(3, 1), (1,)),
        (HookProfile(1, 3), (1,)),
    ]
    for hp, powers in profiles:
        for power in powers:
            config = tensor_power_config(hp, power)
            r = hp.rank
            for i in range(1, r + 1):
                for j in range(1, r + 1):
                    a = config.act_unit(i, j)
                    pa = unit_parity(i, j, hp)
                    for k in range(1, r + 1):
                        for l in range(1, r + 1):
                            b = config.act_unit(k, l)
                            pb = unit_parity(k, l, hp)
                            sign = Fraction((-1) ** (pa * pb))
                            lhs = (a @ b) - scaled(b @ a, sign)
                            rhs = LinearOp(config.dim)
                            if j == k:
                                rhs = rhs + config.act_unit(i, l)
                            if l == i:
                                rhs = rhs - scaled(config.act_unit(k, j), sign)
                            assert (lhs - rhs).max_entry_witness() is None, (hp, power, i, j, k, l)


def test_casimir_scalar_on_natural_module():
    for hp in HPS[:6]:
        config = tensor_power_config(hp, 1)
        kappa = config.casimir_op()
        expected = LinearOp.identity(config.dim, Fraction(hp.n - hp.m))
        assert (kappa - expected).max_entry_witness() is None


def test_casimir_is_central_on_tensor_square():
    for hp in (HookProfile(1, 1), HookProfile(2, 1)):
        config = tensor_power_config(hp, 2)
        kappa = config.casimir_op()
        for i in range(1, hp.rank + 1):
            for j in range(1, hp.rank + 1):
                assert kappa.commutator(config.act_unit(i, j)).max_entry_witness() is None


def test_coproduct_casimir_split():
    # Casimir on both factors minus the two one-factor Casimirs = 2 gamma;
    # the oracle's coproduct action from chained embeddings is act_unit
    for hp in (HookProfile(1, 1), HookProfile(2, 1)):
        config = tensor_power_config(hp, 2)
        emb = unit_embeddings(config)
        for i in range(1, hp.rank + 1):
            for j in range(1, hp.rank + 1):
                ref = coproduct_unit(config, emb, (0, 1), i, j)
                assert list(ref.entries()) == list(config.act_unit(i, j).entries())
        both = coproduct_casimir(config, emb, (0, 1))
        assert (both - config.casimir_op()).max_entry_witness() is None
        delta = both - coproduct_casimir(config, emb, (0,)) - coproduct_casimir(config, emb, (1,))
        gamma2 = scaled(config.split_casimir_op(0, 1), Fraction(2))
        assert (delta - gamma2).max_entry_witness() is None


def test_split_casimir_eigenvalues_on_square():
    # on V (x) V at (1,1) the split Casimir acts by +1 and -1
    hp = HookProfile(1, 1)
    config = tensor_power_config(hp, 2)
    gamma = config.split_casimir_op(0, 1)
    swap = config.signed_swap(0)
    assert (gamma - swap).max_entry_witness() is None
    sq = gamma @ gamma
    assert (sq - LinearOp.identity(config.dim)).max_entry_witness() is None


def test_split_casimir_transport_by_swap():
    # conjugating by the signed swap moves the second leg one slot right
    for hp in (HookProfile(1, 1), HookProfile(2, 1)):
        config = tensor_power_config(hp, 3)
        t2 = config.signed_swap(1)
        lhs = t2 @ config.split_casimir_op(0, 1) @ t2
        rhs = config.split_casimir_op(0, 2)
        assert (lhs - rhs).max_entry_witness() is None


def test_signed_swap_properties():
    hp = HookProfile(1, 1)
    config = tensor_power_config(hp, 2)
    swap = config.signed_swap(0)
    # e1 (x) e2 -> e2 (x) e1 without sign; e2 (x) e2 picks up -1
    assert config_vector_to_tensors(config, swap.apply({1: Fraction(1)})) == {(2, 1): Fraction(1)}
    assert config_vector_to_tensors(config, swap.apply({3: Fraction(1)})) == {(2, 2): Fraction(-1)}
    assert (swap @ swap - LinearOp.identity(config.dim)).max_entry_witness() is None
    for i in range(1, 3):
        for j in range(1, 3):
            assert swap.commutator(config.act_unit(i, j)).max_entry_witness() is None


def test_unsigned_swap_breaks_centralizing():
    hp = HookProfile(1, 1)
    config = tensor_power_config(hp, 2)
    plain = LinearOp.from_entries(
        config.dim, [(i, j, abs(v)) for i, j, v in config.signed_swap(0).entries()]
    )
    broken = [
        (i, j)
        for i in range(1, 3)
        for j in range(1, 3)
        if plain.commutator(config.act_unit(i, j)).max_entry_witness() is not None
    ]
    assert broken  # the Koszul sign is forced


def test_signed_swap_needs_identical_parities():
    # at gl(1|1), L(1,1) and V both have dimension 2, with the parities
    # (1, 0) and (0, 1): equal dimensions alone do not make a swap, and
    # unequal ones, V and L(2) at gl(2|1), make none either
    hp, hp21 = HookProfile(1, 1), HookProfile(2, 1)
    wedge, v = realize_module((1, 1), hp), natural_factor(hp)
    assert wedge.dim == v.dim and wedge.parities != v.parities
    pairs = [([wedge, v], hp), ([v, wedge], hp), ([natural_factor(hp21), realize_module((2,), hp21)], hp21)]
    for factors, on in pairs:
        with pytest.raises(ValueError, match="identical adjacent factors"):
            TensorConfig(factors, on).signed_swap(0)
    assert TensorConfig([wedge, wedge], hp).signed_swap(0).dim == 4


@pytest.mark.parametrize("hp", [HookProfile(1, 1), HookProfile(2, 1)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_embed_unit_matches_chained_koszul_product(hp, k):
    # id (x) .. (x) E_ij (x) .. (x) id assembled one graded tensor product at
    # a time is the reference for the Koszul signs; act_unit is their sum
    config = tensor_power_config(hp, k)
    v = natural_factor(hp)
    ident = LinearOp.identity(v.dim)
    for i in range(1, hp.rank + 1):
        for j in range(1, hp.rank + 1):
            total = LinearOp(config.dim)
            for pos in range(k):
                factors = [(v.units[(i, j)] if t == pos else ident, v.parities) for t in range(k)]
                chained, parities = reduce(koszul_tensor_op, factors)
                # the oracle's own parities are the factors' summed at each index
                assert parities == tuple(
                    sum(f.parities[c] for f, c in zip(config.factors, config.decode(idx))) % 2
                    for idx in range(config.dim)
                )
                total = total + chained
            assert list(total.entries()) == list(config.act_unit(i, j).entries())


# boundary modules with odd basis vectors: (2,1) at gl(2|1) and (1,1) at
# gl(1|1); (2,2) at gl(3|1) (dim 17) has fractional entries and columns with
# two entries
SPLIT_CONFIGS = [
    ((2, 1), (1,), 2, HookProfile(2, 1)),
    ((1, 1), (2,), 1, HookProfile(1, 1)),
    ((1,), (2, 1), 2, HookProfile(1, 1)),
    ((2, 2), (1,), 1, HookProfile(3, 1)),
]


@pytest.mark.parametrize("alpha, beta, d, hp", SPLIT_CONFIGS)
def test_split_casimir_matches_product_definition(alpha, beta, d, hp):
    # sum (-1)^parity(j) E_ij at pos1 times E_ji at pos2 from the chained
    # embeddings, for every factor pair; 'parity' drops (-1)^parity(j), and
    # 'koszul' chains the second leg with E_ji on an all-even copy of its
    # factor, which drops that leg's Koszul sign
    config = module_tensor_config(alpha, beta, d, hp)
    emb = unit_embeddings(config)
    r = hp.rank
    for pos1 in range(config.n_factors):
        for pos2 in range(pos1 + 1, config.n_factors):
            for corrupt in (None, "parity", "koszul"):
                ref = LinearOp(config.dim)
                for i in range(1, r + 1):
                    for j in range(1, r + 1):
                        second = emb[(pos2, j, i)]
                        if corrupt == "koszul":
                            legs = [(LinearOp.identity(f.dim), f.parities) for f in config.factors]
                            unit = config.factors[pos2].units[(j, i)]
                            legs[pos2] = (unit, (0,) * unit.dim)
                            second = reduce(koszul_tensor_op, legs)[0]
                        term = emb[(pos1, i, j)] @ second
                        if index_parity(j, hp) and corrupt != "parity":
                            ref = ref - term
                        else:
                            ref = ref + term
                got = config.split_casimir_op(pos1, pos2, corrupt)
                assert list(got.entries()) == list(ref.entries()), (pos1, pos2, corrupt)


def test_weight_subspace():
    hp = HookProfile(2, 1)
    config = tensor_power_config(hp, 2)
    sub = config.weight_subspace((1, 1, 0))
    assert sub.dim == 2  # e1 e2 and e2 e1
    assert config.weight_subspace((0, 0, 2)).dim == 1


@pytest.mark.parametrize("alpha, beta, d, hp", [
    ((2, 1), (1,), 2, HookProfile(2, 1)),
    ((2, 2), (1,), 1, HookProfile(3, 1)),
    (rectangle(4, 3), rectangle(2, 2), 1, HookProfile(3, 1)),  # the paper example
])
def test_weight_subspace_matches_scan(alpha, beta, d, hp):
    # brute force: the weight of an index is the sum of its factors' weights;
    # each index lies in exactly the weight space of that sum, so the weight
    # spaces partition the basis, each in increasing index order
    config = module_tensor_config(alpha, beta, d, hp)
    scanned: dict = {}
    for idx in range(config.dim):
        comps = config.decode(idx)
        w = tuple(sum(f.weights[c][k] for f, c in zip(config.factors, comps)) for k in range(hp.rank))
        scanned.setdefault(w, []).append(idx)
    covered = []
    for w, indices in scanned.items():
        sub = config.weight_subspace(w)
        assert sub.vectors == [{idx: 1} for idx in indices], w
        covered += indices
    assert sorted(covered) == list(range(config.dim))
    absent = (0,) * (hp.rank - 1) + (sum(alpha) + sum(beta) + d + 1,)
    assert absent not in scanned
    assert config.weight_subspace(absent).dim == 0


def test_root_count():
    hp = HookProfile(2, 2)
    roots = positive_roots(hp)
    assert len(roots) == 6
    assert sum(unit_parity(i, j, hp) for i, j in roots) == 4


TRANSPORT_HPS = [HookProfile(1, 1), HookProfile(2, 1), HookProfile(1, 2)]


def transport_pool(hp):
    # every module here has odd basis vectors, so every gap can be odd
    return [natural_factor(hp), realize_module((2,), hp), realize_module((1, 1), hp)]


@settings(max_examples=40, deadline=None)
@given(
    hp_at=st.integers(0, len(TRANSPORT_HPS) - 1),
    picks=st.lists(st.integers(0, 2), min_size=3, max_size=4),
    legs=st.data(),
    corrupt=st.sampled_from([None, "parity", "koszul"]),
)
def test_transport_lemma_against_relabelled_local_operators(hp_at, picks, legs, corrupt):
    # the whole-space split Casimir, its commutator with a unit and each unit
    # action are the local operators of TensorConfig.local relabelled, with
    # factors between the legs seen only through their parity.  'koszul'
    # reads the factors left of the first leg in place of those from it, so
    # its split Casimir is local only where the legs are the first two
    # factors: with factors left of them it reads their parity, and with a
    # gap it skips the gap's sign.  A unit on a factor between the legs no
    # longer commutes with it
    hp = TRANSPORT_HPS[hp_at]
    pool = transport_pool(hp)
    config = TensorConfig([pool[k] for k in picks], hp)
    assume(config.dim <= 400)
    k = config.n_factors
    p = legs.draw(st.integers(0, k - 2))
    q = legs.draw(st.integers(p + 1, k - 1))
    i, j = legs.draw(st.tuples(st.integers(1, hp.rank), st.integers(1, hp.rank)))
    _, local, where = config.local([p, q])
    whole = config.split_casimir_op(p, q, corrupt)
    gamma = local.split_casimir_op(where[p], where[q], corrupt)
    local_like = corrupt != "koszul" or (p, q) == (0, 1)
    assert (lift(config, [p, q], local, gamma).cols == whole.cols) == local_like
    commutator = gamma.commutator(local.act_unit(i, j))
    lifted = lift(config, [p, q], local, commutator, left_sign=unit_parity(i, j, hp))
    if corrupt != "koszul":
        assert lifted.cols == whole.commutator(config.act_unit(i, j)).cols
    units = LinearOp(config.dim)
    for t in range(k):
        _, one, _ = config.local([t])
        units = units + lift(config, [t], one, one.act_unit(i, j), left_sign=unit_parity(i, j, hp))
    assert units.cols == config.act_unit(i, j).cols
    if k == 4 and corrupt is None:
        # split Casimirs on disjoint pairs commute, for every interleaving
        for a, b, c, d in ((0, 1, 2, 3), (0, 3, 1, 2), (0, 2, 1, 3)):
            assert not config.split_casimir_op(a, b).commutator(config.split_casimir_op(c, d)).cols


def test_local_config_layout():
    # the legs in order and nothing else, keyed by their modules, and one
    # config per key
    hp = HookProfile(2, 1)
    config = module_tensor_config((2,), (1,), 4, hp)
    key, local, where = config.local([0, 2, 4])
    assert where == {0: 0, 2: 1, 4: 2} and local.n_factors == 3
    assert local.factors == [config.factors[0], config.factors[2], config.factors[4]]
    assert key == (0, 2, 2)
    assert config.local([0, 3, 4]) == (key, local, {0: 0, 3: 1, 4: 2})
    assert config.local([0, 3, 5]) == (key, local, {0: 0, 3: 1, 5: 2})
    assert config.local([1, 3, 5])[1] is not local
    assert config.local([2, 3])[0] == config.local([3, 5])[0] == (2, 2)
