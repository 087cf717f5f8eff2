"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (integer or rational equality); the only tolerances
are the stated wall-clock budgets, asserted where the criterion names one.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they print.
"""

import time
from fractions import Fraction
from pathlib import Path

import pytest

from superbraid.braid import (
    rho_images,
    rho_prime_images,
    verify_braid_relations,
    verify_centralizer,
    verify_hecke_relations,
    with_unsigned_swaps,
)
from superbraid.bratteli import (
    build_graph,
    irreducibility_check,
    p0_neighbor_check,
    paths_to,
    spectral_match,
    to_json,
    transfer_check,
    z0_case_report,
)
from superbraid.linalg import Subspace, commutant_dimension, kernel_intersection
from superbraid.modules import (
    highest_weight_vectors,
    kappa_scalar,
    module_tensor_config,
    pieri_summands,
    realize_module,
)
from superbraid.partitions import (
    HookProfile,
    addable_hook_positions,
    box_sum_identity,
    hook_to_weight,
    is_hook,
    rectangle,
)
from superbraid.schur import decompose_two_rectangles, lr_coeff, partitions_of
from superbraid.superalgebra import bilinear_form, casimir_pairing, pairing_eps, two_rho

from schur_oracle import lr_product_oracle, remmel_check
from weight_oracle import weight_to_hook

GOLDEN = Path(__file__).parent / "golden" / "bratteli_a4p3b2q2_n3m1_d1.json"


def report(number: int, label: str, started: float, budget: float = None) -> float:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:2d} PASS  {label}  ({elapsed:.3f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    return elapsed


def test_criterion_01_bar_bijection():
    hp = HookProfile(2, 3)
    t0 = time.perf_counter()
    weight = hook_to_weight((4, 3, 3, 1), hp)
    back = weight_to_hook(weight, hp)
    elapsed = time.perf_counter() - t0
    assert weight == (4, 3, 2, 1, 1)
    assert back == (4, 3, 3, 1)
    assert elapsed < 0.001
    report(1, "bar bijection worked example round-trips", t0)


BRAID_CONFIGS = [(HookProfile(1, 1), 3, 32), (HookProfile(2, 1), 2, 81)]


def test_criterion_02_braid_relations():
    t0 = time.perf_counter()
    for hp, d, expected_dim in BRAID_CONFIGS:
        config = module_tensor_config((1,), (1,), d, hp)
        assert config.dim == expected_dim
        for images in (rho_images(config), rho_prime_images(config)):
            rep = verify_braid_relations(images)
            assert rep.ok, [c.id for c in rep.checks if not c.ok]
    report(2, "relations R1-R6 plus symmetric group, plain and shifted", t0, budget=10.0)


def test_criterion_03_centralizer():
    t0 = time.perf_counter()
    for hp, d, _ in BRAID_CONFIGS:
        config = module_tensor_config((1,), (1,), d, hp)
        for images in (rho_images(config), rho_prime_images(config)):
            rep = verify_centralizer(images)
            assert rep.ok, [c.id for c in rep.checks if not c.ok]
    report(3, "all generator images centralize the superalgebra action", t0, budget=10.0)


def test_criterion_04_hecke_quotient():
    t0 = time.perf_counter()
    for hp in (HookProfile(1, 1), HookProfile(2, 1)):
        for d in (1, 2):
            config = module_tensor_config((1,), (1,), d, hp)
            rep = verify_hecke_relations(rho_prime_images(config), 1, 1, 1, 1)
            assert rep.ok, [c.id for c in rep.checks if not c.ok]
    report(4, "quotient relations at unit rectangles, d <= 2", t0)


def test_criterion_05_casimir_scalars():
    t0 = time.perf_counter()
    for hp in (HookProfile(1, 1), HookProfile(2, 1), HookProfile(2, 2)):
        for total in range(0, 5):
            for lam in partitions_of(total):
                if not is_hook(lam, hp):
                    continue
                mod = realize_module(lam, hp)
                assert kappa_scalar(mod) == casimir_pairing(mod.highest_weight, hp), lam
    for n in range(1, 5):
        for m in range(1, 5):
            hp = HookProfile(n, m)
            rho2 = two_rho(hp)
            for i in range(1, hp.rank + 1):
                eps = tuple(1 if k == i - 1 else 0 for k in range(hp.rank))
                shifted = tuple(e + r for e, r in zip(eps, rho2))
                assert pairing_eps(i, hp) == bilinear_form(eps, shifted, hp)
    report(5, "Casimir scalar = weight pairing on every realized module", t0, budget=60.0)


def test_criterion_06_pieri_eigenvalues():
    t0 = time.perf_counter()
    for hp in (HookProfile(1, 1), HookProfile(2, 1), HookProfile(2, 2)):
        for total in range(0, 4):
            for mu in partitions_of(total):
                if not is_hook(mu, hp):
                    continue
                records = pieri_summands(mu, hp)
                assert records or not addable_hook_positions(mu, hp)
                assert all(r["ok"] for r in records), (mu, records)
    report(6, "split-Casimir eigenvalue = added-box content on every summand", t0)


def test_criterion_07_lr_and_remmel():
    t0 = time.perf_counter()
    for s in range(0, 7):
        for t in range(0, 7 - s):
            for lam in partitions_of(s):
                for mu in partitions_of(t):
                    nvars = max(1, s + t)
                    oracle = lr_product_oracle(lam, mu, nvars)
                    direct = {
                        nu: c
                        for nu in partitions_of(s + t)
                        if (c := lr_coeff(lam, mu, nu))
                    }
                    assert oracle == direct, (lam, mu)
    hp = HookProfile(2, 1)
    hooks = [
        lam for total in range(0, 4) for lam in partitions_of(total) if is_hook(lam, hp)
    ]
    for lam in hooks:
        for mu in hooks:
            assert remmel_check(lam, mu, hp), (lam, mu)
    report(7, "lattice rule = product oracle; hook products expand identically", t0, budget=60.0)


FIGURE_LEVEL0 = [(5, 5, 4, 1, 1), (6, 5, 4, 1), (6, 6, 4)]
FIGURE_LEVEL1_SHOWN = [(7, 6, 4), (6, 6, 5), (6, 6, 4, 1), (6, 5, 4, 1, 1), (5, 5, 4, 1, 1, 1)]
FIGURE_EDGES = {
    ((6, 6, 4), (7, 6, 4)),
    ((6, 6, 4), (6, 6, 5)),
    ((6, 6, 4), (6, 6, 4, 1)),
    ((6, 5, 4, 1), (6, 6, 4, 1)),
    ((6, 5, 4, 1), (6, 5, 4, 1, 1)),
    ((5, 5, 4, 1, 1), (6, 5, 4, 1, 1)),
    ((5, 5, 4, 1, 1), (5, 5, 4, 1, 1, 1)),
}


def test_criterion_08_bratteli_fixture():
    # The published picture is explicitly truncated (it ends the level-1 row
    # with an ellipsis), so it is verified as a subgraph: exact level 0, the
    # five drawn level-1 vertices and all drawn edges present, the non-hook
    # diagram absent.  The full level 1 is pinned against an independent
    # one-box-extension enumeration, and the JSON bytes against a golden file.
    t0 = time.perf_counter()
    g = build_graph(4, 3, 2, 2, HookProfile(3, 1), 1)
    assert g.level(-1) == [(4, 4, 4)]
    assert g.level(0) == FIGURE_LEVEL0
    for v in FIGURE_LEVEL1_SHOWN:
        assert v in g.level(1)
    expected_level1 = sorted(
        {ext for v in FIGURE_LEVEL0 for ext, _ in addable_hook_positions(v, HookProfile(3, 1))}
    )
    assert g.level(1) == expected_level1
    drawn = {(g.level(0)[u], g.level(1)[v]) for (u, v) in g.edges[1]}
    assert FIGURE_EDGES <= drawn
    for level in g.levels:
        assert (4, 4, 4, 2, 2) not in level
    payload = to_json(g) + "\n"
    assert payload == GOLDEN.read_text()
    assert to_json(build_graph(4, 3, 2, 2, HookProfile(3, 1), 1)) + "\n" == payload
    report(8, "figure reproduced (level 1 shown five of eight); golden bytes stable", t0)


LEMMA_PARAMS = [(4, 3, 2, 2, HookProfile(3, 1)), (1, 1, 1, 1, HookProfile(1, 1))]


def test_criterion_09_lemma_suite():
    t0 = time.perf_counter()
    for a, p, b, q, hp in LEMMA_PARAMS:
        g = build_graph(a, p, b, q, hp, 0)
        for lam in g.level(0):
            lhs, rhs = box_sum_identity(lam, a, p, b, q)
            assert lhs == rhs, (lam, lhs, rhs)
            case = z0_case_report(lam, a, p, b, q)
            assert case["agree"], case
        neighbours = p0_neighbor_check(g)
        assert all(rec["ok"] for rec in neighbours), neighbours
        for rec in neighbours:
            lam, mu = (tuple(x) for x in rec["pair"])
            t = transfer_check(lam, mu, a, p, b, q, hp)
            assert t["ok"], t
    report(9, "box-sum, neighbour-content, Casimir-transfer and z0 case forms", t0)


def _spectral_setup(d):
    hp = HookProfile(2, 1)
    g = build_graph(1, 1, 1, 1, hp, d)
    config = module_tensor_config((1,), (1,), d, hp)
    return g, rho_prime_images(config)


def test_criterion_10_spectral_theorems():
    t0 = time.perf_counter()
    for d in (1, 2):
        g, images = _spectral_setup(d)
        records = spectral_match(g, images)
        assert records
        for rec in records:
            assert rec["ok"], rec
            assert rec["multiplicity_dim"] == rec["paths"]
    report(10, "joint boundary spectrum matches path contents bijectively", t0, budget=120.0)


def test_criterion_11_irreducibility():
    t0 = time.perf_counter()
    for d in (1, 2):
        g, images = _spectral_setup(d)
        for lam in g.level(d):
            rec = irreducibility_check(g, images, lam)
            assert rec["ok"], rec
    report(11, "commutant dimension 1 on every multiplicity space", t0)


def test_criterion_12_negative_controls():
    t0 = time.perf_counter()
    hp = HookProfile(1, 1)
    config = module_tensor_config((1,), (1,), 3, hp)
    # a non-Koszul swap must break the centralizer property
    broken_swap = with_unsigned_swaps(rho_prime_images(config))
    rep = verify_centralizer(broken_swap)
    bad = [c for c in rep.checks if not c.ok]
    assert bad and all(c.witness is not None for c in bad)
    # a corrupted split-Casimir sign must break the transport relations
    corrupted = rho_prime_images(config, corrupt_gamma="koszul")
    rep = verify_braid_relations(corrupted)
    families = {c.id.split(":")[0] for c in rep.checks if not c.ok}
    assert {"R4", "R5"} & families, families
    assert all(c.witness is not None for c in rep.checks if not c.ok)
    # mismatched boundary parameters must break the quadratic relation
    config21 = module_tensor_config((1,), (1,), 2, HookProfile(2, 1))
    rep = verify_hecke_relations(rho_prime_images(config21), 2, 1, 1, 1)
    failed = [c for c in rep.checks if not c.ok]
    assert failed and failed[0].id.startswith("hecke:(x1-2)") and failed[0].witness
    # the quotient needs rectangles: for the hook (2,1) the shifted x_1 on
    # L(2,1) (x) V has three eigenvalues, the contents 2, 0, -2 of its
    # addable boxes, whose kernels fill the space, so no quadratic kills it
    hook = module_tensor_config((2, 1), (1,), 1, HookProfile(2, 1))
    images = rho_prime_images(hook)
    whole = Subspace.full(hook.dim)
    kernels = [kernel_intersection([images.x[1].plus_scalar(-c)], whole).dim for c in (2, 0, -2)]
    assert kernels == [36, 12, 24] and sum(kernels) == hook.dim == 72
    for a in range(4):
        for p in range(4):
            quadratic = verify_hecke_relations(images, a, p, 1, 1).checks[0]
            assert quadratic.id == f"hecke:(x1-{a})(x1+{p})=0" and not quadratic.ok
    report(12, "all three sabotage modes and a non-rectangular boundary detected", t0)


def test_criterion_13_paper_example_operators():
    # the illustrative example (a,p,b,q) = (4,3,2,2) at gl(3|1), checked on
    # operators: M = L(4^3) and N = L(2^2) have dimensions 8 and 17
    t0 = time.perf_counter()
    a, p, b, q, hp = 4, 3, 2, 2, HookProfile(3, 1)
    for d in (1, 2):
        g = build_graph(a, p, b, q, hp, d)
        config = module_tensor_config(rectangle(a, p), rectangle(b, q), d, hp)
        assert config.dim == 8 * 17 * 4 ** d
        images = rho_prime_images(config)
        rep = verify_hecke_relations(images, a, p, b, q)
        assert rep.checks and rep.ok, [c.id for c in rep.checks if not c.ok]
        # the defining relations on both actions, each with half-integer
        # entries from the boundary modules
        for acting in (rho_images(config), images):
            values = (v for _, op in acting.named_ops() for col in op.cols.values() for v in col.values())
            assert any(type(v) is Fraction for v in values)
            rep = verify_braid_relations(acting)
            assert rep.checks and rep.ok, [c.id for c in rep.checks if not c.ok]
        rep = verify_centralizer(images)
        assert len(rep.checks) == 16 * (1 + 3 * d + (d - 1)) and rep.ok, [c.id for c in rep.checks if not c.ok]
        records = spectral_match(g, images)
        assert [rec["partition"] for rec in records] == [list(lam) for lam in g.level(d)]
        for rec in records:
            assert rec["ok"], rec
            assert rec["multiplicity_dim"] == rec["paths"]
        for lam in g.level(d):
            rec = irreducibility_check(g, images, lam)
            assert rec["ok"], rec
    report(13, "paper example at d <= 2: defining and quotient relations, centralizer, spectra, irreducibility", t0, budget=60.0)
