import pytest

from superbraid.partitions import HookProfile, is_hook
from superbraid.schur import MultiplicityError, decompose_two_rectangles, lr_coeff, partitions_of

from schur_oracle import (
    hook_dimension,
    hook_schur_poly,
    lr_product_oracle,
    poly_mul,
    remmel_check,
    schur_poly,
)

HP11 = HookProfile(1, 1)
HP21 = HookProfile(2, 1)


def test_schur_small():
    assert schur_poly((1,), 2) == {(1, 0): 1, (0, 1): 1}
    assert schur_poly((2,), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert schur_poly((1, 1, 1), 2) == {}


def test_schur_symmetry():
    p = schur_poly((2, 1), 3)
    # invariance under swapping the first two variables
    swapped = {(e[1], e[0], e[2]): c for e, c in p.items()}
    assert p == swapped


def test_hook_schur_single_box():
    assert hook_schur_poly((1,), HP11) == {(1, 0): 1, (0, 1): 1}


def test_hook_schur_vanishes_iff_not_hook():
    for total in range(0, 6):
        for lam in partitions_of(total):
            poly = hook_schur_poly(lam, HP11)
            if is_hook(lam, HP11):
                assert poly, lam
            else:
                assert poly == {}, lam


def test_hook_schur_reduces_to_schur_without_odd_letters():
    # all-x monomials of the hook polynomial are exactly the Schur polynomial
    lam = (2, 1)
    hp = HookProfile(2, 2)
    hooks = hook_schur_poly(lam, hp)
    x_only = {e[:2]: c for e, c in hooks.items() if e[2] == 0 and e[3] == 0}
    assert x_only == schur_poly(lam, 2)


def test_hook_dimension_examples():
    assert hook_dimension((2,), HP11) == 2
    assert hook_dimension((1, 1), HP11) == 2
    assert hook_dimension((1,), HP21) == 3


def test_lr_basics():
    assert lr_coeff((1,), (1,), (2,)) == 1
    assert lr_coeff((1,), (1,), (1, 1)) == 1
    assert lr_coeff((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coeff((2,), (1,), (2,)) == 0  # size mismatch
    assert lr_coeff((2, 1), (), (2, 1)) == 1
    assert lr_coeff((2, 1), (), (3,)) == 0


def test_lr_symmetry_small():
    for s in range(0, 4):
        for t in range(0, 4 - s):
            for lam in partitions_of(s):
                for mu in partitions_of(t):
                    for nu in partitions_of(s + t):
                        assert lr_coeff(lam, mu, nu) == lr_coeff(mu, lam, nu)


def test_lr_product_oracle_examples():
    assert lr_product_oracle((1,), (1,), 2) == {(2,): 1, (1, 1): 1}
    got = lr_product_oracle((2, 1), (2, 1), 6)
    assert got[(3, 2, 1)] == 2
    assert lr_product_oracle((3, 1), (), 4) == {(3, 1): 1}


def test_lr_matches_oracle_up_to_degree_six():
    for s in range(0, 7):
        for t in range(0, 7 - s):
            for lam in partitions_of(s):
                for mu in partitions_of(t):
                    nvars = max(1, s + t)
                    oracle = lr_product_oracle(lam, mu, nvars)
                    direct = {
                        nu: lr_coeff(lam, mu, nu)
                        for nu in partitions_of(s + t)
                        if lr_coeff(lam, mu, nu)
                    }
                    assert oracle == direct, (lam, mu)


def test_remmel_single_boxes():
    assert remmel_check((1,), (1,), HP11)
    assert remmel_check((), (2, 1), HP21)


def test_remmel_exhaustive_small_hooks():
    hooks = [
        lam
        for total in range(0, 4)
        for lam in partitions_of(total)
        if is_hook(lam, HP21)
    ]
    for lam in hooks:
        for mu in hooks:
            assert remmel_check(lam, mu, HP21), (lam, mu)


def test_remmel_drops_nonhook_constituents():
    # (1,1) * (1,1) contains (2,2) and (1,1,1,1), both non-hook at (1,1):
    # their hook polynomials vanish, yet the identity still balances
    assert lr_coeff((1, 1), (1, 1), (2, 2)) == 1
    assert hook_schur_poly((2, 2), HP11) == {}
    assert remmel_check((1, 1), (1, 1), HP11)


def test_two_rectangles_figure_case():
    got = decompose_two_rectangles(4, 3, 2, 2, HookProfile(3, 1))
    assert got == [(5, 5, 4, 1, 1), (6, 5, 4, 1), (6, 6, 4)]
    assert (4, 4, 4, 2, 2) not in got  # excluded: rows 4 and 5 leave the hook
    assert lr_coeff((4, 4, 4), (2, 2), (4, 4, 4, 2, 2)) == 1  # nonzero as plain LR


def test_two_rectangles_single_boxes():
    assert decompose_two_rectangles(1, 1, 1, 1, HP11) == [(1, 1), (2,)]
    assert decompose_two_rectangles(1, 1, 1, 1, HookProfile(2, 1)) == [(1, 1), (2,)]


def test_two_rectangles_multiplicity_free_at_desk_scale():
    for params in [(1, 1, 1, 1, HP21), (2, 1, 1, 1, HP21), (2, 2, 2, 1, HookProfile(2, 2))]:
        a, p, b, q, hp = params
        out = decompose_two_rectangles(a, p, b, q, hp)
        assert out == sorted(set(out))
        for lam in out:
            assert is_hook(lam, hp)


def test_poly_mul_degree_additivity():
    f = schur_poly((1,), 2)
    g = schur_poly((2,), 2)
    prod = poly_mul(f, g)
    assert all(sum(e) == 3 for e in prod)
