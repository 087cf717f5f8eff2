from hypothesis import given, strategies as st
import pytest

from superbraid.partitions import (
    Box,
    CombinatoricsError,
    HookProfile,
    NotHookError,
    addable_hook_positions,
    box_sets,
    box_sum_identity,
    boxes,
    content,
    contains,
    format_partition,
    hook_to_weight,
    is_hook,
    normalize_partition,
    parse_partition,
    partition_size,
    rectangle,
    check_rectangle_params,
    transpose,
)

from weight_oracle import NotDominantError, is_polynomial_dominant, weight_to_hook


def brute_box_sums(parts, a, p, b, q):
    """Independent enumeration oracle for the two-rectangle box identity."""
    shift = a - p + b - q
    lhs = rhs = 0
    for r, width in enumerate(parts, start=1):
        for c in range(1, width + 1):
            if c > a:
                lhs += 2 * (c - r) - shift
            if r > p:
                rhs += 2 * (c - r) - shift
    return lhs, rhs + q * b * (a + p)


def test_normalize_strips_zeros_and_validates():
    assert normalize_partition([3, 2, 0, 0]) == (3, 2)
    assert normalize_partition([]) == ()
    with pytest.raises(CombinatoricsError):
        normalize_partition([1, 2])
    with pytest.raises(CombinatoricsError):
        normalize_partition([2, -1])


def test_content_examples():
    assert content(Box(1, 1)) == 0
    assert content(Box(3, 1)) == -2
    # box appended to the first row of a rectangle (a^p) at column a+1 has
    # content a; to the first column at row p+1, content -p
    a, p = 4, 3
    assert content(Box(1, a + 1)) == a
    assert content(Box(p + 1, 1)) == -p


def test_is_hook():
    assert not is_hook((4, 4, 4, 2, 2), HookProfile(3, 1))
    assert is_hook((), HookProfile(3, 1))
    assert is_hook((6, 5, 4, 1), HookProfile(3, 1))
    assert is_hook((2,), HookProfile(1, 1))
    assert not is_hook((2, 2), HookProfile(1, 1))


def test_dominance():
    assert is_polynomial_dominant((4, 3, 2, 1, 1), HookProfile(2, 3))
    assert is_polynomial_dominant((0, 0, 0, 0, 0), HookProfile(2, 3))
    # coordinate n is 0 but there is a nonzero odd coordinate
    assert not is_polynomial_dominant((1, 0, 2, 0), HookProfile(2, 2))


def test_bar_bijection_worked_example():
    hp = HookProfile(2, 3)
    assert hook_to_weight((4, 3, 3, 1), hp) == (4, 3, 2, 1, 1)
    assert weight_to_hook((4, 3, 2, 1, 1), hp) == (4, 3, 3, 1)


def test_bar_bijection_edge_cases():
    hp = HookProfile(2, 3)
    assert hook_to_weight((), hp) == (0, 0, 0, 0, 0)
    assert weight_to_hook((0, 0, 0, 0, 0), hp) == ()
    # rectangles with few rows are just padded
    assert hook_to_weight((3, 3), HookProfile(3, 2)) == (3, 3, 0, 0, 0)
    assert weight_to_hook((3, 3, 0, 0, 0), HookProfile(3, 2)) == (3, 3)
    # tall rectangle transposes its sub-n part
    assert hook_to_weight((2, 2, 2), HookProfile(1, 2)) == (2, 2, 2)
    assert weight_to_hook((2, 2, 2), HookProfile(1, 2)) == (2, 2, 2)


def test_bar_rejects_non_hook():
    with pytest.raises(NotHookError):
        hook_to_weight((4, 4, 4, 2, 2), HookProfile(3, 1))
    with pytest.raises(NotDominantError):
        weight_to_hook((1, 0, 2, 0), HookProfile(2, 2))


def test_bar_preserves_size():
    hp = HookProfile(2, 2)
    for p in [(), (1,), (3, 2), (2, 2, 1), (4, 3, 2, 1)]:
        if is_hook(p, hp):
            assert sum(hook_to_weight(p, hp)) == partition_size(p)


@st.composite
def hook_partitions(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3))
    hp = HookProfile(n, m)
    # weakly decreasing head rows, then a tail bounded by m
    head = sorted(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)), reverse=True)
    tail_len = draw(st.integers(0, 4))
    bound = min(m, head[-1]) if head else m
    tail = sorted(draw(st.lists(st.integers(0, bound), min_size=tail_len, max_size=tail_len)), reverse=True)
    return hp, normalize_partition(head + tail)


@given(hook_partitions())
def test_bar_round_trip(data):
    hp, p = data
    assert is_hook(p, hp)
    w = hook_to_weight(p, hp)
    assert is_polynomial_dominant(w, hp)
    assert weight_to_hook(w, hp) == p
    assert sum(w) == partition_size(p)
    assert hook_to_weight(weight_to_hook(w, hp), hp) == w


def test_box_sets_enumeration():
    below, _ = box_sets((6, 6, 4), 3, 0)
    assert below == []
    below, _ = box_sets((6, 5, 4, 1), 3, 0)
    assert below == [Box(4, 1)]
    _, beyond = box_sets((6, 6, 4), 0, 4)
    assert set(beyond) == {Box(1, 5), Box(1, 6), Box(2, 5), Box(2, 6)}


@pytest.mark.parametrize(
    "lam,lhs,rhs_tail",
    [((6, 6, 4), 28, 0), ((6, 5, 4, 1), 21, -7), ((5, 5, 4, 1, 1), 12, -16)],
)
def test_box_sum_identity_frozen_values(lam, lhs, rhs_tail):
    got_lhs, got_rhs = box_sum_identity(lam, 4, 3, 2, 2)
    assert (got_lhs, got_rhs) == (lhs, rhs_tail + 2 * 2 * (4 + 3))
    assert got_lhs == got_rhs
    assert brute_box_sums(lam, 4, 3, 2, 2) == (got_lhs, got_rhs)


def test_addable_positions():
    hp = HookProfile(3, 1)
    assert addable_hook_positions((), hp) == [((1,), Box(1, 1))]
    exts = addable_hook_positions((4, 4, 4), hp)
    assert [(e, b) for e, b in exts] == [((4, 4, 4, 1), Box(4, 1)), ((5, 4, 4), Box(1, 5))]
    got = {e for e, _ in addable_hook_positions((6, 6, 4), hp)}
    assert got == {(7, 6, 4), (6, 6, 5), (6, 6, 4, 1)}


@given(hook_partitions())
def test_addable_positions_bound_and_hook(data):
    hp, p = data
    exts = addable_hook_positions(p, hp)
    distinct_parts = len(set(p))
    assert len(exts) <= distinct_parts + 1
    for ext, box in exts:
        assert is_hook(ext, hp)
        assert partition_size(ext) == partition_size(p) + 1
        assert contains(ext, p)
        assert set(boxes(ext)) - set(boxes(p)) == {box}


def test_rectangle_params_modes():
    hp = HookProfile(3, 1)
    # the flagship graph parameters are hook-valid but not strict-valid
    check_rectangle_params(4, 3, 2, 2, hp, strict=False)
    with pytest.raises(CombinatoricsError):
        check_rectangle_params(4, 3, 2, 2, hp, strict=True)
    check_rectangle_params(1, 1, 1, 1, HookProfile(1, 1), strict=True)
    with pytest.raises(NotHookError):
        check_rectangle_params(2, 2, 1, 1, HookProfile(1, 1), strict=False)


def test_transpose_and_text_forms():
    assert transpose((3, 1)) == (2, 1, 1)
    assert transpose(transpose((5, 3, 3, 1))) == (5, 3, 3, 1)
    assert parse_partition("[4,3,3,1]") == (4, 3, 3, 1)
    assert parse_partition("4,3,3,1") == (4, 3, 3, 1)
    assert parse_partition("") == ()
    assert format_partition((4, 3)) == "[4,3]"
    assert format_partition(()) == "[]"
    assert rectangle(4, 3) == (4, 4, 4)
