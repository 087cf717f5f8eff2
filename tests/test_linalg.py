import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superbraid.bratteli import build_graph, predicted_tuples
from superbraid.braid import rho_prime_images
from superbraid.linalg import (
    LinalgError,
    LinearOp,
    NotInvariantError,
    RowReducer,
    Subspace,
    commutant_components,
    commutant_dimension,
    kernel_intersection,
    restrict_op,
    simultaneous_eigenspaces,
)
from superbraid.modules import highest_weight_vectors, module_tensor_config
from superbraid.partitions import HookProfile, hook_to_weight

from casimir_oracle import NotHomogeneousError, koszul_tensor_op, tensor_space
from commutant_oracle import commutant_dimension_by_equations
from op_helpers import scaled

V11 = (0, 1)  # the parities of C^(1|1)


def op(dim, entries):
    return LinearOp.from_entries(dim, entries)


def eigen_dims(ops, within, tuples):
    return [space.dim for space in simultaneous_eigenspaces(ops, within, tuples)]


def test_tensor_space_row_major_parities():
    prod = tensor_space((0, 1), (0, 1, 1))
    assert prod == (0, 1, 1, 1, 0, 0)
    assert tensor_space(V11, V11) == (0, 1, 1, 0)


def test_koszul_sign_on_odd_block():
    # id (x) B with B odd picks up -1 on odd first factors
    b = op(2, [(0, 1, 1)])  # odd: e2 -> e1
    ident = LinearOp.identity(2)
    t, parities = koszul_tensor_op((ident, V11), (b, V11))
    assert parities == (0, 1, 1, 0)
    # column e1*e2 -> +e1*e1 ; column e2*e2 -> -e2*e1
    assert t.cols[1][0] == 1
    assert t.cols[3][2] == -1


def test_koszul_rejects_inhomogeneous():
    mixed = op(2, [(0, 0, 1), (0, 1, 1)])
    with pytest.raises(NotHomogeneousError):
        koszul_tensor_op((mixed, V11), (LinearOp.identity(2), V11))


def graded_spaces(max_dim=3):
    return st.lists(st.integers(0, 1), min_size=1, max_size=max_dim).map(tuple)


def homogeneous_op(parities, parity, rng):
    out = LinearOp(len(parities))
    for i, pi in enumerate(parities):
        for j, pj in enumerate(parities):
            if (pi + pj) % 2 == parity and rng.random() < 0.6:
                out.add_entry(i, j, Fraction(rng.randint(-3, 3)))
    return out


@settings(max_examples=60, deadline=None)
@given(graded_spaces(), graded_spaces(), st.integers(0, 1), st.integers(0, 1),
       st.integers(0, 1), st.integers(0, 1), st.integers())
def test_koszul_composition_rule(su, sw, pa, pb, pa2, pb2, seed):
    # (A (x) B)(A' (x) B') = (-1)^(|B||A'|) (A A') (x) (B B')
    rng = random.Random(seed)
    a, a2 = homogeneous_op(su, pa, rng), homogeneous_op(su, pa2, rng)
    b, b2 = homogeneous_op(sw, pb, rng), homogeneous_op(sw, pb2, rng)
    (ab, _), (ab2, _) = koszul_tensor_op((a, su), (b, sw)), koszul_tensor_op((a2, su), (b2, sw))
    rhs, _ = koszul_tensor_op((a @ a2, su), (b @ b2, sw))
    assert (ab @ ab2 - scaled(rhs, Fraction((-1) ** (pb * pa2)))).max_entry_witness() is None


def test_kernel_intersection_trivial():
    full = Subspace.full(2)
    assert kernel_intersection([], full).dim == 2
    assert kernel_intersection([LinearOp.identity(2)], full).dim == 0


def test_kernel_intersection_raising_on_natural():
    # weight-eps1 space of V is spanned by e1 and killed by the raising op
    raising = op(2, [(0, 1, 1)])
    sub = Subspace(2, [{0: Fraction(1)}])
    ker = kernel_intersection([raising], sub)
    assert ker.dim == 1 and ker.vectors[0] == {0: Fraction(1)}


def test_kernel_of_projection():
    proj = op(2, [(0, 0, 1)])
    ker = kernel_intersection([proj], Subspace.full(2))
    assert ker.dim == 1
    assert ker.vectors[0] == {1: Fraction(1)}


def test_commutant_dimension_extremes():
    space = 3
    full = Subspace.full(space)
    assert commutant_dimension([], full) == 9
    # full matrix algebra on dim 2
    s2 = 2
    mats = [op(s2, [(0, 1, 1)]), op(s2, [(1, 0, 1)])]
    assert commutant_dimension(mats, Subspace.full(s2)) == 1


def test_commutant_monotone_under_more_ops():
    s2 = 2
    full = Subspace.full(s2)
    e12 = op(s2, [(0, 1, 1)])
    e21 = op(s2, [(1, 0, 1)])
    dims = [
        commutant_dimension([], full),
        commutant_dimension([e12], full),
        commutant_dimension([e12, e21], full),
    ]
    assert dims == sorted(dims, reverse=True)
    assert dims[-1] == 1


def test_commutant_requires_invariance():
    s2 = 2
    sub = Subspace(s2, [{0: Fraction(1)}])
    e21 = op(s2, [(1, 0, 1)])
    with pytest.raises(NotInvariantError):
        commutant_dimension([e21], sub)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(0, 3), st.booleans(), st.integers())
def test_commutant_matches_equation_oracle(k, n_ops, block_diagonal, seed):
    # block-diagonal sets keep every block projection in the commutant, so
    # dimensions above 1 occur; otherwise the entries are unconstrained
    rng = random.Random(seed)
    space = k
    cuts = sorted(rng.sample(range(1, k), rng.randint(0, k - 1))) if block_diagonal else []
    block = [sum(1 for c in cuts if c <= i) for i in range(k)]
    ops = []
    for _ in range(n_ops):
        ops.append(op(space, [(i, j, rng.randint(-2, 2)) for i in range(k) for j in range(k)
                              if block[i] == block[j] and rng.random() < 0.5]))
    dim = commutant_dimension(ops, Subspace.full(space))
    assert dim == commutant_dimension_by_equations(ops, Subspace.full(space))
    assert dim >= len(cuts) + 1


def test_commutant_matches_equation_oracle_on_desk_config():
    # every level-2 vertex of (1) (x) (1) (x) V^2 at gl(2|1), with all the
    # quotient generators and without x_1 (which leaves dimension above 1)
    hp = HookProfile(2, 1)
    g = build_graph(1, 1, 1, 1, hp, 2)
    images = rho_prime_images(module_tensor_config((1,), (1,), 2, hp))
    gens = [images.z0, *images.z.values(), images.x[1], *images.t.values()]
    seen = set()
    for lam in g.level(2):
        mult = highest_weight_vectors(images.config, hook_to_weight(lam, hp))
        for ops in (gens, [o for o in gens if o is not images.x[1]]):
            dim = commutant_dimension(ops, mult)
            assert dim == commutant_dimension_by_equations(ops, mult), lam
            seen.add(dim)
    assert 1 in seen and max(seen) > 1


def test_commutant_components_reads_both_triangles():
    # one off-diagonal entry joins its two basis vectors, above or below
    # the diagonal; diagonal entries join nothing
    s3 = 3
    full = Subspace.full(s3)
    assert commutant_components([], full) == 3
    assert commutant_components([op(s3, [(0, 0, 4), (2, 2, -1)])], full) == 3
    assert commutant_components([op(s3, [(1, 0, 1)])], full) == 2
    assert commutant_components([op(s3, [(0, 1, 1)])], full) == 2
    assert commutant_components([op(s3, [(2, 1, 1)]), op(s3, [(1, 0, 1)])], full) == 1


def test_commutant_components_in_a_basis():
    # E12 in the basis e0 + e1, e1 is [[1, 0], [-1, -1]]: still one edge
    s2 = 2
    basis = Subspace(s2, [{0: 1, 1: 1}, {1: 1}])
    assert commutant_components([op(s2, [(0, 1, 1)])], basis) == 1
    assert commutant_components([op(s2, [(0, 0, 1), (1, 1, 2)])], basis) == 1
    assert commutant_components([op(s2, [(0, 0, 1), (1, 1, 1)])], basis) == 2


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(0, 3), st.integers())
def test_commutant_components_match_commutant_oracle(k, n_ops, seed):
    # next to a diagonal operator with distinct entries the commutant is
    # diagonal, so its dimension is the component count of the others; the
    # operators are conjugated by a random unitriangular change of basis,
    # and the count is taken in that basis
    rng = random.Random(seed)
    space = k
    ops = [
        op(space, [(i, j, rng.randint(-2, 2)) for i in range(k) for j in range(k) if rng.random() < 0.3])
        for _ in range(n_ops)
    ]
    basis = Subspace(space, [{i: 1, **{j: rng.randint(-1, 1) for j in range(i + 1, k)}} for i in range(k)])
    in_basis = [restrict_op(o, basis) for o in ops]
    diagonal = op(space, [(i, i, i + 1) for i in range(k)])
    expected = commutant_dimension(in_basis + [diagonal], Subspace.full(space))
    assert commutant_components(ops, basis) == expected


def test_simultaneous_eigenspaces_scalar():
    space = 2
    full = Subspace.full(space)
    c_id = LinearOp.identity(space, Fraction(7))
    assert eigen_dims([c_id], full, [(Fraction(7),), (Fraction(1),)]) == [2, 0]


def test_simultaneous_eigenspaces_refinement():
    space = 3
    full = Subspace.full(space)
    d1 = op(space, [(0, 0, 1), (1, 1, 1), (2, 2, 2)])
    d2 = op(space, [(0, 0, 5), (1, 1, 3), (2, 2, 3)])
    tuples = [(1, 3), (1, 5), (2, 3), (2, 5)]
    assert eigen_dims([d1, d2], full, tuples) == [1, 1, 1, 0]


def test_simultaneous_eigenspaces_incomplete_candidates():
    # a tuple list that misses part of the spectrum counts short of the dimension
    space = 2
    full = Subspace.full(space)
    d = op(space, [(0, 0, 1), (1, 1, 2)])
    assert eigen_dims([d], full, [(1,)]) == [1]


def test_simultaneous_eigenspaces_jordan_block():
    # not diagonalizable: the eigenvalue 1 has a single eigenvector, so the
    # count for the two distinct tuples is short of the dimension
    space = 2
    full = Subspace.full(space)
    jordan = op(space, [(0, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert eigen_dims([jordan], full, [(1,), (2,)]) == [1, 0]


def test_simultaneous_eigenspaces_noncommuting_rejected():
    # E12 and E21 share no eigenvector, so no tuple is counted
    s2 = 2
    full = Subspace.full(s2)
    ops = [op(s2, [(0, 1, 1)]), op(s2, [(1, 0, 1)])]
    assert eigen_dims(ops, full, [(0, 0), (1, 1)]) == [0, 0]


def test_simultaneous_eigenspaces_vectors_are_eigenvectors():
    # the kernels are in the coordinates of the subspace: on the span of
    # e0 + e1 and e2, diag(3, 3, 5) has eigenvalue 3 at coordinate 0 only
    space = 3
    sub = Subspace(space, [{0: 1, 1: 1}, {2: 1}])
    d = op(space, [(0, 0, 3), (1, 1, 3), (2, 2, 5)])
    three, five = simultaneous_eigenspaces([d], sub, [(3,), (5,)])
    assert three.ambient == five.ambient == 2
    assert three.dim == five.dim == 1
    assert set(three.vectors[0]) == {0} and set(five.vectors[0]) == {1}


def test_simultaneous_eigenspaces_tuple_length_checked():
    space = 2
    d = op(space, [(0, 0, 1), (1, 1, 2)])
    with pytest.raises(LinalgError):
        simultaneous_eigenspaces([d], Subspace.full(space), [(1, 2)])


def test_subspace_coordinates_and_membership():
    space = 3
    sub = Subspace(space, [{0: Fraction(1), 1: Fraction(1)}, {2: Fraction(1)}])
    coords = sub.coordinates({0: Fraction(2), 1: Fraction(2), 2: Fraction(-1)})
    assert coords == {0: Fraction(2), 1: Fraction(-1)}
    assert sub.coordinates({0: Fraction(1)}) is None


def test_operator_arithmetic_exactness():
    s2 = 2
    a = op(s2, [(0, 0, Fraction(1, 3)), (1, 0, 1)])
    b = op(s2, [(0, 0, Fraction(2, 3))])
    c = scaled(a + b, 3)
    assert c.cols[0][0] == 3
    assert (a - a).max_entry_witness() is None
    assert a.plus_scalar(Fraction(-1, 3)).cols[0].get(0) is None


def dense(mat):
    k = mat.dim
    return [[mat.cols.get(j, {}).get(i, 0) for j in range(k)] for i in range(k)]


def dense_product(x, y):
    return [[sum(x[i][l] * y[l][j] for l in range(len(y))) for j in range(len(y))]
            for i in range(len(x))]


def assert_stores_no_zero(mat):
    # a stored zero would surface as a failing witness of value 0/1
    for col in mat.cols.values():
        assert col and all(col.values())


def is_canonical(v):
    """An int, or a Fraction that is not integral; never a float or Fraction(n, 1)."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def assert_canonical(mat):
    assert all(is_canonical(v) for col in mat.cols.values() for v in col.values())


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers())
def test_operator_arithmetic_matches_dense_oracle(k, seed):
    # b repeats some entries of a with either sign, so whole entries and
    # columns of a + b and a - b cancel; entries of a are fed twice, once
    # with a cancelling summand, to exercise add_entry's cancellation
    # half the examples draw plain ints only, so int-only products occur;
    # the others also feed integral Fractions that inserts must turn into int
    rng = random.Random(seed)
    space = k
    if rng.random() < 0.5:
        vals = [-2, -1, 1, 2]
    else:
        vals = [Fraction(n, q) for n in (-2, -1, 1, 2) for q in (1, 2)]
    a_entries = [(i, j, rng.choice(vals)) for i in range(k) for j in range(k) if rng.random() < 0.5]
    a = op(space, a_entries + [(i, j, v) for i, j, v in a_entries if rng.random() < 0.3]
           + [(i, j, -v) for i, j, v in a_entries if rng.random() < 0.3])
    b = op(space, [(i, j, rng.choice([v, -v, rng.choice(vals)])) for i, j, v in a.entries()
                   if rng.random() < 0.7]
           + [(i, j, rng.choice(vals)) for i in range(k) for j in range(k) if rng.random() < 0.2])
    da, db = dense(a), dense(b)
    c = rng.choice(vals + [-da[0][0]])  # -a[0][0] cancels a diagonal entry
    ab, ba = dense_product(da, db), dense_product(db, da)
    cases = [
        (a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(da, db)]),
        (a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(da, db)]),
        (scaled(a, c), [[c * x for x in r] for r in da]),
        (scaled(a, 0), [[0] * k for _ in range(k)]),
        (a.plus_scalar(c), [[x + (c if i == j else 0) for j, x in enumerate(r)]
                            for i, r in enumerate(da)]),
        (a @ b, ab),
        (a.commutator(b), [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]),
    ]
    for got, want in cases:
        assert dense(got) == want
        assert_stores_no_zero(got)
        assert_canonical(got)
    # entries +-a[0][j] make row 0 of the image cancel now and then
    vec = {j: rng.choice([v, -v]) for j, v in enumerate(da[0]) if v}
    vec.update({j: rng.choice(vals) for j in range(k) if rng.random() < 0.3})
    image = a.apply(vec)
    assert [image.get(i, 0) for i in range(k)] == [
        sum(da[i][j] * vec.get(j, 0) for j in range(k)) for i in range(k)]
    assert all(image.values())
    assert all(is_canonical(v) for v in image.values())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.integers())
def test_commutator_matches_product_difference(k, seed):
    # the one-pass commutator against its definition where a column comes
    # from one side only (disjoint column supports, a zero operator) and
    # where every column cancels (b = c a + c2 commutes with a)
    rng = random.Random(seed)
    space = k
    vals = [-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)]

    def random_op(cols):
        return op(space, [(i, j, rng.choice(vals)) for i in range(k) for j in cols if rng.random() < 0.6])

    split = rng.randrange(1, k)
    a = random_op(range(k))
    zero = LinearOp(space)
    commuting = scaled(a, rng.choice(vals)).plus_scalar(rng.choice(vals))
    pairs = [
        (random_op(range(split)), random_op(range(split, k))),
        (a, zero),
        (zero, a),
        (a, commuting),
    ]
    for x, y in pairs:
        got = x.commutator(y)
        assert list(got.entries()) == list(((x @ y) - (y @ x)).entries())
        assert_stores_no_zero(got)
        assert_canonical(got)
    assert a.commutator(commuting).cols == {}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(0, 5), st.integers())
def test_coordinates_invert_from_coefficients(rank, extra, seed):
    # vector t has a nonzero entry at order[t] and others only at later
    # positions of order, so the basis is independent by construction
    rng = random.Random(seed)
    dim = rank + extra
    order = rng.sample(range(dim), dim)
    vectors = []
    for t in range(rank):
        vec = {order[t]: Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))}
        for s in range(t + 1, dim):
            if rng.random() < 0.5:
                vec[order[s]] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        vectors.append(vec)
    space = dim
    sub = Subspace(space, vectors)
    coeffs = {k: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
              for k in range(rank) if rng.random() < 0.7}
    # column k of basis is vectors[k], so it maps coeffs to their combination
    basis = LinearOp(space, dict(enumerate(vectors)))
    assert sub.coordinates(basis.apply(coeffs)) == coeffs


def test_row_reducer_numbers_accepted_vectors_only():
    red = RowReducer()
    e0, e1 = {0: Fraction(1)}, {1: Fraction(1)}
    assert red.add(e0) and not red.add(e0) and red.add(e1)
    assert red.coordinates(e1) == {1: Fraction(1)}
    assert red.coordinates({0: Fraction(2), 1: Fraction(3)}) == {0: 2, 1: 3}


def test_elimination_divides_exactly_on_integer_input():
    # every pivot candidate is +-2, so normalising a row divides two ints:
    # int / int would store floats 1.0 and 2.0 here instead of Fraction(1, 2)
    sub = Subspace(2, [{0: 2, 1: 4}, {1: 2}])
    red = sub._solver
    assert red.rows == [{0: 1, 1: 2}, {1: 1}]
    assert red.trans == [{0: Fraction(1, 2)}, {1: Fraction(1, 2)}]
    coords = sub.coordinates({0: 1})
    assert coords == {0: Fraction(1, 2), 1: -1}
    assert sub.coordinates({0: 2, 1: 6}) == {0: 1, 1: 1}
    for vec in red.rows + red.trans + [coords, sub.coordinates({0: 2, 1: 6})]:
        assert all(is_canonical(v) for v in vec.values()), vec


def test_subspace_add_grows_on_independent_vectors_only():
    sub = Subspace(3, [{0: Fraction(1), 1: Fraction(1)}])
    assert not sub.add({0: Fraction(-2), 1: Fraction(-2)})
    assert not sub.add({})
    assert sub.dim == 1
    assert sub.add({1: Fraction(1)})
    assert sub.dim == 2 and sub.vectors[1] == {1: Fraction(1)}
    assert sub.coordinates({0: Fraction(1)}) == {0: 1, 1: -1}


def test_dependent_basis_rejected():
    with pytest.raises(LinalgError):
        Subspace(2, [{0: Fraction(1)}, {0: Fraction(-2)}])


@pytest.fixture(scope="module")
def multiplicity_spaces():
    """Highest-weight spaces of (1) (x) (1) (x) V^2 at gl(2|1): proper
    subspaces of the 81-dim tensor space, with the joint spectra of
    (z_0, z_1, z_2) the Bratteli graph predicts for them."""
    hp = HookProfile(2, 1)
    g = build_graph(1, 1, 1, 1, hp, 2)
    images = rho_prime_images(module_tensor_config((1,), (1,), 2, hp))
    ops = [images.z0, images.z[1], images.z[2]]
    spaces = []
    for lam in g.level(2):
        mult = highest_weight_vectors(images.config, hook_to_weight(lam, hp))
        spaces.append((mult, list(predicted_tuples(g, lam).values())))
    assert any(mult.dim > 1 for mult, _ in spaces)
    return ops, spaces


def test_eigenspaces_on_proper_subspace_are_one_dimensional(multiplicity_spaces):
    # one joint eigenvector per predicted tuple, counted on the restrictions;
    # the joint kernel of the ambient operators inside the space is the oracle
    ops, spaces = multiplicity_spaces
    for mult, tuples in spaces:
        assert eigen_dims(ops, mult, tuples) == [1] * mult.dim
        for t in tuples:
            shifted = [op.plus_scalar(-c) for op, c in zip(ops, t)]
            assert kernel_intersection(shifted, mult).dim == 1


def test_kernel_on_proper_subspace_maps_back_to_ambient(multiplicity_spaces):
    ops, spaces = multiplicity_spaces
    for mult, tuples in spaces:
        for c0, c1 in sorted({t[:2] for t in tuples}):
            shifted = [ops[0].plus_scalar(-c0), ops[1].plus_scalar(-c1)]
            ker = kernel_intersection(shifted, mult)
            assert ker.dim == sum(1 for t in tuples if t[:2] == (c0, c1))
            for v in ker.vectors:
                assert mult.coordinates(v) is not None
                for op in shifted:
                    assert op.apply(v) == {}
