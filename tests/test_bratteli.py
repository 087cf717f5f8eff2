from fractions import Fraction
from pathlib import Path

import pytest

from superbraid.bratteli import (
    GraphError,
    build_graph,
    graph_as_dict,
    irreducibility_check,
    p0_neighbor_check,
    paths_to,
    predicted_tuples,
    s_action_on_paths,
    spectral_match,
    step_box,
    to_dot,
    to_json,
    transfer_check,
    z0_case_report,
    z0_value,
    z_values,
)
from superbraid.braid import rho_images, rho_prime_images
from superbraid.linalg import (
    Subspace,
    commutant_components,
    commutant_dimension,
    restrict_op,
    simultaneous_eigenspaces,
)
from superbraid.modules import highest_weight_vectors, module_tensor_config
from superbraid.partitions import Box, HookProfile, hook_to_weight, rectangle

HP31 = HookProfile(3, 1)
HP21 = HookProfile(2, 1)
HP11 = HookProfile(1, 1)

GOLDEN = Path(__file__).parent / "golden" / "bratteli_a4p3b2q2_n3m1_d1.json"

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


def brute_level1(level0, hp):
    """Enumeration oracle: all hook one-box extensions of the level-0 set."""
    from superbraid.partitions import addable_hook_positions

    return sorted({ext for v in level0 for ext, _ in addable_hook_positions(v, hp)})


@pytest.fixture(scope="module")
def figure_graph():
    return build_graph(4, 3, 2, 2, HP31, 1)


def test_figure_level_sets(figure_graph):
    g = figure_graph
    assert g.level(-1) == [(4, 4, 4)]
    assert g.level(0) == FIGURE_LEVEL0
    # the published picture is truncated with an ellipsis: it shows five of
    # the eight one-box hook extensions
    assert g.level(1) == brute_level1(FIGURE_LEVEL0, HP31)
    assert len(g.level(1)) == 8
    for v in FIGURE_LEVEL1_SHOWN:
        assert v in g.level(1)
    for level in g.levels:
        assert (4, 4, 4, 2, 2) not in level


def test_figure_edges(figure_graph):
    g = figure_graph
    assert g.edges[0] == [(0, 0), (0, 1), (0, 2)]  # root reaches every level-0 vertex
    pairs = {
        (g.level(0)[u], g.level(1)[v]) for (u, v) in g.edges[1]
    }
    assert FIGURE_EDGES <= pairs
    assert ((6, 6, 4), (5, 5, 4, 1, 1, 1)) not in pairs
    # every level-1 vertex has an incoming edge
    assert {v for (_, v) in g.edges[1]} == set(range(8))


def test_graph_serialization_golden(figure_graph):
    payload = to_json(figure_graph) + "\n"
    assert payload == GOLDEN.read_text()
    # bit-identical across rebuilds
    again = build_graph(4, 3, 2, 2, HP31, 1)
    assert to_json(again) + "\n" == payload


def test_dot_export_deterministic(figure_graph):
    dot = to_dot(figure_graph)
    assert dot == to_dot(build_graph(4, 3, 2, 2, HP31, 1))
    assert dot.startswith("digraph bratteli {")
    assert 'subgraph cluster_m1' in dot and '"[4,4,4]"' in dot
    assert "v_0_2 -> v_1_7;" in dot  # (6,6,4) -> (7,6,4)


def test_graph_d0():
    g = build_graph(4, 3, 2, 2, HP31, 0)
    assert len(g.levels) == 2
    assert g.level(0) == FIGURE_LEVEL0


def test_paths_figure(figure_graph):
    g = figure_graph
    assert len(paths_to(g, (6, 6, 4, 1))) == 2  # through (6,6,4) and (6,5,4,1)
    assert len(paths_to(g, (7, 6, 4))) == 1
    for lam in g.level(0):
        g0 = build_graph(4, 3, 2, 2, HP31, 0)
        assert paths_to(g0, lam) == [(lam,)]
    with pytest.raises(GraphError):
        paths_to(g, (9, 9))


def test_z_values_examples(figure_graph):
    assert step_box((6, 6, 4), (7, 6, 4)) == Box(1, 7)
    assert z_values(((6, 6, 4), (7, 6, 4))) == [6]
    assert z_values(((6, 6, 4), (6, 6, 4, 1))) == [-3]
    assert z_values(((6, 6, 4),)) == []


@pytest.mark.parametrize(
    "vertex,expected",
    [((6, 6, 4), 16), ((6, 5, 4, 1), 9), ((5, 5, 4, 1, 1), 0)],
)
def test_z0_values_figure(vertex, expected):
    assert z0_value(vertex, 4, 3, 2, 2) == expected
    report = z0_case_report(vertex, 4, 3, 2, 2)
    assert report["agree"] and report["value"] == expected


def test_z0_unit_parameters():
    assert z0_value((2,), 1, 1, 1, 1) == 1
    assert z0_value((1, 1), 1, 1, 1, 1) == -1
    for vertex in ((2,), (1, 1)):
        assert z0_case_report(vertex, 1, 1, 1, 1)["agree"]


def test_p0_neighbor_check(figure_graph):
    records = p0_neighbor_check(figure_graph)
    assert len(records) == 2  # the remaining pair differs by two boxes
    assert all(r["ok"] and r["sum"] == 1 for r in records)


def test_transfer_check_figure():
    rec = transfer_check((6, 5, 4, 1), (6, 6, 4), 4, 3, 2, 2, HP31)
    assert rec["ok"]
    swapped = transfer_check((6, 6, 4), (6, 5, 4, 1), 4, 3, 2, 2, HP31)
    assert swapped["casimir_difference"] == -rec["casimir_difference"]
    with pytest.raises(GraphError):
        transfer_check((6, 6, 4), (5, 5, 4, 1, 1), 4, 3, 2, 2, HP31)


def test_transfer_check_all_adjacent_pairs(figure_graph):
    for rec in p0_neighbor_check(figure_graph):
        lam, mu = (tuple(x) for x in rec["pair"])
        assert transfer_check(lam, mu, 4, 3, 2, 2, HP31)["ok"]


def test_s_action(figure_graph):
    g = figure_graph
    t1, t2 = paths_to(g, (6, 6, 4, 1))
    assert s_action_on_paths(g, 0, t1) == t2
    assert s_action_on_paths(g, 0, t2) == t1
    only = paths_to(g, (7, 6, 4))[0]
    assert s_action_on_paths(g, 0, only) == only
    for path in paths_to(g, (6, 6, 4, 1)):
        assert s_action_on_paths(g, 0, s_action_on_paths(g, 0, path)) == path


def test_s_action_preserves_other_values():
    g = build_graph(1, 1, 1, 1, HP21, 2)
    for lam in g.level(2):
        for path in paths_to(g, lam):
            for i in range(0, 2):
                other = s_action_on_paths(g, i, path)
                zs, zo = z_values(path), z_values(other)
                for k in range(1, 3):
                    if k not in (i, i + 1):
                        assert zs[k - 1] == zo[k - 1]
                if i != 0:
                    assert z0_value(path[0], 1, 1, 1, 1) == z0_value(other[0], 1, 1, 1, 1)


def test_predicted_tuples_distinct():
    g = build_graph(1, 1, 1, 1, HP21, 2)
    for lam in g.level(2):
        tuples = list(predicted_tuples(g, lam).values())
        assert len(set(tuples)) == len(tuples)


@pytest.mark.parametrize("hp,d", [(HP11, 1), (HP21, 1), (HP21, 2)])
def test_spectral_match(hp, d):
    g = build_graph(1, 1, 1, 1, hp, d)
    config = module_tensor_config((1,), (1,), d, hp)
    images = rho_prime_images(config)
    records = spectral_match(g, images)
    assert records and all(r["ok"] for r in records), records


def test_spectral_match_control_unshifted_images():
    # without the shift every z_i is off the box contents by n - m = 1, so
    # no predicted tuple has a joint eigenvector and every vertex must fail
    g = build_graph(1, 1, 1, 1, HP21, 2)
    config = module_tensor_config((1,), (1,), 2, HP21)
    records = spectral_match(g, rho_images(config))
    assert records and not any(r["ok"] for r in records), records
    assert all(set(r["eigenspace_dims"]) == {0} for r in records), records


@pytest.mark.parametrize("hp,d", [(HP21, 1), (HP21, 2)])
def test_irreducibility(hp, d):
    g = build_graph(1, 1, 1, 1, hp, d)
    config = module_tensor_config((1,), (1,), d, hp)
    images = rho_prime_images(config)
    for lam in g.level(d):
        rec = irreducibility_check(g, images, lam)
        assert rec["ok"], rec


def joint_eigenbasis(g, images, lam):
    """The space of highest weight vectors at lam, and the joint eigenbasis
    of z_0..z_d in its coordinates, in path order."""
    mult = highest_weight_vectors(images.config, hook_to_weight(lam, g.hp))
    zs = [images.z0] + [images.z[i] for i in range(1, g.d + 1)]
    spaces = simultaneous_eigenspaces(zs, mult, list(predicted_tuples(g, lam).values()))
    assert [space.dim for space in spaces] == [1] * mult.dim, lam
    return mult, Subspace(mult.dim, [space.vectors[0] for space in spaces])


def test_irreducibility_control_without_x1():
    # dropping the boundary generator must lose irreducibility on a
    # two-path space: the remaining generators act diagonally there
    hp = HP21
    g = build_graph(1, 1, 1, 1, hp, 2)
    config = module_tensor_config((1,), (1,), 2, hp)
    images = rho_prime_images(config)
    mult = highest_weight_vectors(config, hook_to_weight((2, 2), hp))
    assert mult.dim == 2
    gens_without_x1 = [images.z0, images.z[1], images.z[2]] + [images.t[1]]
    assert commutant_dimension(gens_without_x1, mult) > 1
    full = gens_without_x1 + [images.x[1]]
    assert commutant_dimension(full, mult) == 1
    # the same two verdicts as component counts in the joint eigenbasis
    mult, basis = joint_eigenbasis(g, images, (2, 2))
    t1, x1 = (restrict_op(o, mult) for o in (images.t[1], images.x[1]))
    assert commutant_components([t1], basis) > 1
    assert commutant_components([t1, x1], basis) == 1


# (a, p, b, q), gl(n|m), d, and the number of (path, generator) pairs
DESK_CONFIGS = {
    "a2p2b2q1-n2m1-d3": ((2, 2, 2, 1), HP21, 3, 144),
    "a1p1b1q1-n2m1-d2": ((1, 1, 1, 1), HP21, 2, 20),
    "paper-d2": ((4, 3, 2, 2), HP31, 2, 66),
}


@pytest.fixture(scope="module", params=sorted(DESK_CONFIGS))
def desk(request):
    (a, p, b, q), hp, d, pairs = DESK_CONFIGS[request.param]
    g = build_graph(a, p, b, q, hp, d)
    config = module_tensor_config(rectangle(a, p), rectangle(b, q), d, hp)
    return g, config, rho_prime_images(config), pairs


def test_component_count_matches_commutant_oracle(desk):
    g, config, images, _ = desk
    gens = [images.z0, *images.z.values(), images.x[1], *images.t.values()]
    for lam in g.level(g.d):
        rec = irreducibility_check(g, images, lam)
        mult = highest_weight_vectors(config, hook_to_weight(lam, g.hp))
        assert rec["commutant_dim"] == commutant_dimension(gens, mult) == 1, rec
        assert rec["ok"] and rec["notes"] == [], rec


def test_seminormal_form_in_joint_eigenbasis(desk):
    # Young's seminormal form: in the eigenbasis, in path order, t_i joins T
    # only to s_i T, with 1 / (c_{i+1}(T) - c_i(T)) on the diagonal, and x_1
    # joins T only to s_0 T
    g, _, images, pairs = desk
    checked = 0
    for lam in g.level(g.d):
        paths = paths_to(g, lam)
        mult, basis = joint_eigenbasis(g, images, lam)
        gens = [(0, images.x[1])] + [(i, images.t[i]) for i in range(1, g.d)]
        for i, gen in gens:
            mat = restrict_op(restrict_op(gen, mult), basis)
            for col, path in enumerate(paths):
                partner = s_action_on_paths(g, i, path)
                entries = mat.cols.get(col, {})
                off = {paths[row] for row, v in entries.items() if row != col}
                assert off == ({partner} - {path}), (lam, i, path, off)
                if i >= 1:
                    c = z_values(path)
                    assert entries.get(col, 0) == Fraction(1, c[i] - c[i - 1]), (lam, i, path)
                checked += 1
    assert checked == pairs


@pytest.mark.parametrize("hp,d", [(HP21, 2), (HP21, 3)])
def test_irreducibility_control_unshifted_images(hp, d):
    # without the shift no predicted tuple has a joint eigenvector, so no
    # vertex has an eigenbasis: each fails with that note, and none crashes
    g = build_graph(1, 1, 1, 1, hp, d)
    config = module_tensor_config((1,), (1,), d, hp)
    images = rho_images(config)
    records = [irreducibility_check(g, images, lam) for lam in g.level(d)]
    assert any(rec["multiplicity_dim"] > 1 for rec in records)
    for rec in records:
        assert not rec["ok"] and rec["commutant_dim"] is None, rec
        assert rec["notes"] == ["joint eigenspace of dimension != 1"], rec


def test_graph_dict_schema(figure_graph):
    payload = graph_as_dict(figure_graph)
    assert payload["schema"] == 1
    assert payload["params"]["a"] == 4 and payload["params"]["d"] == 1
    assert payload["levels"][0] == [[4, 4, 4]]


def test_multiplicity_spaces_invariant_under_all_images():
    # restriction would fail loudly if an image left the space
    from superbraid.linalg import restrict_op

    hp = HP21
    g = build_graph(1, 1, 1, 1, hp, 2)
    config = module_tensor_config((1,), (1,), 2, hp)
    images = rho_prime_images(config)
    for lam in g.level(2):
        mult = highest_weight_vectors(config, hook_to_weight(lam, hp))
        for _, op in images.named_ops():
            restrict_op(op, mult)


def test_boundary_generators_commute_on_multiplicity_spaces():
    from superbraid.linalg import restrict_op

    hp = HP21
    g = build_graph(1, 1, 1, 1, hp, 2)
    config = module_tensor_config((1,), (1,), 2, hp)
    images = rho_prime_images(config)
    zs = [images.z0, images.z[1], images.z[2]]
    for lam in g.level(2):
        mult = highest_weight_vectors(config, hook_to_weight(lam, hp))
        k = mult.dim
        mats = [
            [[restricted.cols.get(c, {}).get(r, 0) for c in range(k)] for r in range(k)]
            for restricted in (restrict_op(z, mult) for z in zs)
        ]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                prod_ij = [[sum(mats[i][r][l] * mats[j][l][c] for l in range(k)) for c in range(k)] for r in range(k)]
                prod_ji = [[sum(mats[j][r][l] * mats[i][l][c] for l in range(k)) for c in range(k)] for r in range(k)]
                assert prod_ij == prod_ji
