import functools
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import superbraid.braid as braid
from superbraid.braid import (
    POS_M,
    POS_N,
    LocalProofs,
    m_pairs,
    rho_images,
    rho_prime_images,
    unshifted,
    v_position,
    verify_braid_relations,
    verify_centralizer,
    verify_hecke_relations,
    with_unsigned_swaps,
)
from superbraid.linalg import LinearOp
from superbraid.modules import module_tensor_config
from superbraid.partitions import HookProfile
from superbraid.superalgebra import TensorConfig, natural_casimir_scalar, natural_factor

from braid_oracle import eager_images, whole_space_braid, whole_space_hecke, whole_space_r2
from casimir_oracle import casimir_difference_images
from centralizer_oracle import full_centralizer

HP11 = HookProfile(1, 1)
HP21 = HookProfile(2, 1)
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_KOSZUL = GOLDEN / "braid_koszul_a1b1_n1m1_d3.json"
GOLDEN_KOSZUL_PLAIN = GOLDEN / "braid_koszul_plain_a1b1_n2m1_d3.json"
GOLDEN_KOSZUL_PAPER = GOLDEN / "braid_koszul_a4p3b2q2_n3m1_d2.json"
GOLDEN_UNSIGNED = GOLDEN / "centralizer_unsigned_a1b1_n1m1_d3.json"


@pytest.fixture(scope="module")
def cfg11_d3():
    return module_tensor_config((1,), (1,), 3, HP11)


@pytest.fixture(scope="module")
def cfg21_d2():
    return module_tensor_config((1,), (1,), 2, HP21)


def test_x1_is_half_kv_plus_boundary_split_casimir(cfg11_d3):
    imgs = rho_images(cfg11_d3)
    kv = Fraction(natural_casimir_scalar(HP11))
    gamma = cfg11_d3.split_casimir_op(POS_M, v_position(1))
    expected = gamma.plus_scalar(kv / 2)
    assert (imgs.x[1] - expected).max_entry_witness() is None


def test_shifted_x1_is_exactly_boundary_split_casimir(cfg21_d2):
    imgs = rho_prime_images(cfg21_d2)
    gamma = cfg21_d2.split_casimir_op(POS_M, v_position(1))
    assert (imgs.x[1] - gamma).max_entry_witness() is None


def test_z0_is_boundary_pair_split_casimir(cfg21_d2):
    for images in (rho_images(cfg21_d2), rho_prime_images(cfg21_d2)):
        gamma = cfg21_d2.split_casimir_op(POS_M, POS_N)
        assert (images.z0 - gamma).max_entry_witness() is None


def test_shift_amounts(cfg21_d2):
    plain = rho_images(cfg21_d2)
    shifted = rho_prime_images(cfg21_d2)
    kv = Fraction(natural_casimir_scalar(HP21))
    half, full = (LinearOp.identity(cfg21_d2.dim, c) for c in (kv / 2, kv))
    for i in (1, 2):
        assert (plain.x[i] - shifted.x[i] - half).max_entry_witness() is None
        assert (plain.z[i] - shifted.z[i] - full).max_entry_witness() is None
    assert (plain.z0 - shifted.z0).max_entry_witness() is None
    # entries are int unless truly fractional: a Fraction(1) seed anywhere in
    # the assembly would silently put every product on Fraction arithmetic
    r = HP21.rank
    units = [cfg21_d2.act_unit(i, j) for i in range(1, r + 1) for j in range(1, r + 1)]
    shifted_ops = units + [op for _, op in shifted.named_ops()]
    assert all(type(v) is int for op in shifted_ops for col in op.cols.values() for v in col.values())
    plain_vals = [v for _, op in plain.named_ops() for col in op.cols.values() for v in col.values()]
    assert all(type(v) is int or (type(v) is Fraction and v.denominator == 2) for v in plain_vals)
    assert any(type(v) is Fraction for v in plain_vals)


# boundary partitions, d and hook profile: the two fixtures above and the
# configs of the relations and multiplicity benchmark workloads
ORACLE_CONFIGS = {
    "cfg11_d3": ((1,), (1,), 3, HP11),
    "cfg21_d2": ((1,), (1,), 2, HP21),
    "relations": ((1,), (1,), 4, HP21),
    "multiplicity": ((2, 2), (2,), 3, HP21),
}


def oracle_mismatches(images, oracle):
    """Names of the generators on which ``images``, with any shift undone,
    differ from the Casimir-difference ``oracle``."""
    x, y, z, z0 = oracle
    s = Fraction(natural_casimir_scalar(images.config.hp), 2) if images.shifted else 0
    pairs = [("z0", images.z0, z0)]
    for i in range(1, images.d + 1):
        pairs += [
            (f"x{i}", images.x[i].plus_scalar(s), x[i]),
            (f"y{i}", images.y[i].plus_scalar(s), y[i]),
            (f"z{i}", images.z[i].plus_scalar(2 * s), z[i]),
        ]
    return [name for name, op, ref in pairs if (op - ref).max_entry_witness() is not None]


@pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
def test_images_match_casimir_difference_oracle(name):
    alpha, beta, d, hp = ORACLE_CONFIGS[name]
    cfg = module_tensor_config(alpha, beta, d, hp)
    oracle = casimir_difference_images(cfg)
    for images in (rho_images(cfg), rho_prime_images(cfg)):
        assert images.d == d and sorted(images.x) == list(range(1, d + 1))
        assert oracle_mismatches(images, oracle) == []


def test_casimir_difference_oracle_rejects_corrupt_gamma(cfg11_d3):
    # the comparison above can fail: a split Casimir without the Koszul
    # sign on its second leg is off the definition in every x_i
    broken = rho_prime_images(cfg11_d3, corrupt_gamma="koszul")
    missed = oracle_mismatches(broken, casimir_difference_images(cfg11_d3))
    assert {"x1", "x2", "x3"} <= set(missed)


def test_corrupt_gamma_report_matches_golden(cfg11_d3):
    # pins every witness of a failing relation report byte for byte: value,
    # row, column and their decoding into one basis index per factor
    broken = rho_prime_images(cfg11_d3, corrupt_gamma="koszul")
    assert verify_braid_relations(broken).to_json() + "\n" == GOLDEN_KOSZUL.read_text()


def has_fraction_entry(images) -> bool:
    values = (v for _, op in images.named_ops() for col in op.cols.values() for v in col.values())
    return any(type(v) is Fraction for v in values)


def test_corrupt_gamma_plain_report_matches_golden():
    # kappa_V / 2 = 1/2 on the plain x_i and y_i: the golden pins the
    # witnesses of residuals with fractional entries, the R2 ones products
    cfg = module_tensor_config((1,), (1,), 3, HP21)
    broken = unshifted(rho_prime_images(cfg, corrupt_gamma="koszul"))
    assert has_fraction_entry(broken)
    rep = verify_braid_relations(broken)
    assert sum(not c.ok for c in rep.checks) == 25
    assert rep.to_json() + "\n" == GOLDEN_KOSZUL_PLAIN.read_text()


def test_corrupt_gamma_paper_example_report_matches_golden():
    # the realized boundary modules L(4^3) and L(2^2) put half-integer
    # entries into the shifted images at the paper example too
    cfg = module_tensor_config((4, 4, 4), (2, 2), 2, HookProfile(3, 1))
    broken = rho_prime_images(cfg, corrupt_gamma="koszul")
    assert has_fraction_entry(broken)
    rep = verify_braid_relations(broken)
    assert sum(not c.ok for c in rep.checks) == 11
    assert rep.to_json() + "\n" == GOLDEN_KOSZUL_PAPER.read_text()


def test_swap_involution(cfg11_d3):
    imgs = rho_images(cfg11_d3)
    ident = LinearOp.identity(cfg11_d3.dim)
    for i, t in imgs.t.items():
        assert (t @ t - ident).max_entry_witness() is None


def test_braid_relations_all_pass(cfg11_d3, cfg21_d2):
    for cfg in (cfg11_d3, cfg21_d2):
        for images in (rho_images(cfg), rho_prime_images(cfg)):
            rep = verify_braid_relations(images)
            assert rep.ok, [c.id for c in rep.checks if not c.ok]


def test_m_ops_definitions(cfg11_d3):
    # m_pairs on operators, from m_{i,i+1} = x_{i+1} - t_i x_i t_i
    imgs = rho_prime_images(cfg11_d3)
    t, x = imgs.t, imgs.x

    def conj(op, k):
        return t[k] @ op @ t[k]

    pair = m_pairs({i: x[i + 1] - conj(x[i], i) for i in (1, 2)}, conj)
    assert sorted(pair) == [(1, 2), (1, 3), (2, 3)]
    m12 = imgs.x[2] - imgs.t[1] @ imgs.x[1] @ imgs.t[1]
    assert (pair[(1, 2)] - m12).max_entry_witness() is None
    # m_{1,3} equals the split Casimir on copies 1 and 3
    gamma13 = cfg11_d3.split_casimir_op(v_position(1), v_position(3))
    assert (pair[(1, 3)] - gamma13).max_entry_witness() is None


def test_transposition_word(cfg11_d3):
    # m_pairs conjugates m_{j-1,j} by the palindromic word t_i .. t_{j-2} ..
    # t_i, read off a conj that records it, and m_{j-1,j} by no word; on
    # operators the word t_1 t_2 t_1 of copies 1 and 3 is an involution
    words = m_pairs({i: ("m",) for i in range(1, 5)}, lambda w, k: (k, *w, k))
    assert sorted(words) == [(i, j) for i in range(1, 5) for j in range(i + 1, 6)]
    for (i, j), w in words.items():
        word = (*range(i, j - 1), *range(j - 3, i - 1, -1))
        assert word == word[::-1] and w == (*word, "m", *word)
    imgs = rho_prime_images(cfg11_d3)
    ident = LinearOp.identity(cfg11_d3.dim)
    pair = m_pairs({1: ident, 2: imgs.t[2]}, lambda op, k: imgs.t[k] @ op @ imgs.t[k])
    t13 = pair[(1, 3)]
    assert (t13 @ t13 - ident).max_entry_witness() is None
    expected = imgs.t[1] @ imgs.t[2] @ imgs.t[1]
    assert (t13 - expected).max_entry_witness() is None
    assert (pair[(1, 2)] - ident).max_entry_witness() is None


def test_centralizer(cfg11_d3, cfg21_d2):
    for cfg in (cfg11_d3, cfg21_d2):
        rep = verify_centralizer(rho_prime_images(cfg))
        assert rep.ok, [c.id for c in rep.checks if not c.ok]


def test_hecke_relations_unit_rectangles(cfg11_d3, cfg21_d2):
    for cfg in (cfg11_d3, cfg21_d2):
        rep = verify_hecke_relations(rho_prime_images(cfg), 1, 1, 1, 1)
        assert rep.ok, [c.id for c in rep.checks if not c.ok]


def test_hecke_on_actual_rectangles():
    # boundary modules that are not the natural module
    hp = HookProfile(2, 2)
    cfg = module_tensor_config((2,), (1, 1), 1, hp)
    rep = verify_hecke_relations(rho_prime_images(cfg), 2, 1, 1, 2)
    assert rep.ok, [c.id for c in rep.checks if not c.ok]
    rep_braid = verify_braid_relations(rho_prime_images(cfg))
    assert rep_braid.ok


def assert_witness_decodes(witness, config):
    # the per-factor basis indices of a witness name the very entry it reports
    for key in ("row", "col"):
        basis = witness[f"{key}_basis"]
        assert len(basis) == config.n_factors
        assert sum(c * s for c, s in zip(basis, config.strides)) == witness[key]
        assert all(0 <= c < f.dim for c, f in zip(basis, config.factors))


def test_hecke_negative_control_mismatched_parameters(cfg21_d2):
    rep = verify_hecke_relations(rho_prime_images(cfg21_d2), 2, 1, 1, 1)
    failed = [c for c in rep.checks if not c.ok]
    assert failed
    assert failed[0].id == "hecke:(x1-2)(x1+1)=0"
    assert failed[0].witness["row_basis"] == [0, 0, 0, 0]
    for check in failed:
        assert_witness_decodes(check.witness, cfg21_d2)


def test_unsigned_swap_negative_control(cfg11_d3):
    broken = with_unsigned_swaps(rho_prime_images(cfg11_d3))
    rep = verify_centralizer(broken)
    bad = [c for c in rep.checks if not c.ok]
    assert bad and all(c.witness for c in bad)
    assert any(c.id.startswith("[t") for c in bad)
    for check in bad:
        assert_witness_decodes(check.witness, cfg11_d3)


def test_unsigned_swap_report_matches_golden(cfg11_d3):
    # pins the witnesses of a failing centralizer report, each the largest
    # entry of one commutator residual, byte for byte
    broken = with_unsigned_swaps(rho_prime_images(cfg11_d3))
    assert verify_centralizer(broken).to_json() + "\n" == GOLDEN_UNSIGNED.read_text()


def test_corrupt_gamma_negative_control(cfg11_d3):
    # dropping the Koszul sign inside the split Casimir breaks the
    # transport relations R4 and R5, with explicit witnesses
    broken = rho_prime_images(cfg11_d3, corrupt_gamma="koszul")
    rep = verify_braid_relations(broken)
    families = {c.id.split(":")[0] for c in rep.checks if not c.ok}
    assert "R4" in families and "R5" in families
    witnesses = [c.witness for c in rep.checks if not c.ok and c.id.startswith("R4")]
    assert witnesses and witnesses[0]["value"] != "0/1"
    for witness in witnesses:
        assert_witness_decodes(witness, cfg11_d3)
    # dropping the parity prefactor instead trips the sum relations
    broken2 = rho_prime_images(cfg11_d3, corrupt_gamma="parity")
    rep2 = verify_braid_relations(broken2)
    assert not rep2.ok


def test_report_json_shape(cfg11_d3):
    rep = verify_braid_relations(rho_prime_images(cfg11_d3))
    payload = rep.as_dict()
    assert payload["schema"] == 1
    assert payload["ok"] is True
    assert all(c["status"] == "pass" for c in payload["checks"])
    assert rep.to_json() == rep.to_json()


def test_d1_and_d0_edge_cases():
    cfg = module_tensor_config((1,), (1,), 1, HP11)
    imgs = rho_prime_images(cfg)
    assert verify_braid_relations(imgs).ok
    assert verify_hecke_relations(imgs, 1, 1, 1, 1).ok
    cfg0 = module_tensor_config((1,), (1,), 0, HP11)
    imgs0 = rho_prime_images(cfg0)
    assert verify_braid_relations(imgs0).ok
    assert imgs0.d == 0 and not imgs0.t and not imgs0.x
    with pytest.raises(ValueError):
        rho_images(TensorConfig([natural_factor(HP11)], HP11))


# boundary partitions, d and hook profile of the configs on which the
# shortcut proofs are compared with the direct residuals
SHORTCUT_CONFIGS = {
    "gl11_d3": ((1,), (1,), 3, HP11),
    "gl21_d2": ((1,), (1,), 2, HP21),
    "gl12_d3": ((1,), (1,), 3, HookProfile(1, 2)),
    "gl22_boundaries_d1": ((2,), (1, 1), 1, HookProfile(2, 2)),
    # N and v_1 sit between the legs of Gamma(M, v_2), and both have odd vectors
    "gl22_boundaries_d2": ((2,), (1, 1), 2, HookProfile(2, 2)),
    "paper_d1": ((4, 4, 4), (2, 2), 1, HookProfile(3, 1)),
}
CONTROLS = ("clean", "parity", "koszul", "unsigned")


@functools.cache
def shortcut_images(name, control):
    alpha, beta, d, hp = SHORTCUT_CONFIGS[name]
    cfg = module_tensor_config(alpha, beta, d, hp)
    if control == "unsigned":
        return with_unsigned_swaps(rho_prime_images(cfg))
    if control == "off-weight":
        # z_0 plus a raising unit moves weight, so the Cartan lines fail
        images = rho_prime_images(cfg)
        return replace(images, ops={**images.ops, "z0": images.z0 + cfg.act_unit(1, 2)})
    return rho_prime_images(cfg, corrupt_gamma=None if control == "clean" else control)


@pytest.mark.parametrize("control", CONTROLS + ("off-weight",))
@pytest.mark.parametrize("name", list(SHORTCUT_CONFIGS))
def test_centralizer_matches_full_oracle(name, control):
    images = shortcut_images(name, control)
    rep = verify_centralizer(images)
    assert rep.to_json() == full_centralizer(images).to_json()
    # every control fails but the unsigned swaps where there are none
    assert rep.ok == (control == "clean" or control == "unsigned" and images.d < 2)
    if control == "off-weight":
        assert [c.ok for c in rep.checks if c.id in ("[z0,E(1,1)]", "[z0,E(2,2)]")] == [False, False]


def braid_matching_whole_space(images):
    """The braid report on ``images``, after asserting that it and the one
    on ``unshifted(images)`` are the oracle's, byte for byte."""
    reports = [verify_braid_relations(acting) for acting in (images, unshifted(images))]
    for rep, acting in zip(reports, (images, unshifted(images))):
        assert rep.to_json() == whole_space_braid(acting).to_json()
    return reports[0]


@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("name", list(SHORTCUT_CONFIGS))
def test_braid_relations_match_whole_space_oracle(name, control):
    # every line proved from parts forms, or taken as a residual where a
    # premise fails, against the residuals on the whole space; every control
    # fails but the unsigned swaps where there are none
    images = shortcut_images(name, control)
    assert braid_matching_whole_space(images).ok == (control == "clean" or control == "unsigned" and images.d < 2)


def hecke_params(name):
    """The quotient parameters a, p, b, q of the boundary rectangles of
    ``name``, the mismatched control 2, 1, 1, 1, and the two boundaries'
    parameters interchanged."""
    alpha, beta = SHORTCUT_CONFIGS[name][:2]
    own = (alpha[0], len(alpha), beta[0], len(beta))
    return [own, (2, 1, 1, 1), own[2:] + own[:2]]


@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("name", list(SHORTCUT_CONFIGS))
def test_hecke_relations_match_whole_space_oracle(name, control):
    # every Hecke line proved from parts forms on local configs, or taken as
    # a residual where a premise fails, against the residuals on the whole
    # space, on the shifted and the unshifted images and at parameters that
    # do not fit the boundaries
    images = shortcut_images(name, control)
    for acting in (images, unshifted(images)):
        for params in hecke_params(name):
            assert verify_hecke_relations(acting, *params).to_json() == whole_space_hecke(acting, *params).to_json()
    # every control fails but the unsigned swaps where there are none, and
    # the swap lines hold under every control but the unsigned swaps
    own = verify_hecke_relations(images, *hecke_params(name)[0])
    assert own.ok == (control == "clean" or control == "unsigned" and images.d < 2)
    swap_lines = [c.ok for c in own.checks if c.id.startswith("hecke:t")]
    assert swap_lines == [control != "unsigned"] * (images.d - 1)


def one_sided_swap(self, pos):
    # signed_swap with the sign (-1)^|v| of the left component alone: it
    # squares to -1 on v (x) w with v odd and w even
    out = LinearOp(self.dim)
    for idx in range(self.dim):
        comps = self.decode(idx)
        a, b = comps[pos], comps[pos + 1]
        new = idx + (b - a) * (self.strides[pos] - self.strides[pos + 1])
        out.add_entry(new, idx, -1 if self.factors[pos].parities[a] else 1)
    return out


@pytest.mark.parametrize(
    "case", ["x2-clean", "x2-koszul", "x1-clean", "x1-koszul", "entry-two-swap", "scalar", "one-sided-swap"]
)
def test_changed_images_match_whole_space_oracle(case, monkeypatch):
    # one image or swap changed at a time, in a plain dict, so every line is
    # its residual: images off their parts, a swap that is no signed
    # permutation, an image whose scalar is off by 1; and, in the container,
    # swaps that are signed_swap but no involution, on the local configs too
    if case == "entry-two-swap":
        cases = [entry_two_swap_images()]
    elif case == "scalar":
        images = shortcut_images("gl21_d2", "clean")
        cases = [replace(images, ops={**images.ops, "x1": images.x[1].plus_scalar(1)})]
    elif case == "one-sided-swap":
        monkeypatch.setattr(TensorConfig, "signed_swap", one_sided_swap)
        cases = [rho_prime_images(module_tensor_config((1,), (1,), 3, HP11))]
    else:
        change, control = case.split("-")
        names = ["gl21_d2"] if change == "x2" else ["gl21_d2", "paper_d1"]
        cases = [off_parts_images(name, control, change) for name in names]
    for images in cases:
        assert not braid_matching_whole_space(images).ok
        for params in ((1, 1, 1, 1), (2, 1, 1, 1), (4, 3, 2, 2)):
            assert verify_hecke_relations(images, *params).to_json() == whole_space_hecke(images, *params).to_json()


@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("name", list(SHORTCUT_CONFIGS))
def test_r2_lines_match_whole_space_oracle(name, control):
    # the R2 lines proved from local 4T relators, or taken as residuals where
    # a premise fails, against the prefix commutators on the whole space
    images = shortcut_images(name, control)
    for acting in (images, unshifted(images)):
        lines = [c.as_dict() for c in verify_braid_relations(acting).checks if c.id.startswith("R2:")]
        expected = whole_space_r2(acting).as_dict()["checks"]
        assert lines == expected
        # the split Casimir controls fail every R2 line
        assert all(c["status"] == ("fail" if control in ("parity", "koszul") else "pass") for c in expected)


def test_conjugation_certificate_needs_an_involution(monkeypatch):
    # conjugates(pos, pair) needs t t = 1 besides t Gamma t = Gamma'; a swap
    # with a one-sided sign fails it, and so every conjugation by it is
    # unproved, on pairs it fixes and on pairs it moves alike
    pos = v_position(1)
    pairs = [(POS_M, POS_N), (POS_M, pos), (pos, pos + 1), (pos + 1, pos + 2)]
    local = LocalProofs(module_tensor_config((1,), (1,), 3, HP11))
    assert all(local.conjugates(pos, pair) for pair in pairs)
    monkeypatch.setattr(TensorConfig, "signed_swap", one_sided_swap)
    local = LocalProofs(module_tensor_config((1,), (1,), 3, HP11))
    assert not any(local.conjugates(pos, pair) for pair in pairs)


def test_hecke_certificates_are_decided_on_their_legs(monkeypatch):
    # at gl(2|2) the boxes that V adds to M = L(2) have contents 2 and -1,
    # and to N = L(1,1) contents 1 and -2, so each quadratic holds for its
    # own boundary alone; signed_swap is Gamma on V (x) V, a swap with a
    # one-sided sign is not
    cfg = module_tensor_config((2,), (1, 1), 2, HookProfile(2, 2))
    local = LocalProofs(cfg)
    m, n = (POS_M, v_position(1)), (POS_N, v_position(1))
    assert local.quadratic_vanishes(m, -2, 1) and local.quadratic_vanishes(n, -1, 2)
    assert not local.quadratic_vanishes(m, -1, 2) and not local.quadratic_vanishes(n, -2, 1)
    assert local.swap_is_gamma(v_position(1))
    monkeypatch.setattr(TensorConfig, "signed_swap", one_sided_swap)
    assert not LocalProofs(cfg).swap_is_gamma(v_position(1))


def test_r2_grouping_needs_every_term():
    # the prefix z_0 + z_1 + z_2 against x_2 groups into 4T relators; without
    # Gamma(N, v_2) the term [Gamma(M, N), Gamma(M, v_2)] has no partner in
    # its group, so the sum is not proved
    images = shortcut_images("gl21_d2", "clean")
    local = LocalProofs(images.config)
    prefix = [pair for name in ("z0", "z1", "z2") for pair in images.parts[name]]
    assert local.bracket_vanishes(prefix, images.parts["x2"])
    short = [pair for pair in prefix if pair != (POS_N, v_position(2))]
    assert not local.bracket_vanishes(short, images.parts["x2"])


def count_commutators(monkeypatch):
    calls = []
    commutator = LinearOp.commutator

    def counted(self, other):
        calls.append((self, other))
        return commutator(self, other)

    monkeypatch.setattr(LinearOp, "commutator", counted)
    return calls


class ConfigDim(int):
    """A config's dimension that names the config.  An operator built on the
    config keeps this object as its ``dim``, and so does every sum, product,
    commutator and scalar shift of one, since each hands on an operand's
    ``dim``.  So a counter can tell which config an operator is on, where
    two configs may have one dimension: at d = 1 the 4T config on the legs
    M, N and v_1 is a second config on every factor of the whole space."""


def tag_configs(monkeypatch):
    """Give every config built from now on a :class:`ConfigDim`."""
    init = TensorConfig.__init__

    def tagged(self, factors, hp):
        init(self, factors, hp)
        self.dim = ConfigDim(self.dim)
        self.dim.config = self

    monkeypatch.setattr(TensorConfig, "__init__", tagged)


def config_of(op):
    """The tagged config ``op`` is on; None for an operator no config
    built, such as a factor's own unit matrix."""
    return getattr(op.dim, "config", None)


def on_whole_space(calls, config):
    return [c for c in calls if config_of(c[0]) is config]


def on_local_configs(calls, config):
    """Whether every call is on a config other than ``config``: on no
    whole-space operator and on no factor's own unit matrix."""
    return all(config_of(c[0]) not in (None, config) for c in calls)


@pytest.mark.parametrize("hp", [HP21, HookProfile(3, 1)])
def test_shortcuts_take_the_stated_number_of_commutators(hp, monkeypatch):
    # on passing reports no commutator is taken on the whole space.  The
    # centralizer takes r^2 per local key, one for each unit: M (x) N,
    # M (x) V (which N (x) V shares, as M and N are one module object here)
    # and V (x) V for the split Casimirs, and V (x) V for the swaps; and
    # none on a factor's own unit matrices.  R2 takes one local commutator
    # per 4T relator key
    tag_configs(monkeypatch)
    cfg = module_tensor_config((1,), (1,), 3, hp)
    images = rho_prime_images(cfg)
    r = hp.rank
    calls = count_commutators(monkeypatch)
    assert verify_centralizer(images).ok
    assert on_local_configs(calls, cfg)
    assert len(calls) == 4 * r * r
    calls.clear()
    assert verify_braid_relations(images).ok
    assert calls and on_local_configs(calls, cfg)
    # the unshifted images are a plain dict, so every line is its residual
    calls.clear()
    assert verify_braid_relations(unshifted(images)).ok
    assert calls and len(on_whole_space(calls, cfg)) == len(calls)


@pytest.mark.parametrize("name", ["gl22_boundaries_d1", "gl22_boundaries_d2", "paper_d1"])
def test_boundary_split_casimirs_take_the_commutator_path(name, monkeypatch):
    # Gamma(M,N), Gamma(M,v_i) and Gamma(N,v_i) are no signed permutations:
    # each local config takes its r^2 commutators with the units, once, on
    # M (x) N, M (x) V and N (x) V, and at d = 2 also on V (x) V twice (for
    # Gamma(v_1, v_2) and the swap); none is on the whole space or on a
    # factor's own unit matrices
    alpha, beta, d, hp = SHORTCUT_CONFIGS[name]
    tag_configs(monkeypatch)
    images = rho_prime_images(module_tensor_config(alpha, beta, d, hp))
    cfg = images.config
    r = cfg.hp.rank
    calls = count_commutators(monkeypatch)
    assert verify_centralizer(images).ok
    assert on_local_configs(calls, cfg)
    m, n, v = (f.dim for f in cfg.factors[:3])
    dims = [m * n, m * v, n * v] + ([v * v, v * v] if images.d == 2 else [])
    local = [config_of(c[0]).dim for c in calls]
    assert sorted(local) == sorted(dim for dim in dims for _ in range(r * r))


@pytest.mark.parametrize("name", list(SHORTCUT_CONFIGS))
def test_passing_reports_take_no_whole_space_commutator(name, monkeypatch):
    # every centralizer, braid and Hecke line of fresh clean images is
    # proved locally: no suite builds or reads an image, builds a swap, a
    # unit or a split Casimir, or takes a commutator or a product on the
    # whole space.  The unshifted images are a plain dict, so they fail the
    # premise and every braid line on them is its residual: each commutator,
    # product and split Casimir is then on the whole space
    alpha, beta, d, hp = SHORTCUT_CONFIGS[name]
    tag_configs(monkeypatch)
    images = rho_prime_images(module_tensor_config(alpha, beta, d, hp))
    whole = images.config
    calls = count_commutators(monkeypatch)
    built = []  # (what, config) of each call counted

    def counted(what, fn, on=lambda *args: None):
        def wrapped(*args, **kwargs):
            built.append((what, on(*args)))
            return fn(*args, **kwargs)

        return wrapped

    def on_whole(entries):
        return {what for what, on in entries if on is None or on is whole}

    read = counted("image", braid.SummedImages.__getitem__, lambda *_: whole)
    monkeypatch.setattr(braid.SummedImages, "__getitem__", read)
    monkeypatch.setattr(TensorConfig, "act_unit", counted("act_unit", TensorConfig.act_unit, lambda cfg, *_: cfg))
    split = counted("split_casimir_op", TensorConfig.split_casimir_op, lambda cfg, *_: cfg)
    monkeypatch.setattr(TensorConfig, "split_casimir_op", split)
    matmul = counted("@", LinearOp.__matmul__, lambda a, b: config_of(a))
    monkeypatch.setattr(LinearOp, "__matmul__", matmul)
    swap = counted("signed_swap", TensorConfig.signed_swap, lambda cfg, *_: cfg)
    monkeypatch.setattr(TensorConfig, "signed_swap", swap)
    swaps = ["signed_swap", "@"] * (images.d > 1)
    assert verify_centralizer(images).ok and verify_braid_relations(images).ok
    assert calls and not on_whole_space(calls, whole)
    # the counters are live: local units and split Casimirs, and local
    # swaps and products where there are swaps
    assert {what for what, _ in built} == {"act_unit", "split_casimir_op", *swaps}
    assert not on_whole(built)
    built.clear()
    calls.clear()
    # hecke decides its quadratics and swaps on local configs alone
    assert verify_hecke_relations(images, *hecke_params(name)[0]).ok
    assert {what for what, _ in built} == {"split_casimir_op", "@", *swaps}
    assert not on_whole(built) and not on_whole_space(calls, whole)
    built.clear()
    plain = unshifted(images)
    # the image counter is live: one read of each image and each swap, and
    # each swap a whole signed_swap
    assert [what for what, _ in built if what == "image"] == ["image"] * (4 * images.d)
    assert on_whole(built) == {"image", "split_casimir_op", *swaps[:1]}
    built.clear()
    calls.clear()
    assert braid.by_construction(images) and not braid.by_construction(plain)
    assert verify_braid_relations(plain).ok
    assert calls and len(on_whole_space(calls, whole)) == len(calls)
    assert all(on is whole for _, on in built)


@pytest.mark.parametrize("control", ["clean", "parity", "koszul"])
@pytest.mark.parametrize("name", list(SHORTCUT_CONFIGS))
def test_images_match_eager_oracle(name, control):
    # each image built on first read, in any order, is the one the eager
    # assembly gives, and so is each unshifted image
    alpha, beta, d, hp = SHORTCUT_CONFIGS[name]
    cfg = module_tensor_config(alpha, beta, d, hp)
    corrupt = None if control == "clean" else control
    images, oracle = rho_prime_images(cfg, corrupt), eager_images(cfg, corrupt)
    assert list(images.ops) == list(oracle.ops)
    for name, op in reversed(oracle.named_ops()):
        assert images.ops[name].cols == op.cols
    for name, op in unshifted(oracle).named_ops():
        assert unshifted(images).ops[name].cols == op.cols


def moved_images(case):
    """Images of gl(2|1), d = 2, whose container breaks one binding of
    ``by_construction``: built with a corrupt mode, on another config than
    the images', or a plain dict, with the plain swap as ``t1``.  The other
    config has one more entry in the left boundary's E(1,3), so its Gammas
    on M differ."""
    if case in ("parity", "koszul"):
        return rho_prime_images(module_tensor_config((1,), (1,), 2, HP21), corrupt_gamma=case)
    images = rho_prime_images(module_tensor_config((1,), (1,), 2, HP21))
    if case == "config":
        return replace(images, config=off_bracket_config((1, 2, 1)))
    return with_unsigned_swaps(images)


@pytest.mark.parametrize("case", ["parity", "koszul", "config", "t1"])
def test_premise_by_construction_needs_each_binding(case, monkeypatch):
    # breaking any one binding fails the premise, which sends every line to
    # its residual: no local config is built, every centralizer line takes
    # its whole commutator, and the braid, centralizer and Hecke reports are
    # the oracles'
    images = moved_images(case)
    assert braid.by_construction(rho_prime_images(images.config))
    assert not braid.by_construction(images)
    legs = []
    local = TensorConfig.local

    def counted(config, positions):
        legs.append(positions)
        return local(config, positions)

    monkeypatch.setattr(TensorConfig, "local", counted)
    calls = count_commutators(monkeypatch)
    rep = verify_centralizer(images)
    r = images.config.hp.rank
    assert len(calls) == len(braid.generator_names(images.d)) * r * r
    assert rep.to_json() == full_centralizer(images).to_json()
    assert verify_braid_relations(images).to_json() == whole_space_braid(images).to_json()
    for params in ((1, 1, 1, 1), (2, 1, 1, 1)):
        assert verify_hecke_relations(images, *params).to_json() == whole_space_hecke(images, *params).to_json()
    assert not legs
    verify_centralizer(rho_prime_images(images.config))
    assert legs  # the counter is live


def off_bracket_config(entry):
    # gl(2|1), d = 2, with one more entry in the left boundary's E(1,3)
    cfg = module_tensor_config((1,), (1,), 2, HP21)
    left = cfg.factors[0]
    units = {**left.units, (1, 3): left.units[(1, 3)] + LinearOp.from_entries(left.dim, [entry])}
    return TensorConfig([replace(left, units=units), *cfg.factors[1:]], HP21)


def test_wrong_bracket_unit_is_computed_directly(monkeypatch):
    # the left boundary's E(1,3) is off its bracket [E(1,2), E(2,3)], yet
    # every factor is graded: each unit is decided on the local config of
    # each Gamma's legs, where E(1,3) fails for the Gammas on M alone, so
    # each image with a Gamma on M takes its E(1,3) line as the direct
    # residual, every other image none, and the report is the oracle's
    tag_configs(monkeypatch)
    cfg = off_bracket_config((1, 2, 1))
    assert LocalProofs(cfg).graded
    images = rho_prime_images(cfg)
    calls = count_commutators(monkeypatch)
    rep = verify_centralizer(images)
    e13 = cfg.act_unit(1, 3)
    on_m = [name for name, pairs in images.parts.items() if any(POS_M in pair for pair in pairs)]
    taken = [op for op, other in on_whole_space(calls, cfg) if other is e13]
    assert len(taken) == len(on_m) == 1 + 2 * images.d
    assert {id(op) for op in taken} == {id(images.ops[name]) for name in on_m}
    assert "[x1,E(1,3)]" in {c.id for c in rep.checks if not c.ok}
    assert rep.to_json() == full_centralizer(images).to_json()


def test_ungraded_factor_takes_the_whole_space_lines(monkeypatch):
    # the entry (0, 1) joins two even vectors in the odd E(1,3), so the left
    # boundary is not graded and no line rests on the transport lemma, whose
    # premise every local proof reads: every line of the centralizer, braid
    # and Hecke reports is its whole-space residual, as in the oracles.  The
    # one exception is R6 at j = 1, z_1 = x_1 + y_1, which the parts forms
    # give with no local identity
    tag_configs(monkeypatch)
    cfg = off_bracket_config((0, 1, 1))
    assert not LocalProofs(cfg).graded
    images = rho_prime_images(cfg)
    calls = count_commutators(monkeypatch)
    rep = verify_centralizer(images)
    r = cfg.hp.rank
    assert len(on_whole_space(calls, cfg)) == len(images.named_ops()) * r * r
    assert rep.to_json() == full_centralizer(images).to_json()
    residuals = []
    zero_check = braid.zero_check

    def counted(check_id, residual, config):
        residuals.append((check_id, config_of(residual)))
        return zero_check(check_id, residual, config)

    monkeypatch.setattr(braid, "zero_check", counted)
    reports = [(verify_braid_relations(images), whole_space_braid(images))]
    for params in ((1, 1, 1, 1), (2, 1, 1, 1)):
        reports.append((verify_hecke_relations(images, *params), whole_space_hecke(images, *params)))
    for rep, oracle in reports:
        assert rep.to_json() == oracle.to_json()
    by_forms = "R6:z1=x1+y1-m1"
    assert residuals == [(c.id, cfg) for rep, _ in reports for c in rep.checks if c.id != by_forms]


def off_parts_images(name, control, change):
    """The clean images of ``name`` with one image replaced, keeping its
    recorded parts: ``x2`` becomes ``y_2``, or ``x1`` becomes ``x_1`` plus
    the raising unit ``E(1,2)``, which moves weight; the replacement is
    taken from the ``control`` images."""
    images = shortcut_images(name, "clean")
    source = shortcut_images(name, control)
    if change == "x2":
        return replace(images, ops={**images.ops, "x2": source.y[2]})
    return replace(images, ops={**images.ops, "x1": source.x[1] + images.config.act_unit(1, 2)})


@pytest.mark.parametrize("control", ["clean", "koszul"])
def test_image_off_its_parts_is_computed_directly(control, monkeypatch):
    # the changed image keeps its recorded parts, which pass, but it is not
    # their sum; it sits in a plain dict, so the premise fails and each of
    # its lines, with every unit, is the direct residual
    calls = count_commutators(monkeypatch)
    for name, change in (("gl21_d2", "x2"), ("gl21_d2", "x1"), ("paper_d1", "x1")):
        images = off_parts_images(name, control, change)
        i = int(change[1])
        assert images.parts[change] == ((POS_M, v_position(i)), *((v_position(k), v_position(i)) for k in range(1, i)))
        cfg = images.config
        r = cfg.hp.rank
        calls.clear()
        rep = verify_centralizer(images)
        taken = [other for op, other in calls if op is images.x[i]]
        units = [cfg.act_unit(a, b) for a in range(1, r + 1) for b in range(1, r + 1)]
        assert all(any(e is unit for unit in taken) for e in units)
        assert rep.to_json() == full_centralizer(images).to_json()
        failed = {c.id for c in rep.checks if not c.ok}
        assert all(f.startswith(f"[{change},") for f in failed)
        if change == "x2":
            # y_2 centralizes; the corrupted one fails on x_2's lines alone
            assert rep.ok == (control == "clean")
        else:
            # off weight: no control passes a Cartan line of x_1
            assert {"[x1,E(1,1)]", "[x1,E(2,2)]"} <= failed


@functools.cache
def entry_two_swap_images():
    # gl(1|1), d = 4, with one entry of t_1 doubled
    images = rho_prime_images(module_tensor_config((1,), (1,), 4, HP11))
    t1 = images.t[1]
    i, j, v = next(t1.entries())
    return replace(images, ops={**images.ops, "t1": t1 + LinearOp.from_entries(t1.dim, [(i, j, v)])})


def test_swap_with_an_entry_two_falls_back(monkeypatch):
    # t_1 with one entry doubled sits in a plain dict, so the premise fails
    # and every line is its residual: each R1, R3 and sym commutator on a
    # swap takes its whole commutator with that swap, t_1 and the others
    # alike, and the report is the oracle's
    images = entry_two_swap_images()
    calls = count_commutators(monkeypatch)
    rep = verify_braid_relations(images)
    for i in (1, 2, 3):
        lines = [c.id for c in rep.checks if c.id.endswith(f",t{i}]") or c.id.startswith((f"R3:[t{i},", f"sym:[t{i},"))]
        assert len([c for c in calls if c[0] is images.t[i] or c[1] is images.t[i]]) == len(lines)
    assert len([c for c in calls if c[0] is images.t[1] or c[1] is images.t[1]]) == 10
    assert rep.to_json() == whole_space_braid(images).to_json()
