import argparse
import contextlib
import functools
import gc
import io
import itertools
import json
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from superbraid import bratteli, braid, cli, modules
from superbraid.braid import rho_images, rho_prime_images, unshifted, verify_braid_relations, with_unsigned_swaps
from superbraid.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, VERIFY_KINDS, _hooks_up_to, main
from superbraid.modules import ConstructionError, module_tensor_config, realize_module
from superbraid.partitions import HookProfile, is_hook, rectangle
from superbraid.schur import MultiplicityError, partitions_of
from superbraid.superalgebra import TensorConfig

from braid_oracle import two_pass_braid

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bar_worked_example(capsys):
    code, out, _ = run(capsys, "bar", "--p", "4,3,3,1", "--n", "2", "--m", "3")
    assert code == EXIT_OK
    assert out.strip() == "4,3,2,1,1"


def test_bar_rejects_non_hook(capsys):
    code, out, err = run(capsys, "bar", "--p", "4,4,4,2,2", "--n", "3", "--m", "1")
    assert code == EXIT_USAGE
    assert not out
    assert "hook" in err


def test_bar_empty_partition(capsys):
    code, out, _ = run(capsys, "bar", "--p", "", "--n", "2", "--m", "3")
    assert code == EXIT_OK
    assert out.strip() == "0,0,0,0,0"


def test_bar_accepts_bracketed_form(capsys):
    code, out, _ = run(capsys, "bar", "--p", "[4,3,3,1]", "--n", "2", "--m", "3")
    assert code == EXIT_OK
    assert out.strip() == "4,3,2,1,1"


def test_graph_json_figure(capsys):
    args = ["graph", "--a", "4", "--p", "3", "--b", "2", "--q", "2",
            "--n", "3", "--m", "1", "--d", "1", "--fmt", "json"]
    code, out, _ = run(capsys, *args)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert len(payload["levels"][1]) == 3
    level1 = [tuple(v) for v in payload["levels"][2]]
    for shown in [(7, 6, 4), (6, 6, 5), (6, 6, 4, 1), (6, 5, 4, 1, 1), (5, 5, 4, 1, 1, 1)]:
        assert shown in level1
    # determinism: identical bytes on a second invocation
    code2, out2, _ = run(capsys, *args)
    assert (code2, out2) == (code, out)


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "--a", "1", "--p", "1", "--b", "1", "--q", "1",
                       "--n", "1", "--m", "1", "--d", "0", "--fmt", "dot")
    assert code == EXIT_OK
    assert out.startswith("digraph bratteli {")
    assert '"[1]"' in out


def test_graph_d0_levels(capsys):
    code, out, _ = run(capsys, "graph", "--a", "4", "--p", "3", "--b", "2", "--q", "2",
                       "--n", "3", "--m", "1", "--d", "0")
    payload = json.loads(out)
    assert len(payload["levels"]) == 2


def test_lr_listing(capsys):
    code, out, _ = run(capsys, "lr", "--lam", "2,1", "--mu", "2,1")
    assert code == EXIT_OK
    lines = dict(line.rsplit(":", 1) for line in out.strip().splitlines())
    assert lines["[3,2,1]"] == "2"
    assert lines["[2,2,1,1]"] == "1"



def test_lr_scan_is_bounded_by_the_factors(capsys):
    # s_(30) s_(30) has the 31 two-row terms (60 - k, k); an unbounded scan
    # of the 966467 partitions of 60 does not finish in reasonable time
    code, out, _ = run(capsys, "lr", "--lam", "30", "--mu", "30")
    assert code == EXIT_OK
    assert out.splitlines() == [f"[{60 - k},{k}]:1" if k else "[60]:1" for k in range(30, -1, -1)]


def test_p0_listing(capsys):
    code, out, _ = run(capsys, "p0", "--a", "4", "--p", "3", "--b", "2", "--q", "2",
                       "--n", "3", "--m", "1")
    assert code == EXIT_OK
    assert out.splitlines() == ["[5,5,4,1,1]", "[6,5,4,1]", "[6,6,4]"]


def test_p0_strict_params_rejects_figure_case(capsys):
    code, _, err = run(capsys, "p0", "--a", "4", "--p", "3", "--b", "2", "--q", "2",
                       "--n", "3", "--m", "1", "--strict-params")
    assert code == EXIT_USAGE
    assert "strict" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--a", "1", "--p", "1", "--b", "1", "--q", "1", "--d", "0", "--n", "1"],
        ["p0", "--a", "1", "--p", "1", "--b", "1", "--q", "1", "--n", "1"],
    ],
)
def test_hook_profile_required(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "--m" in capsys.readouterr().err


def test_verify_braid_passes(capsys):
    code, out, _ = run(capsys, "verify", "braid", "--n", "1", "--m", "1", "--d", "2")
    assert code == EXIT_OK
    assert "OK" in out


def test_verify_braid_json_format(capsys):
    code, out, _ = run(capsys, "verify", "braid", "--n", "1", "--m", "1", "--d", "1",
                       "--fmt", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == 1 and payload["ok"] is True
    assert payload["params"]["n"] == 1
    assert all(c["status"] == "pass" for c in payload["checks"])


BRAID_CONTROLS = {
    "clean": rho_prime_images,
    "parity": functools.partial(rho_prime_images, corrupt_gamma="parity"),
    "koszul": functools.partial(rho_prime_images, corrupt_gamma="koszul"),
    "unsigned-swaps": lambda config: with_unsigned_swaps(rho_prime_images(config)),
}


@pytest.mark.parametrize("control", sorted(BRAID_CONTROLS))
@pytest.mark.parametrize("n,m,d", [(1, 1, 3), (2, 1, 2), (2, 1, 4), (1, 2, 3), (2, 2, 2)])
def test_verify_braid_matches_two_pass_oracle(capsys, monkeypatch, control, n, m, d):
    # one relation pass on the shifted images gives the report of a plain
    # pass followed by a shifted one, on passing and failing images alike
    built, passes = [], []

    def images(config):
        built.append(BRAID_CONTROLS[control](config))
        return built[-1]

    def counted(acting):
        passes.append(acting)
        return verify_braid_relations(acting)

    monkeypatch.setattr(cli, "rho_prime_images", images)
    monkeypatch.setattr(cli, "verify_braid_relations", counted)
    code, out, _ = run(capsys, "verify", "braid", "--n", str(n), "--m", str(m), "--d", str(d),
                       "--fmt", "json")
    assert len(passes) == 1 and passes[0] is built[0]
    assert not hasattr(cli, "unshifted")
    payload = json.loads(out)
    expected = two_pass_braid(built[0])
    assert payload["checks"] == [c.as_dict() for c in expected]
    assert payload["ok"] is (control == "clean")
    assert code == (EXIT_OK if control == "clean" else EXIT_CHECK_FAILED)
    if (n, m, d) == (2, 1, 4):
        assert len(expected) == 140


MULTIPLICITY_ARGS = ["--a", "2", "--p", "2", "--b", "2", "--q", "1", "--n", "2", "--m", "1", "--d", "3"]


@pytest.mark.parametrize("kind,built", [("hecke", 0), ("spectra", 10), ("irreducible", 11)])
def test_image_suites_build_no_more_split_casimirs(capsys, monkeypatch, kind, built):
    # on the multiplicity benchmark workload each suite builds the images it
    # reads, each from its own whole-space split Casimirs: one for z_0, then
    # 2 + 3 + 4 for z_i at i = 1, 2, 3, and irreducible's x_1 one more; its
    # swaps t_1 and t_2 take none.  Hecke proves every line on local configs
    # and reads no image.  Counted from an empty workspace
    z = ["z0", "z1", "z2", "z3"]
    read = {"hecke": [], "spectra": z, "irreducible": [*z, "x1", "t1", "t2"]}[kind]
    calls, names = [], []
    split = TensorConfig.split_casimir_op
    getitem = braid.SummedImages.__getitem__

    def counted(config, *args, **kwargs):
        calls.append(config)
        return split(config, *args, **kwargs)

    def counted_read(images, name):
        names.append(name)
        return getitem(images, name)

    assert not cli._WORKSPACE
    monkeypatch.setattr(TensorConfig, "split_casimir_op", counted)
    monkeypatch.setattr(braid.SummedImages, "__getitem__", counted_read)
    code, _, _ = run(capsys, "verify", kind, *MULTIPLICITY_ARGS)
    (ws,) = cli._WORKSPACE.values()
    assert code == EXIT_OK
    assert sum(c is ws.images.config for c in calls) == built
    assert list(dict.fromkeys(names)) == read


def outcome(*argv) -> tuple:
    """Exit code, stdout and stderr of one ``main`` call, in whatever
    workspace the process holds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def fresh(*argv) -> tuple:
    """:func:`outcome` from an empty workspace, as a new process gives it."""
    cli._WORKSPACE.clear()
    return outcome(*argv)


IMAGE_SUITES = ("hecke", "spectra", "irreducible")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("order", list(itertools.permutations(IMAGE_SUITES)))
def test_image_suites_share_one_workspace(monkeypatch, order, fmt):
    # in every order the three suites in one process give each report as a
    # fresh process does, and together build 11 whole-space split Casimirs,
    # those of the z_i and x_1, and 11 spaces of highest weight vectors, one
    # per top vertex; suites that shared nothing built 0 + 10 + 11 = 21 and
    # 2 x 11 = 22
    argv = {kind: ("verify", kind, *MULTIPLICITY_ARGS, "--fmt", fmt) for kind in order}
    expected = [fresh(*argv[kind]) for kind in order]
    casimirs, hwvs = [], []
    split = TensorConfig.split_casimir_op
    hwv = bratteli.highest_weight_vectors

    def counted(config, *args, **kwargs):
        casimirs.append(config)
        return split(config, *args, **kwargs)

    def hwv_counted(*args):
        hwvs.append(args)
        return hwv(*args)

    monkeypatch.setattr(TensorConfig, "split_casimir_op", counted)
    monkeypatch.setattr(bratteli, "highest_weight_vectors", hwv_counted)
    cli._WORKSPACE.clear()
    assert [outcome(*argv[kind]) for kind in order] == expected
    assert [code for code, _, _ in expected] == [EXIT_OK] * 3
    (ws,) = cli._WORKSPACE.values()
    assert sum(c is ws.images.config for c in casimirs) == 11
    assert len(hwvs) == 11 == len(ws.joint)


@pytest.mark.parametrize("order", [("spectra", "irreducible"), ("irreducible", "spectra")])
def test_failed_spectra_notes_reach_the_next_suite(monkeypatch, order):
    # on the unshifted images no vertex has its joint eigenbasis; a suite
    # that reads another's eigenspaces also reads why they failed
    monkeypatch.setattr(cli, "rho_prime_images", rho_images)
    argv = {kind: ("verify", kind, *MULTIPLICITY_ARGS, "--fmt", "json") for kind in order}
    expected = [fresh(*argv[kind]) for kind in order]
    cli._WORKSPACE.clear()
    assert [outcome(*argv[kind]) for kind in order] == expected
    assert [code for code, _, _ in expected] == [EXIT_CHECK_FAILED] * 2
    for _, out, _ in expected:
        assert all(c["witness"]["notes"] != "[]" for c in json.loads(out)["checks"])


def test_braid_and_centralizer_share_one_workspace(monkeypatch):
    argv = ("--n", "2", "--m", "1", "--d", "3")
    expected = [fresh("verify", kind, *argv) for kind in ("braid", "centralizer")]
    built = []

    def images(config):
        built.append(rho_prime_images(config))
        return built[-1]

    monkeypatch.setattr(cli, "rho_prime_images", images)
    cli._WORKSPACE.clear()
    assert outcome("verify", "braid", *argv) == expected[0]
    (ws,) = cli._WORKSPACE.values()
    assert outcome("verify", "centralizer", *argv) == expected[1]
    assert list(cli._WORKSPACE.values()) == [ws] and len(built) == 1 and ws.images is built[0]
    assert expected[0][0] == expected[1][0] == EXIT_OK


def test_check_params_control_fails_after_a_passing_hecke(capsys):
    # the quotient parameters are not in the workspace key: the must-fail
    # control reads the images of the passing run and still fails
    base = ["verify", "hecke", "--a", "1", "--p", "1", "--b", "1", "--q", "1",
            "--n", "2", "--m", "1", "--d", "2"]
    code, _, _ = run(capsys, *base)
    assert code == EXIT_OK and len(cli._WORKSPACE) == 1
    code, out, _ = run(capsys, *base, "--check-params", "2,1,1,1", "--fmt", "json")
    assert code == EXIT_CHECK_FAILED and len(cli._WORKSPACE) == 1
    assert out == (GOLDEN / "hecke_control_a1p1b1q1_n2m1_d2_params2111.json").read_text()


@pytest.mark.parametrize("kind", ["hecke", "spectra"])
def test_smaller_cap_after_a_cached_run_is_refused(kind):
    # the cap is in the workspace key, so the 540-dim space is refused under
    # a cap of 539 after a run that built it, with a fresh run's message
    argv = ("verify", kind, *MULTIPLICITY_ARGS)
    expected = fresh(*argv, "--cap", "539")
    assert outcome(*argv)[0] == EXIT_OK
    assert outcome(*argv, "--cap", "539") == expected
    assert expected == (EXIT_USAGE, "", "dimension cap exceeded: ambient dimension 540 exceeds cap 539\n")


@pytest.mark.parametrize("flag,value", [("--d", "2"), ("--q", "2"), ("--cap", "30000")])
def test_new_parameters_replace_the_workspace(flag, value):
    # one slot: a run at other parameters drops the old config and images,
    # and its report is a fresh run's
    changed = [*MULTIPLICITY_ARGS, "--cap", str(modules.DEFAULT_DIM_CAP)]
    changed[changed.index(flag) + 1] = value
    expected = fresh("verify", "spectra", *changed)
    cli._WORKSPACE.clear()
    assert outcome("verify", "spectra", *MULTIPLICITY_ARGS)[0] == EXIT_OK
    old = weakref.ref(next(iter(cli._WORKSPACE.values())).images.config)
    assert outcome("verify", "spectra", *changed) == expected
    gc.collect()
    assert old() is None and len(cli._WORKSPACE) == 1
    assert expected[0] == EXIT_OK


def test_verify_braid_refuses_swaps_that_are_not_involutions(capsys, monkeypatch):
    # t_1 t_2 is a signed permutation but not an involution, so the plain
    # lines that pass through t_1^2 are no longer the shifted ones
    def tangled(config):
        images = rho_prime_images(config)
        return replace(images, ops={**images.ops, "t1": images.t[1] @ images.t[2]})

    broken = tangled(module_tensor_config((1,), (1,), 3, HookProfile(2, 1)))
    shifted = verify_braid_relations(broken).checks
    plain = verify_braid_relations(unshifted(broken)).checks
    assert [a.id for a, b in zip(plain, shifted) if a != b] == [
        "R4:x,i=1", "R4:y,i=1", "R6:z2=x2+y2-m2", "m(1,2)=split-casimir",
    ]
    monkeypatch.setattr(cli, "rho_prime_images", tangled)
    code, out, err = run(capsys, "verify", "braid", "--n", "2", "--m", "1", "--d", "3")
    assert code == EXIT_CHECK_FAILED
    assert not out
    assert err.startswith("internal error: ") and "sym:t1^2=1" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_verify_hecke_pass_and_fail(capsys):
    base = ["verify", "hecke", "--n", "1", "--m", "1", "--d", "2"]
    code, _, _ = run(capsys, *base, "--a", "1", "--p", "1", "--b", "1", "--q", "1")
    assert code == EXIT_OK
    # quadratic relations checked at parameters inconsistent with the
    # modules must fail with a nonzero exit
    code, out, _ = run(capsys, *base, "--a", "1", "--p", "1", "--b", "1", "--q", "1",
                       "--check-params", "2,1,1,1")
    assert code == EXIT_CHECK_FAILED
    assert "FAIL" in out


def test_failing_hecke_report_matches_golden(capsys):
    # pins the witness of the must-fail control byte for byte: value, row,
    # column and their decoding into one basis index per factor
    code, out, _ = run(capsys, "verify", "hecke", "--a", "1", "--p", "1", "--b", "1",
                       "--q", "1", "--n", "2", "--m", "1", "--d", "2",
                       "--check-params", "2,1,1,1", "--fmt", "json")
    assert code == EXIT_CHECK_FAILED
    assert out == (GOLDEN / "hecke_control_a1p1b1q1_n2m1_d2_params2111.json").read_text()


def test_irreducible_report_matches_golden(capsys):
    # every vertex passes; the verdicts are pinned byte for byte
    code, out, _ = run(capsys, "verify", "irreducible", "--a", "2", "--p", "2", "--b", "2",
                       "--q", "1", "--n", "2", "--m", "1", "--d", "3", "--fmt", "json")
    assert code == EXIT_OK
    assert out == (GOLDEN / "irreducible_a2p2b2q1_n2m1_d3.json").read_text()


def test_spectra_report_matches_golden(capsys):
    # the paper example at d = 2: weight spaces of M (x) N (x) V^2 and split
    # Casimirs with fractional boundary entries, pinned byte for byte
    code, out, _ = run(capsys, "verify", "spectra", "--a", "4", "--p", "3", "--b", "2",
                       "--q", "2", "--n", "3", "--m", "1", "--d", "2", "--fmt", "json")
    assert code == EXIT_OK
    assert out == (GOLDEN / "spectra_a4p3b2q2_n3m1_d2.json").read_text()


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1), (1, 2)])
def test_hooks_match_partition_filter(n, m):
    # the direct generation yields what filtering every partition did, in
    # the same order
    hp = HookProfile(n, m)
    args = argparse.Namespace(max_size=10)
    expected = [lam for total in range(11) for lam in partitions_of(total) if is_hook(lam, hp)]
    assert list(_hooks_up_to(args, hp)) == expected


def test_malformed_check_params_reported_before_building(capsys):
    # the flag is parsed first, so a cap the build would exceed does not mask it
    for params in ("1,2", "1,x"):
        code, out, err = run(capsys, "verify", "hecke", "--a", "1", "--p", "1", "--b", "1",
                             "--q", "1", "--n", "2", "--m", "1", "--d", "1",
                             "--check-params", params, "--cap", "1")
        assert code == EXIT_USAGE, params
        assert not out
        assert "--check-params" in err and "cap" not in err, params


def test_verify_lemmas(capsys):
    code, out, _ = run(capsys, "verify", "lemmas", "--a", "4", "--p", "3", "--b", "2",
                       "--q", "2", "--n", "3", "--m", "1")
    assert code == EXIT_OK
    assert "box-sum" in out and "casimir-transfer" in out


def test_verify_spectra_and_irreducible(capsys):
    for kind in ("spectra", "irreducible"):
        code, _, _ = run(capsys, "verify", kind, "--a", "1", "--p", "1", "--b", "1",
                         "--q", "1", "--n", "1", "--m", "1", "--d", "1")
        assert code == EXIT_OK, kind


_SMALL = {
    "braid": ["--n", "1", "--m", "1", "--d", "2"],
    "centralizer": ["--n", "1", "--m", "1", "--d", "2"],
    "hecke": ["--a", "1", "--p", "1", "--b", "1", "--q", "1", "--n", "2", "--m", "1", "--d", "2"],
    "casimir": ["--n", "1", "--m", "1", "--max-size", "2"],
    "pieri": ["--n", "1", "--m", "1", "--max-size", "2"],
    "spectra": ["--a", "1", "--p", "1", "--b", "1", "--q", "1", "--n", "2", "--m", "1", "--d", "2"],
    "irreducible": ["--a", "1", "--p", "1", "--b", "1", "--q", "1", "--n", "2", "--m", "1", "--d", "2"],
    "lemmas": ["--a", "4", "--p", "3", "--b", "2", "--q", "2", "--n", "3", "--m", "1"],
}


@pytest.mark.parametrize("kind", sorted(VERIFY_KINDS))
def test_verify_witness_on_failure_only(capsys, kind):
    code, out, _ = run(capsys, "verify", kind, *_SMALL[kind], "--fmt", "json")
    assert code == EXIT_OK
    checks = json.loads(out)["checks"]
    assert checks and all(c["status"] == "pass" and "witness" not in c for c in checks)


# the flags each suite reads, written out here rather than read from the table
_READS = {
    "braid": {"n", "m", "d"},
    "centralizer": {"n", "m", "d"},
    "hecke": {"a", "p", "b", "q", "n", "m", "d"},
    "spectra": {"a", "p", "b", "q", "n", "m", "d"},
    "irreducible": {"a", "p", "b", "q", "n", "m", "d"},
    "casimir": {"n", "m", "max_size"},
    "pieri": {"n", "m", "max_size"},
    "lemmas": {"a", "p", "b", "q", "n", "m"},
}


@pytest.mark.parametrize("kind", sorted(VERIFY_KINDS))
def test_report_params_are_the_flags_read(capsys, kind):
    # a flag the suite ignores stays out of its report, and so does
    # --check-params (the hecke title names the parameters it checks)
    extra = [arg for flag in ("a", "p", "b", "q", "d", "max_size") if flag not in _READS[kind]
             for arg in ("--" + flag.replace("_", "-"), "1")]
    code, out, _ = run(capsys, "verify", kind, *_SMALL[kind], *extra,
                       "--check-params", "1,1,1,1", "--fmt", "json")
    assert code == EXIT_OK
    assert set(json.loads(out)["params"]) == _READS[kind]


def test_verify_missing_params(capsys):
    code, _, err = run(capsys, "verify", "spectra", "--n", "1", "--m", "1")
    assert code == EXIT_USAGE
    assert "--a" in err


def test_cap_exceeded_exit_code(capsys):
    code, _, err = run(capsys, "verify", "braid", "--n", "1", "--m", "1", "--d", "2",
                       "--cap", "4")
    assert code == EXIT_USAGE
    assert "cap" in err.lower()


def test_verify_casimir_small(capsys):
    code, out, _ = run(capsys, "verify", "casimir", "--n", "1", "--m", "1",
                       "--max-size", "3")
    assert code == EXIT_OK
    assert "pairing-eps" in out


def test_verify_pieri_small(capsys):
    code, _, _ = run(capsys, "verify", "pieri", "--n", "1", "--m", "1", "--max-size", "2")
    assert code == EXIT_OK


def test_verify_centralizer_small(capsys):
    code, _, _ = run(capsys, "verify", "centralizer", "--n", "1", "--m", "1", "--d", "2")
    assert code == EXIT_OK


# spaces whose dimension has thousands of digits, refused in one short line:
# the dimension is multiplied out one V at a time and given up at the cap,
# before any graph is built
FAR_OVER_CAP = [
    ["verify", kind, "--a", "1", "--p", "1", "--b", "1", "--q", "1", "--n", "1", "--m", "1", "--d", "3000"]
    for kind in ("spectra", "irreducible")
] + [["verify", "braid", "--n", "1", "--m", "1", "--d", "20000"]]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify", "braid", "--n", "1", "--m", "1", "--d", "2", "--cap", "0"], EXIT_USAGE),
        (["verify", "braid", "--n", "1", "--m", "1", "--d", "2", "--cap", "-3"], EXIT_USAGE),
        (["verify", "braid", "--n", "1", "--m", "1", "--d", "-1"], EXIT_USAGE),
        (["verify", "casimir", "--n", "1", "--m", "1", "--max-size", "-3"], EXIT_USAGE),
        (["verify", "braid", "--n", "1", "--m", "1", "--d", "0"], EXIT_USAGE),
        (["verify", "hecke", "--a", "1", "--p", "1", "--b", "1", "--q", "1",
          "--n", "2", "--m", "1", "--d", "0"], EXIT_USAGE),
        (["verify", "hecke", "--a", "1", "--p", "1", "--b", "1", "--q", "1",
          "--n", "2", "--m", "1", "--d", "0", "--fmt", "json"], EXIT_USAGE),
        (["verify", "casimir", "--n", "1", "--m", "1", "--max-size", "0"], EXIT_OK),
        (["verify", "braid", "--n", "1", "--m", "1", "--d", "1", "--cap", "8"], EXIT_OK),
        (["verify", "hecke", "--a", "0", "--p", "1", "--b", "1", "--q", "1",
          "--n", "1", "--m", "1", "--d", "1"], EXIT_USAGE),
        (["verify", "hecke", "--a", "4", "--p", "3", "--b", "2", "--q", "2",
          "--n", "3", "--m", "1", "--d", "1", "--strict-params"], EXIT_USAGE),
        (["verify", "hecke", "--a", "100000", "--p", "1", "--b", "1", "--q", "1",
          "--n", "1", "--m", "1", "--d", "1"], EXIT_USAGE),
    ] + [(argv, EXIT_USAGE) for argv in FAR_OVER_CAP] + [
        (["verify", "casimir", "--n", "1", "--m", "1", "--max-size", "60"], EXIT_OK),
        (["verify", "casimir", "--n", "1", "--m", "1", "--max-size", "100000"], EXIT_USAGE),
        (["verify", "pieri", "--n", "1", "--m", "1", "--max-size", "100000"], EXIT_USAGE),
    ],
)
def test_verify_exit_code_contract(capsys, argv, expected):
    # out-of-range parameters, spaces over the cap and reports that check
    # nothing exit 2 without printing a report; the smallest in-range values
    # still run
    code, out, err = run(capsys, *argv)
    assert code == expected
    if expected == EXIT_USAGE:
        assert not out and err
        assert err.count("\n") == 1 and len(err) < 120
        if argv in FAR_OVER_CAP:
            assert err.startswith("dimension cap exceeded: ")
    else:
        assert "OK" in out


def test_verify_paper_example_at_operator_level(capsys):
    # (4,3,2,2) at gl(3|1) needs the boundary rectangle (4^3), which the
    # default cap refused while modules were built inside V^12
    code, out, err = run(capsys, "verify", "spectra", "--a", "4", "--p", "3", "--b", "2",
                         "--q", "2", "--n", "3", "--m", "1", "--d", "1")
    assert code == EXIT_OK, err
    assert out.splitlines()[-1] == "OK  verify spectra  (8 checks)"


def test_paper_example_at_d8_builds_no_per_index_table(capsys):
    # a config is its factors, dimension and strides: at the paper example,
    # d = 8 (8,912,896 dims), building it once the two boundary modules are
    # realized allocates under 1 MiB, where a table of one parity per basis
    # index took 143 MiB; and hecke, which builds no whole-space operator,
    # passes at that size from the CLI
    hp = HookProfile(3, 1)
    m, n = rectangle(4, 3), rectangle(2, 2)
    for lam in (m, n):
        realize_module(lam, hp)
    tracemalloc.start()
    try:
        config = module_tensor_config(m, n, 8, hp, 9_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert config.dim == 8 * 17 * 4**8 == 8_912_896
    assert peak < 2**20, peak
    code, out, err = run(capsys, "verify", "hecke", "--a", "4", "--p", "3", "--b", "2", "--q", "2",
                         "--n", "3", "--m", "1", "--d", "8", "--cap", "9000000")
    assert code == EXIT_OK, err
    assert out.splitlines()[-1] == "OK  verify hecke  (23 checks)"


@pytest.mark.parametrize("error", [ConstructionError, MultiplicityError])
def test_internal_error_exit_path(capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("injected fault")

    monkeypatch.setattr(modules, "realize_module", broken)
    code, out, err = run(capsys, "verify", "braid", "--n", "1", "--m", "1", "--d", "1")
    assert code == EXIT_CHECK_FAILED
    assert not out
    assert err == "internal error: injected fault\n"
    assert "Traceback" not in err


_small = st.integers(0, 3)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(sorted(VERIFY_KINDS)),
    n=st.integers(1, 2),
    m=st.integers(1, 2),
    d=st.integers(-1, 2),
    rect=st.tuples(_small, _small, _small, _small),
    cap=st.sampled_from([None, 0, 50]),
)
def test_verify_fuzz_exit_contract(kind, n, m, d, rect, cap):
    argv = ["verify", kind, "--n", str(n), "--m", str(m), "--d", str(d)]
    argv += [arg for name, v in zip("apbq", rect) for arg in (f"--{name}", str(v))]
    if cap is not None:
        argv += ["--cap", str(cap)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE), argv
    assert "Traceback" not in err.getvalue(), argv
