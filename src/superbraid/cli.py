"""Command-line front end: every verification and export as a subcommand.

Exit codes: 0 when every check passes, 1 when a mathematical check fails,
2 for usage, parameter or dimension-cap errors.  An internal-consistency
failure (a module construction or a multiplicity count that contradicts the
theory the program relies on) also exits 1, with one ``internal error: ...``
line on stderr and no report.  All numeric output is exact; JSON payloads
carry a top-level schema field.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Callable, NamedTuple, Optional

from . import bratteli
from .braid import (
    Check,
    GeneratorImages,
    Report,
    rho_prime_images,
    verify_braid_relations,
    verify_centralizer,
    verify_hecke_relations,
)
from .linalg import LinalgError
from .modules import (
    CapExceededError,
    ConstructionError,
    DEFAULT_DIM_CAP,
    check_cap,
    kappa_scalar,
    module_tensor_config,
    pieri_summands,
    realize_module,
)
from .partitions import (
    CombinatoricsError,
    HookProfile,
    box_sum_identity,
    check_rectangle_params,
    format_partition,
    hook_to_weight,
    parse_partition,
    rectangle,
)
from .schur import MultiplicityError, decompose_two_rectangles, lr_coeff, partitions_of
from .superalgebra import (
    bilinear_form,
    casimir_pairing,
    pairing_eps,
    psi_pairing_report,
    two_rho,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _print_report(report: Report, fmt: str, command: str, params: dict) -> int:
    payload = report.as_dict()
    payload["command"] = command
    payload["params"] = params
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str))
    else:
        for check in report.checks:
            mark = "PASS" if check.ok else "FAIL"
            extra = ""
            if check.witness:
                extra = "  witness=" + json.dumps(check.witness, sort_keys=True, default=str)
            print(f"{mark}  {check.id}{extra}")
        print(f"{'OK' if report.ok else 'FAILED'}  {command}  ({len(report.checks)} checks)")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _check(check_id: str, ok: bool, detail: dict) -> Check:
    """One report line; on failure only, ``detail`` is its witness.

    Every value of the witness is a string, and an ``"ok"`` entry of a
    record passed as ``detail`` is left out.
    """
    witness = None if ok else {k: str(v) for k, v in detail.items() if k != "ok"}
    return Check(check_id, bool(ok), witness)


def _graph(args, d: int) -> bratteli.BratteliGraph:
    hp = HookProfile(args.n, args.m)
    return bratteli.build_graph(args.a, args.p, args.b, args.q, hp, d, strict=args.strict_params)


class Workspace(NamedTuple):
    """What the suites of one run share at one parameter set: the images,
    on their config, and for each top vertex the joint ``z``-eigenspaces
    that :func:`bratteli.spectral_match` and
    :func:`bratteli.irreducibility_check` read (``joint``, filled by
    whichever suite counts them first)."""

    images: GeneratorImages
    joint: dict


# The run workspace: one slot, key -> Workspace.  A new key replaces the
# slot, so the objects of one parameter set are held at a time.
_WORKSPACE: dict = {}


def _workspace(args, cap: int, alpha=(1,), beta=(1,)) -> Workspace:
    """The workspace of ``L(alpha) (x) L(beta) (x) V^d`` at gl(n|m), built
    on a miss; both boundaries default to ``V``.

    The key is everything the objects depend on, the cap included, so a run
    under a smaller cap is refused as a fresh build would be.  The old slot
    is dropped before the new one is built.
    """
    key = (alpha, beta, args.n, args.m, args.d, cap)
    ws = _WORKSPACE.get(key)
    if ws is None:
        _WORKSPACE.clear()
        config = module_tensor_config(alpha, beta, args.d, HookProfile(args.n, args.m), cap)
        ws = _WORKSPACE[key] = Workspace(rho_prime_images(config), {})
    return ws


def _rectangles(args, cap: int) -> Workspace:
    """The workspace of ``L(a^p) (x) L(b^q) (x) V^d``, read after the
    rectangle check and before any graph."""
    hp = HookProfile(args.n, args.m)
    check_rectangle_params(args.a, args.p, args.b, args.q, hp, strict=args.strict_params)
    return _workspace(args, cap, rectangle(args.a, args.p), rectangle(args.b, args.q))


def _hooks_up_to(args, hp: HookProfile):
    """Hook diagrams of gl(n|m) by size, up to ``--max-size``, each size in
    :func:`partitions_of` order (lex decreasing).

    A hook is a partition with at most ``n`` rows on top and, only when all
    ``n`` are used, rows of at most ``min(m, lambda_n)`` boxes below them.
    """
    for total in range(args.max_size + 1):
        hooks = []
        for top_size in range(total + 1):
            for top in partitions_of(top_size, max_len=hp.n):
                if top_size == total:
                    hooks.append(top)
                elif len(top) == hp.n:
                    below = partitions_of(total - top_size, max_part=min(hp.m, top[-1]))
                    hooks.extend(top + tail for tail in below)
        yield from sorted(hooks, reverse=True)


def cmd_bar(args) -> int:
    hp = HookProfile(args.n, args.m)
    part = parse_partition(args.p)
    weight = hook_to_weight(part, hp)
    print(",".join(str(c) for c in weight))
    return EXIT_OK


def cmd_graph(args) -> int:
    g = _graph(args, args.d)
    if args.fmt == "dot":
        sys.stdout.write(bratteli.to_dot(g))
    else:
        print(bratteli.to_json(g))
    return EXIT_OK


def cmd_lr(args) -> int:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    total = sum(lam) + sum(mu)
    # c^nu_{lam,mu} = 0 unless nu_1 <= lam_1 + mu_1 and l(nu) <= l(lam) + l(mu)
    max_part = max(lam, default=0) + max(mu, default=0)
    for nu in sorted(partitions_of(total, max_part=max_part, max_len=len(lam) + len(mu))):
        c = lr_coeff(lam, mu, nu)
        if c:
            print(f"{format_partition(nu)}:{c}")
    return EXIT_OK


def cmd_p0(args) -> int:
    hp = HookProfile(args.n, args.m)
    for lam in decompose_two_rectangles(args.a, args.p, args.b, args.q, hp, strict=args.strict_params):
        print(format_partition(lam))
    return EXIT_OK


def _verify_braid(args, cap: int) -> Report:
    """The relation suite once on the shifted images, every line reported
    twice: first as ``plain:``, then as ``shifted:``.

    The plain images differ from the shifted ones by scalars, kappa_V / 2 on
    each x_i and y_i and kappa_V on each z_i.  R1-R3, R5 and the ``sym``
    lines are equal outright; R4, R6 and ``m(i,j)`` differ by multiples of
    t_i^2 - 1, through m_{i,i+1} = x_{i+1} - t_i x_i t_i.  So once every
    ``sym:t{i}^2=1`` line passes, each plain residual is the shifted one as
    an operator, and the plain lines are the shifted ones, witnesses
    included.
    """
    rep = Report(f"braid n={args.n} m={args.m} d={args.d}")
    checks = verify_braid_relations(_workspace(args, cap).images).checks
    for check in checks:
        if check.id.endswith("^2=1") and not check.ok:
            raise ConstructionError(f"{check.id} fails: the plain lines are not the shifted ones")
    for prefix in ("plain", "shifted"):
        for check in checks:
            rep.add(replace(check, id=f"{prefix}:{check.id}"))
    return rep


def _verify_centralizer(args, cap: int) -> Report:
    return verify_centralizer(_workspace(args, cap).images)


def _verify_hecke(args, cap: int) -> Report:
    rel = (args.a, args.p, args.b, args.q)
    if args.check_params:
        try:
            rel = tuple(int(x) for x in args.check_params.split(","))
        except ValueError:
            rel = ()
        if len(rel) != 4:
            raise CombinatoricsError("--check-params needs four integers a,p,b,q")
    return verify_hecke_relations(_rectangles(args, cap).images, *rel)


def _verify_casimir(args, cap: int) -> Report:
    hp = HookProfile(args.n, args.m)
    rep = Report(f"casimir n={args.n} m={args.m} size<={args.max_size}")
    for i in range(1, hp.rank + 1):
        eps = tuple(1 if k == i - 1 else 0 for k in range(hp.rank))
        direct = bilinear_form(eps, tuple(e + r for e, r in zip(eps, two_rho(hp))), hp)
        detail = {"observed": pairing_eps(i, hp), "expected": direct}
        rep.add(_check(f"pairing-eps({i})", detail["observed"] == direct, detail))
    for s in range(1, hp.m + 1):
        psi = psi_pairing_report(s, hp)
        rep.add(_check(f"psi-pairing-form(s={s})", psi["matching"] == "general", psi))
    # realize_module refuses the row hook of the top size past the cap, so
    # refuse at once, before the smaller hooks are realized
    check_cap(args.max_size * hp.rank, cap)
    for lam in _hooks_up_to(args, hp):
        mod = realize_module(lam, hp, cap)
        scalar = kappa_scalar(mod)
        expected = casimir_pairing(mod.highest_weight, hp)
        detail = {"observed": scalar, "expected": expected}
        rep.add(_check(f"casimir{format_partition(lam)}", scalar == expected, detail))
    return rep


def _verify_pieri(args, cap: int) -> Report:
    hp = HookProfile(args.n, args.m)
    rep = Report(f"pieri n={args.n} m={args.m} size<={args.max_size}")
    check_cap(args.max_size * hp.rank, cap)  # as in _verify_casimir
    for mu in _hooks_up_to(args, hp):
        for rec in pieri_summands(mu, hp, cap):
            check_id = f"pieri:{format_partition(mu)}->{format_partition(rec['partition'])}"
            detail = {"observed": rec["observed"], "expected": rec["predicted"]}
            rep.add(_check(check_id, rec["ok"], detail))
    return rep


def _verify_spectra(args, cap: int) -> Report:
    ws = _rectangles(args, cap)
    g = _graph(args, args.d)
    rep = Report(f"spectra a={args.a} p={args.p} b={args.b} q={args.q} d={args.d}")
    for rec in bratteli.spectral_match(g, ws.images, ws.joint):
        rep.add(_check(f"spectrum:{rec['partition']}", rec["ok"], rec))
    return rep


def _verify_irreducible(args, cap: int) -> Report:
    ws = _rectangles(args, cap)
    g = _graph(args, args.d)
    rep = Report(f"irreducible a={args.a} p={args.p} b={args.b} q={args.q} d={args.d}")
    for lam in g.level(g.d):
        rec = bratteli.irreducibility_check(g, ws.images, lam, ws.joint)
        rep.add(_check(f"commutant:{rec['partition']}", rec["ok"], rec))
    return rep


def _verify_lemmas(args, cap: int) -> Report:
    hp = HookProfile(args.n, args.m)
    g = _graph(args, 0)
    rep = Report(f"lemmas a={args.a} p={args.p} b={args.b} q={args.q}")
    for lam in g.level(0):
        lhs, rhs = box_sum_identity(lam, args.a, args.p, args.b, args.q)
        rep.add(_check(f"box-sum{format_partition(lam)}", lhs == rhs, {"lhs": lhs, "rhs": rhs}))
        case = bratteli.z0_case_report(lam, args.a, args.p, args.b, args.q)
        rep.add(_check(f"z0-cases{format_partition(lam)}", case["agree"], case))
    for rec in bratteli.p0_neighbor_check(g):
        rep.add(_check(f"neighbor-contents{rec['pair']}", rec["ok"], rec))
        lam, mu = (tuple(x) for x in rec["pair"])
        t = bratteli.transfer_check(lam, mu, args.a, args.p, args.b, args.q, hp)
        rep.add(_check(f"casimir-transfer{rec['pair']}", t["ok"], t))
    return rep


class Suite(NamedTuple):
    """One ``verify`` suite: its function, the flags it requires, and its
    default ``--max-size`` (``None`` when it reads no size); a report's
    ``params`` are exactly the flags it reads."""

    run: Callable
    flags: tuple
    max_size: Optional[int] = None


VERIFY_KINDS = {
    "braid": Suite(_verify_braid, ("n", "m", "d")),
    "centralizer": Suite(_verify_centralizer, ("n", "m", "d")),
    "hecke": Suite(_verify_hecke, ("a", "p", "b", "q", "n", "m", "d")),
    "casimir": Suite(_verify_casimir, ("n", "m"), 4),
    "pieri": Suite(_verify_pieri, ("n", "m"), 3),
    "spectra": Suite(_verify_spectra, ("a", "p", "b", "q", "n", "m", "d")),
    "irreducible": Suite(_verify_irreducible, ("a", "p", "b", "q", "n", "m", "d")),
    "lemmas": Suite(_verify_lemmas, ("a", "p", "b", "q", "n", "m")),
}


def cmd_verify(args) -> int:
    suite = VERIFY_KINDS[args.kind]
    report = suite.run(args, args.cap)
    if not report.checks:
        # a report that checked nothing must not read as a pass
        print(f"verify {args.kind}: no checks apply at these parameters", file=sys.stderr)
        return EXIT_USAGE
    read = suite.flags if suite.max_size is None else (*suite.flags, "max_size")
    params = {k: getattr(args, k) for k in read}
    return _print_report(report, args.fmt, f"verify {args.kind}", params)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superbraid",
        description="Exact checks for the two-boundary braid and Hecke actions on gl(n|m) tensor space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rect(sp, need_d: bool):
        sp.add_argument("--a", type=int, required=True, help="columns of the left rectangle")
        sp.add_argument("--p", type=int, required=True, help="rows of the left rectangle")
        sp.add_argument("--b", type=int, required=True, help="columns of the right rectangle")
        sp.add_argument("--q", type=int, required=True, help="rows of the right rectangle")
        if need_d:
            sp.add_argument("--d", type=int, required=True, help="number of natural-module factors")

    def add_hp(sp):
        sp.add_argument("--n", type=int, required=True, help="even rows")
        sp.add_argument("--m", type=int, required=True, help="odd rows")

    p_bar = sub.add_parser("bar", help="hook diagram to highest weight")
    p_bar.add_argument("--p", type=str, required=True, help="partition, e.g. 4,3,3,1")
    add_hp(p_bar)
    p_bar.set_defaults(func=cmd_bar)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("kind", choices=sorted(VERIFY_KINDS))
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--a", type=int)
    p_verify.add_argument("--p", type=int)
    p_verify.add_argument("--b", type=int)
    p_verify.add_argument("--q", type=int)
    p_verify.add_argument("--d", type=int)
    p_verify.add_argument("--max-size", type=int, default=None)
    p_verify.add_argument(
        "--check-params",
        type=str,
        default=None,
        help="hecke only: check the quotient relations at a,p,b,q different from the build parameters",
    )
    p_verify.add_argument("--fmt", choices=["text", "json"], default="text")
    p_verify.add_argument("--cap", type=int, default=DEFAULT_DIM_CAP)
    p_verify.add_argument("--strict-params", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_graph = sub.add_parser("graph", help="emit the leveled diagram graph")
    add_rect(p_graph, need_d=True)
    add_hp(p_graph)
    p_graph.add_argument("--fmt", choices=["json", "dot"], default="json")
    p_graph.add_argument("--strict-params", action="store_true")
    p_graph.set_defaults(func=cmd_graph)

    p_lr = sub.add_parser("lr", help="Littlewood-Richardson expansion of a product")
    p_lr.add_argument("--lam", type=str, required=True)
    p_lr.add_argument("--mu", type=str, required=True)
    p_lr.set_defaults(func=cmd_lr)

    p_p0 = sub.add_parser("p0", help="hook constituents of the two-rectangle product")
    add_rect(p_p0, need_d=False)
    add_hp(p_p0)
    p_p0.add_argument("--strict-params", action="store_true")
    p_p0.set_defaults(func=cmd_p0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        suite = VERIFY_KINDS[args.kind]
        missing = [k for k in suite.flags if getattr(args, k) is None]
        if missing:
            print(
                f"verify {args.kind} requires " + " ".join(f"--{k}" for k in missing),
                file=sys.stderr,
            )
            return EXIT_USAGE
        if args.max_size is None:
            args.max_size = suite.max_size
        for name, value, low in (("d", args.d, 0), ("max-size", args.max_size, 0), ("cap", args.cap, 1)):
            if value is not None and value < low:
                print(f"verify {args.kind}: --{name} must be at least {low}, got {value}", file=sys.stderr)
                return EXIT_USAGE
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"dimension cap exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CombinatoricsError, bratteli.GraphError, LinalgError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConstructionError, MultiplicityError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
