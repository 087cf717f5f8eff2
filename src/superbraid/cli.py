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
import os
import sys
from fractions import Fraction

from . import bratteli
from .braid import Report, Check, rho_images, rho_prime_images, verify_braid_relations, verify_centralizer, verify_hecke_relations
from .linalg import LinalgError
from .modules import (
    CapExceededError,
    ConstructionError,
    DEFAULT_DIM_CAP,
    kappa_scalar,
    module_tensor_config,
    pieri_summands,
    realize_module,
)
from .partitions import (
    CombinatoricsError,
    HookProfile,
    box_sum_identity,
    format_partition,
    hook_to_weight,
    parse_partition,
    rectangle,
)
from .partitions import is_hook
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


def _fraction_str(v) -> str:
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _cap_from(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("SUPERBRAID_CAP")
    if env:
        try:
            return int(env)
        except ValueError:
            raise CombinatoricsError(f"SUPERBRAID_CAP must be an integer, got {env!r}")
    return DEFAULT_DIM_CAP


def _hp_from(args) -> HookProfile:
    if getattr(args, "hook", None):
        n, m = (int(x) for x in args.hook.split(","))
        return HookProfile(n, m)
    return HookProfile(args.n, args.m)


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


def _records_to_report(title: str, records, id_of) -> Report:
    rep = Report(title)
    for rec in records:
        detail = None if rec["ok"] else {k: str(v) for k, v in rec.items() if k != "ok"}
        rep.add(Check(id_of(rec), bool(rec["ok"]), detail))
    return rep


def cmd_bar(args) -> int:
    hp = HookProfile(args.n, args.m)
    part = parse_partition(args.p)
    weight = hook_to_weight(part, hp)
    print(",".join(str(c) for c in weight))
    return EXIT_OK


def cmd_graph(args) -> int:
    hp = _hp_from(args)
    g = bratteli.build_graph(args.a, args.p, args.b, args.q, hp, args.d, strict=args.strict_params)
    if args.fmt == "dot":
        sys.stdout.write(bratteli.to_dot(g))
    else:
        print(bratteli.to_json(g))
    return EXIT_OK


def cmd_lr(args) -> int:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    total = sum(lam) + sum(mu)
    for nu in sorted(partitions_of(total)):
        c = lr_coeff(lam, mu, nu)
        if c:
            print(f"{format_partition(nu)}:{c}")
    return EXIT_OK


def cmd_p0(args) -> int:
    hp = _hp_from(args)
    for lam in decompose_two_rectangles(args.a, args.p, args.b, args.q, hp, strict=args.strict_params):
        print(format_partition(lam))
    return EXIT_OK


def _verify_braid(args, cap: int) -> Report:
    hp = HookProfile(args.n, args.m)
    config = module_tensor_config((1,), (1,), args.d, hp, cap)
    rep = Report(f"braid n={args.n} m={args.m} d={args.d}")
    for images, tag in ((rho_images(config), "plain"), (rho_prime_images(config), "shifted")):
        sub = verify_braid_relations(images)
        for check in sub.checks:
            rep.add(Check(f"{tag}:{check.id}", check.ok, check.witness))
    return rep


def _verify_centralizer(args, cap: int) -> Report:
    hp = HookProfile(args.n, args.m)
    config = module_tensor_config((1,), (1,), args.d, hp, cap)
    return verify_centralizer(rho_prime_images(config))


def _verify_hecke(args, cap: int) -> Report:
    hp = HookProfile(args.n, args.m)
    alpha = rectangle(args.a, args.p)
    beta = rectangle(args.b, args.q)
    config = module_tensor_config(alpha, beta, args.d, hp, cap)
    rel = (args.a, args.p, args.b, args.q)
    if args.check_params:
        rel = tuple(int(x) for x in args.check_params.split(","))
        if len(rel) != 4:
            raise CombinatoricsError("--check-params needs four integers a,p,b,q")
    return verify_hecke_relations(rho_prime_images(config), *rel)


def _verify_casimir(args, cap: int) -> Report:
    hp = HookProfile(args.n, args.m)
    rep = Report(f"casimir n={args.n} m={args.m} size<={args.max_size}")
    for i in range(1, hp.rank + 1):
        eps = tuple(1 if k == i - 1 else 0 for k in range(hp.rank))
        direct = bilinear_form(eps, tuple(e + r for e, r in zip(eps, two_rho(hp))), hp)
        rep.add(Check(f"pairing-eps({i})", pairing_eps(i, hp) == direct, None))
    for s in range(1, hp.m + 1):
        psi = psi_pairing_report(s, hp)
        rep.add(
            Check(
                f"psi-pairing-form(s={s})",
                psi["matching"] == "general",
                {k: str(v) for k, v in psi.items()},
            )
        )
    for total in range(0, args.max_size + 1):
        for lam in partitions_of(total):
            if not is_hook(lam, hp):
                continue
            mod = realize_module(lam, hp, cap)
            scalar = kappa_scalar(mod)
            expected = casimir_pairing(mod.highest_weight, hp)
            ok = scalar == expected
            rep.add(
                Check(
                    f"casimir{format_partition(lam)}",
                    ok,
                    None if ok else {"observed": _fraction_str(scalar), "expected": str(expected)},
                )
            )
    return rep


def _verify_pieri(args, cap: int) -> Report:
    hp = HookProfile(args.n, args.m)
    rep = Report(f"pieri n={args.n} m={args.m} size<={args.max_size}")
    for total in range(0, args.max_size + 1):
        for mu in partitions_of(total):
            if not is_hook(mu, hp):
                continue
            for rec in pieri_summands(mu, hp, cap):
                rep.add(
                    Check(
                        f"pieri:{format_partition(mu)}->{format_partition(rec['partition'])}",
                        rec["ok"],
                        None
                        if rec["ok"]
                        else {"observed": _fraction_str(rec["observed"]), "expected": rec["predicted"]},
                    )
                )
    return rep


def _verify_spectra(args, cap: int) -> Report:
    hp = HookProfile(args.n, args.m)
    g = bratteli.build_graph(args.a, args.p, args.b, args.q, hp, args.d, strict=args.strict_params)
    config = module_tensor_config(rectangle(args.a, args.p), rectangle(args.b, args.q), args.d, hp, cap)
    images = rho_prime_images(config)
    records = bratteli.spectral_match(g, config, images)
    return _records_to_report(
        f"spectra a={args.a} p={args.p} b={args.b} q={args.q} d={args.d}",
        records,
        lambda rec: f"spectrum:{rec['partition']}",
    )


def _verify_irreducible(args, cap: int) -> Report:
    hp = HookProfile(args.n, args.m)
    g = bratteli.build_graph(args.a, args.p, args.b, args.q, hp, args.d, strict=args.strict_params)
    config = module_tensor_config(rectangle(args.a, args.p), rectangle(args.b, args.q), args.d, hp, cap)
    images = rho_prime_images(config)
    records = [bratteli.irreducibility_check(g, config, images, lam) for lam in g.level(g.d)]
    return _records_to_report(
        f"irreducible a={args.a} p={args.p} b={args.b} q={args.q} d={args.d}",
        records,
        lambda rec: f"commutant:{rec['partition']}",
    )


def _verify_lemmas(args, cap: int) -> Report:
    hp = HookProfile(args.n, args.m)
    g = bratteli.build_graph(args.a, args.p, args.b, args.q, hp, 0, strict=args.strict_params)
    rep = Report(f"lemmas a={args.a} p={args.p} b={args.b} q={args.q}")
    for lam in g.level(0):
        lhs, rhs = box_sum_identity(lam, args.a, args.p, args.b, args.q)
        rep.add(
            Check(
                f"box-sum{format_partition(lam)}",
                lhs == rhs,
                None if lhs == rhs else {"lhs": lhs, "rhs": rhs},
            )
        )
        case = bratteli.z0_case_report(lam, args.a, args.p, args.b, args.q)
        rep.add(
            Check(
                f"z0-cases{format_partition(lam)}",
                case["agree"],
                None if case["agree"] else {k: str(v) for k, v in case.items()},
            )
        )
    for rec in bratteli.p0_neighbor_check(g):
        rep.add(
            Check(
                f"neighbor-contents{rec['pair']}",
                rec["ok"],
                None if rec["ok"] else {"sum": rec["sum"], "expected": rec["expected"]},
            )
        )
        lam, mu = (tuple(x) for x in rec["pair"])
        t = bratteli.transfer_check(lam, mu, args.a, args.p, args.b, args.q, hp)
        rep.add(
            Check(
                f"casimir-transfer{rec['pair']}",
                t["ok"],
                None if t["ok"] else {k: str(v) for k, v in t.items() if k != "pair"},
            )
        )
    return rep


VERIFY_KINDS = {
    "braid": _verify_braid,
    "centralizer": _verify_centralizer,
    "hecke": _verify_hecke,
    "casimir": _verify_casimir,
    "pieri": _verify_pieri,
    "spectra": _verify_spectra,
    "irreducible": _verify_irreducible,
    "lemmas": _verify_lemmas,
}


def cmd_verify(args) -> int:
    cap = _cap_from(args)
    report = VERIFY_KINDS[args.kind](args, cap)
    if not report.checks:
        # a report that checked nothing must not read as a pass
        print(f"verify {args.kind}: no checks apply at these parameters", file=sys.stderr)
        return EXIT_USAGE
    params = {
        k: getattr(args, k)
        for k in ("a", "p", "b", "q", "n", "m", "d", "max_size")
        if getattr(args, k, None) is not None
    }
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

    def add_hp(sp, required=True):
        sp.add_argument("--n", type=int, required=False, help="even rows")
        sp.add_argument("--m", type=int, required=False, help="odd rows")
        sp.add_argument("--hook", type=str, required=False, help="hook profile as n,m")

    p_bar = sub.add_parser("bar", help="hook diagram to highest weight")
    p_bar.add_argument("--p", type=str, required=True, help="partition, e.g. 4,3,3,1")
    p_bar.add_argument("--n", type=int, required=True)
    p_bar.add_argument("--m", type=int, required=True)
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
    p_verify.add_argument("--cap", type=int, default=None)
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


_REQUIRED = {
    "braid": ("n", "m", "d"),
    "centralizer": ("n", "m", "d"),
    "hecke": ("a", "p", "b", "q", "n", "m", "d"),
    "casimir": ("n", "m"),
    "pieri": ("n", "m"),
    "spectra": ("a", "p", "b", "q", "n", "m", "d"),
    "irreducible": ("a", "p", "b", "q", "n", "m", "d"),
    "lemmas": ("a", "p", "b", "q", "n", "m"),
}

_DEFAULT_MAX_SIZE = {"casimir": 4, "pieri": 3}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        missing = [k for k in _REQUIRED[args.kind] if getattr(args, k) is None]
        if missing:
            print(
                f"verify {args.kind} requires " + " ".join(f"--{k}" for k in missing),
                file=sys.stderr,
            )
            return EXIT_USAGE
        if args.max_size is None:
            args.max_size = _DEFAULT_MAX_SIZE.get(args.kind, 4)
        for name, value, low in (("d", args.d, 0), ("max-size", args.max_size, 0), ("cap", args.cap, 1)):
            if value is not None and value < low:
                print(f"verify {args.kind}: --{name} must be at least {low}, got {value}", file=sys.stderr)
                return EXIT_USAGE
    if args.command in ("graph", "p0") and args.hook is None and (args.n is None or args.m is None):
        print(f"{args.command} requires --hook n,m or both --n and --m", file=sys.stderr)
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
