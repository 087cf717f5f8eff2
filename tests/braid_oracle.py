"""The ``verify braid`` report as two relation passes, and the relation
and Hecke suites with every line a residual on the whole space, kept as
test oracles.

The command runs ``verify_braid_relations`` once, on the shifted images, and
reports each line twice, since the plain lines equal the shifted ones once
every t_i^2 = 1.  Here the plain lines come from their own pass on the
:func:`unshifted` images, so both must give the same lines, witnesses
included.  ``verify_braid_relations`` proves its lines from the split
Casimirs each image is summed from, on local configs; :func:`whole_space_braid`
takes every line as its residual on the whole space, each conjugation
``t X t`` as two products, and :func:`whole_space_r2` does so for the R2
lines alone.  :func:`whole_space_hecke` does so for the Hecke lines, which
``verify_hecke_relations`` proves on local configs too.
``rho_prime_images`` builds each image, swaps included, from its definition
on first read; :func:`eager_images` builds every image at once, as a plain
dict, which fails the suites' by-construction premise.
"""

from dataclasses import replace
from functools import reduce

from superbraid.braid import (
    POS_M,
    POS_N,
    GeneratorImages,
    Report,
    unshifted,
    v_position,
    verify_braid_relations,
    zero_check,
)
from superbraid.linalg import LinearOp, op_sum


def eager_images(config, corrupt_gamma=None):
    """The shifted images with every image built up front, in report order:
    each swap as ``signed_swap``, and each other image summed from its
    split Casimirs, each built with ``corrupt=corrupt_gamma``."""
    d = config.n_factors - 2

    def gamma(p1, p2):
        return config.split_casimir_op(p1, p2, corrupt=corrupt_gamma)

    ops = {"z0": gamma(POS_M, POS_N), **{f"t{i}": config.signed_swap(v_position(i)) for i in range(1, d)}}
    fams = {"x": {}, "y": {}, "z": {}}
    for i in range(1, d + 1):
        pos = v_position(i)
        cross = [gamma(v_position(k), pos) for k in range(1, i)]
        gm, gn = gamma(POS_M, pos), gamma(POS_N, pos)
        fams["x"][i] = op_sum([gm, *cross])
        fams["y"][i] = op_sum([gn, *cross])
        fams["z"][i] = op_sum([fams["x"][i], gn])
    ops.update((f"{f}{i}", op) for f, fam in fams.items() for i, op in fam.items())
    return GeneratorImages(config, ops, True)


def two_pass_braid(images):
    """The checks of the plain pass, then of the shifted pass on ``images``,
    prefixed ``plain:`` and ``shifted:``."""
    checks = []
    for prefix, acting in (("plain", unshifted(images)), ("shifted", images)):
        checks += [replace(c, id=f"{prefix}:{c.id}") for c in verify_braid_relations(acting).checks]
    return checks


def whole_space_r2(images):
    """The R2 lines ``[z0+..+zi, xj]`` and ``[z0+..+zi, yj]`` in report
    order, each the residual of the prefix commutator."""
    rep = Report("R2")
    config, z = images.config, images.z
    prefix = images.z0
    for j in range(1, images.d + 1):
        prefix = prefix + z[j]
        rx, ry = prefix.commutator(images.x[j]), prefix.commutator(images.y[j])
        for i in range(j, images.d + 1):
            if i > j:
                rx, ry = rx + z[i].commutator(images.x[j]), ry + z[i].commutator(images.y[j])
            rep.add(zero_check(f"R2:[z0+..+z{i},x{j}]", rx, config))
            rep.add(zero_check(f"R2:[z0+..+z{i},y{j}]", ry, config))
    return rep


def whole_space_braid(images):
    """The report of ``verify_braid_relations`` with every line its residual
    on the whole space, in the suite's order: the ``sym`` lines, R1 as
    ``[X, t_j]``, R2 (:func:`whole_space_r2`), R3, R4 and R5 on
    ``m_{i,i+1} = x_{i+1} - t_i x_i t_i`` and its y counterpart, R6 on
    ``m_j``, the sum of the ``m_{i,j}``, and ``m_{i,j}`` against the split
    Casimir, where ``m_{i,j}`` is ``m_{j-1,j}`` conjugated by the
    transposition word ``t_i .. t_{j-2} .. t_i`` as one product."""
    config, d = images.config, images.d
    t, x, y = images.t, images.x, images.y
    rep = Report("braid relations" + (" (shifted)" if images.shifted else ""))

    def check(check_id, residual):
        rep.add(zero_check(check_id, residual, config))

    for i in range(1, d):
        check(f"sym:t{i}^2=1", t[i] @ t[i] - LinearOp.identity(config.dim))
    for i in range(1, d - 1):
        check(f"sym:braid(t{i},t{i + 1})", t[i] @ t[i + 1] @ t[i] - t[i + 1] @ t[i] @ t[i + 1])
    for i in range(1, d):
        for j in range(i + 2, d):
            check(f"sym:[t{i},t{j}]", t[i].commutator(t[j]))
    for name, fam in (("x", x), ("y", y), ("z", {0: images.z0, **images.z})):
        for i in sorted(fam):
            for j in range(1, d):
                if i not in (j, j + 1):
                    check(f"R1:[{name}{i},t{j}]", fam[i].commutator(t[j]))
    rep.checks += whole_space_r2(images).checks
    for i in range(1, d):
        for name, fam in (("x", x), ("y", y)):
            check(f"R3:[t{i},{name}{i}+{name}{i + 1}]", t[i].commutator(fam[i] + fam[i + 1]))
    m = {name: {i: fam[i + 1] - t[i] @ fam[i] @ t[i] for i in range(1, d)} for name, fam in (("x", x), ("y", y))}
    for name in ("x", "y"):
        for i in range(1, d - 1):
            check(f"R4:{name},i={i}", t[i] @ t[i + 1] @ m[name][i] @ t[i + 1] @ t[i] - m[name][i + 1])
    for i in range(1, d):
        check(f"R5:i={i}", m["x"][i] - m["y"][i])
    pair = {}
    for j in range(2, d + 1):
        pair[(j - 1, j)] = m["x"][j - 1]
        for i in range(j - 2, 0, -1):
            word = reduce(LinearOp.__matmul__, [t[k] for k in (*range(i, j - 1), *range(j - 3, i - 1, -1))])
            pair[(i, j)] = word @ pair[(j - 1, j)] @ word
    for j in range(1, d + 1):
        m_j = LinearOp(config.dim)
        for i in range(1, j):
            m_j = m_j + pair[(i, j)]
        check(f"R6:z{j}=x{j}+y{j}-m{j}", images.z[j] - (x[j] + y[j] - m_j))
    for (i, j), op in sorted(pair.items()):
        check(f"m({i},{j})=split-casimir", op - config.split_casimir_op(v_position(i), v_position(j)))
    return rep


def whole_space_hecke(images, a, p, b, q):
    """The report of ``verify_hecke_relations`` with every line its
    residual on the whole space, in the suite's order: the quadratics on
    ``x_1`` and ``y_1``, then for each ``i`` the lines
    ``x_{i+1} - t_i x_i t_i - t_i``, its y counterpart and
    ``t_i - Gamma(v_i, v_{i+1})``."""
    rep = Report(f"hecke relations a={a} p={p} b={b} q={q}")
    config = images.config
    if images.d < 1:
        return rep
    x1, y1 = images.x[1], images.y[1]
    rep.add(zero_check(f"hecke:(x1-{a})(x1+{p})=0", x1.plus_scalar(-a) @ x1.plus_scalar(p), config))
    rep.add(zero_check(f"hecke:(y1-{b})(y1+{q})=0", y1.plus_scalar(-b) @ y1.plus_scalar(q), config))
    for i in range(1, images.d):
        t = images.t[i]
        for name, fam in (("x", images.x), ("y", images.y)):
            residual = fam[i + 1] - (t @ fam[i] @ t + t)
            rep.add(zero_check(f"hecke:{name}{i + 1}=t{i}{name}{i}t{i}+t{i}", residual, config))
        gamma = config.split_casimir_op(v_position(i), v_position(i + 1))
        rep.add(zero_check(f"hecke:t{i}=split-casimir({i},{i + 1})", t - gamma, config))
    return rep
