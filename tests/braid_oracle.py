"""The ``verify braid`` report as two relation passes, and the R2 lines as
whole-space commutators, kept as test oracles.

The command runs ``verify_braid_relations`` once, on the shifted images, and
reports each line twice, since the plain lines equal the shifted ones once
every t_i^2 = 1.  Here the plain lines come from their own pass on the
:func:`unshifted` images, so both must give the same lines, witnesses
included.  ``verify_braid_relations`` proves its R2 lines from local 4T
relators; :func:`whole_space_r2` takes each as the commutator of the prefix
sum with the image, as the suite did before.
"""

from dataclasses import replace

from superbraid.braid import Report, unshifted, verify_braid_relations, zero_check


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
