"""The centralizer check with every one of the ``r^2`` units, kept as a
test oracle.

``braid.verify_centralizer`` decides each line on local configs where its
premise holds and takes the residual only where it fails; here every line
is the residual ``[X, E(i,j)]`` of the image and the unit, so both must give
the same report, witnesses included.
"""

from superbraid.braid import Report, zero_check


def full_centralizer(images):
    rep = Report("centralizer")
    config = images.config
    r = config.hp.rank
    for name, op in images.named_ops():
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                unit = config.act_unit(i, j)
                rep.add(zero_check(f"[{name},E({i},{j})]", op.commutator(unit), config))
    return rep
