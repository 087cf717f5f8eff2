"""Whole-space operators rebuilt from local ones, kept as a test oracle for
the transport lemma of ``superbraid.braid``.

A local config (``TensorConfig.local``) holds the leg factors in order, with
a parity carrier in each gap between two legs that are not adjacent.  Here
the layout is worked out again from the positions alone, and a local
operator is relabelled onto the whole space: a whole basis vector goes to
the local one with the same leg components and, in each gap, the carrier
vector of the gap's total parity; every entry of the local column moves the
legs' components and keeps the carriers.
"""

from superbraid.linalg import LinearOp


def local_layout(positions):
    """``(where, gaps)``: the local position of each leg, and ``(carrier
    position, first, last)`` for each gap, spanning whole positions
    ``first .. last``."""
    where, gaps, at = {}, [], 0
    for k, pos in enumerate(positions):
        if k and pos > positions[k - 1] + 1:
            gaps.append((at, positions[k - 1] + 1, pos - 1))
            at += 1
        where[pos] = at
        at += 1
    return where, gaps


def lift(config, positions, local, op, left_sign=0):
    """``op`` on ``local`` relabelled onto ``config`` and tensored with the
    identity on the other factors; with ``left_sign`` 1 each column also
    takes the sign (-1)^(parity of the factors left of the first leg)."""
    where, gaps = local_layout(positions)
    assert local.n_factors == len(positions) + len(gaps)
    assert [local.factors[where[p]] for p in positions] == [config.factors[p] for p in positions]
    assert all(local.factors[at].parities == (0, 1) for at, _, _ in gaps)

    def parity(comps, first, last):
        return sum(config.factors[t].parities[comps[t]] for t in range(first, last + 1)) % 2

    out = LinearOp(config.dim)
    for idx in range(config.dim):
        comps = config.decode(idx)
        lcomps = [0] * local.n_factors
        for p in positions:
            lcomps[where[p]] = comps[p]
        for at, first, last in gaps:
            lcomps[at] = parity(comps, first, last)
        lidx = sum(c * s for c, s in zip(lcomps, local.strides))
        sign = -1 if left_sign and parity(comps, 0, positions[0] - 1) else 1
        for lrow, v in op.cols.get(lidx, {}).items():
            rcomps = local.decode(lrow)
            assert all(rcomps[at] == lcomps[at] for at, _, _ in gaps)
            row = list(comps)
            for p in positions:
                row[p] = rcomps[where[p]]
            out.add_entry(sum(c * s for c, s in zip(row, config.strides)), idx, sign * v)
    return out
