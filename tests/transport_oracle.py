"""Whole-space operators rebuilt from local ones, kept as a test oracle for
the transport lemma of ``superbraid.braid``.

A local config (``TensorConfig.local``) holds the leg factors in order and
nothing else.  Here a local operator is relabelled onto the whole space from
the positions and the factors' parities alone: a whole basis vector goes to
the local one with the same leg components, and every entry of the local
column moves the legs' components and keeps the others.  Then, for each gap
(the factors between two legs that are not adjacent) of odd parity on the
whole basis vector, the entry takes the sign (-1)^(r_row + r_col), with r
the parity of the legs right of the gap at the entry's row and at its
column: the local operator conjugated by the parity operator on those legs.
"""

from superbraid.linalg import LinearOp


def local_gaps(positions):
    """``(span, right)`` for each gap between the increasing ``positions``:
    the whole positions it spans, and the legs right of it."""
    return [
        (range(positions[k - 1] + 1, pos), positions[k:])
        for k, pos in enumerate(positions)
        if k and pos > positions[k - 1] + 1
    ]


def lift(config, positions, local, op, left_sign=0):
    """``op`` on ``local`` relabelled onto ``config`` and tensored with the
    identity on the other factors; with ``left_sign`` 1 each column also
    takes the sign (-1)^(parity of the factors left of the first leg)."""
    assert local.factors == [config.factors[p] for p in positions]

    def parity(comps, span):
        return sum(config.factors[t].parities[comps[t]] for t in span) % 2

    gaps = local_gaps(positions)
    out = LinearOp(config.dim)
    for idx in range(config.dim):
        comps = config.decode(idx)
        lidx = sum(comps[p] * s for p, s in zip(positions, local.strides))
        odd = [right for span, right in gaps if parity(comps, span)]
        sign = -1 if left_sign and parity(comps, range(positions[0])) else 1
        for lrow, v in op.cols.get(lidx, {}).items():
            row = list(comps)
            for p, c in zip(positions, local.decode(lrow)):
                row[p] = c
            flips = sum(parity(row, right) + parity(comps, right) for right in odd)
            out.add_entry(sum(c * s for c, s in zip(row, config.strides)), idx, (-1) ** flips * sign * v)
    return out
