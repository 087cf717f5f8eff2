"""Operator arithmetic that only the tests use."""

from superbraid.linalg import LinearOp


def scaled(op, c):
    """``c * op``, in the canonical exact form, with no zero entry."""
    return LinearOp.from_entries(op.dim, ((i, j, c * v) for i, j, v in op.entries()))
