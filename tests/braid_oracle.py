"""The ``verify braid`` report as two relation passes, kept as a test oracle.

The command runs ``verify_braid_relations`` once, on the shifted images, and
reports each line twice, since the plain lines equal the shifted ones once
every t_i^2 = 1.  Here the plain lines come from their own pass on the
:func:`unshifted` images, so both must give the same lines, witnesses
included.
"""

from dataclasses import replace

from superbraid.braid import unshifted, verify_braid_relations


def two_pass_braid(images):
    """The checks of the plain pass, then of the shifted pass on ``images``,
    prefixed ``plain:`` and ``shifted:``."""
    checks = []
    for prefix, acting in (("plain", unshifted(images)), ("shifted", images)):
        checks += [replace(c, id=f"{prefix}:{c.id}") for c in verify_braid_relations(acting).checks]
    return checks
