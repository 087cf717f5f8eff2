"""In-memory span tracer for the traced benchmark pass.

Wraps chosen public functions of superbraid from outside the package.
Each call records a span ``(name, parent, root, start, end)``; the root is
the span of the suite invocation the call belongs to, so spans of one
suite share an identifier.  Spans stay in memory until the pass ends.

Self time of a span is its duration minus the part of its interval that
its direct child spans cover.

Span times are read off a clock that stands still while the tracer's own
count hooks run (they walk image operators, for instance), so that work is
charged to no span.  It still shows in the pass's wall time, and so in
the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute or Class.method, span name).  Several wrapped names
# are imported directly by other modules (cli, modules, bratteli), so
# ``install`` rebinds every alias of the original object it finds.
TARGETS = (
    ("superbraid.schur", "decompose_two_rectangles", "schur.decompose_two_rectangles"),
    ("superbraid.superalgebra", "TensorConfig.__init__", "superalgebra.tensor_config"),
    ("superbraid.superalgebra", "TensorConfig.casimir_op", "superalgebra.casimir_op"),
    ("superbraid.modules", "realize_module", "modules.realize_module"),
    ("superbraid.modules", "highest_weight_vectors", "modules.highest_weight_vectors"),
    ("superbraid.modules", "module_tensor_config", "modules.module_tensor_config"),
    ("superbraid.modules", "pieri_summands", "modules.pieri_summands"),
    ("superbraid.modules", "kappa_scalar", "modules.kappa_scalar"),
    ("superbraid.braid", "rho_images", "braid.images"),
    ("superbraid.braid", "rho_prime_images", "braid.images"),
    ("superbraid.braid", "verify_braid_relations", "braid.verify_braid_relations"),
    ("superbraid.braid", "verify_centralizer", "braid.verify_centralizer"),
    ("superbraid.braid", "verify_hecke_relations", "braid.verify_hecke_relations"),
    ("superbraid.bratteli", "build_graph", "bratteli.build_graph"),
    ("superbraid.bratteli", "spectral_match", "bratteli.spectral_match"),
    ("superbraid.bratteli", "irreducibility_check", "bratteli.irreducibility_check"),
    ("superbraid.linalg", "LinearOp.__matmul__", "linalg.matmul"),
    ("superbraid.linalg", "RowReducer.add", "linalg.rowreducer_add"),
    ("superbraid.linalg", "Subspace.coordinates", "linalg.subspace_coordinates"),
    ("superbraid.linalg", "kernel_intersection", "linalg.kernel_intersection"),
    ("superbraid.linalg", "commutant_dimension", "linalg.commutant_dimension"),
    ("superbraid.linalg", "simultaneous_eigenspaces", "linalg.simultaneous_eigenspaces"),
)


def _images_nnz(images) -> int:
    return sum(len(col) for _, op in images.named_ops() for col in op.cols.values())


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {
            "superalgebra.tensor_configs": 0,
            "superalgebra.tensor_dim_max": 0,
            "braid.images_nnz": 0,
            "bratteli.multiplicity_dim_max": 0,
            "bratteli.multiplicity_dim_sum": 0,
        }
        self._stack: list = []
        self._hook_s = 0.0  # wall time spent in count hooks so far

    def clock(self) -> float:
        """Wall time less the time spent in count hooks."""
        return time.perf_counter() - self._hook_s

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``after(args, result)`` runs once the span has ended, to record
        counts read off the arguments or the result; the span clock stands
        still while it runs.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent, root = stack[-1] if stack else (-1, idx)
            spans.append(None)  # reserved, so that children get later indices
            stack.append((idx, root))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                # a tuple of atoms, which the garbage collector stops tracking
                spans[idx] = (name, parent, root, start, clock())
                stack.pop()
            if after is not None:
                hook_start = time.perf_counter()
                after(args, result)
                self._hook_s += time.perf_counter() - hook_start
            return result

        return traced

    def _after(self, name: str):
        counts = self.counts
        if name == "superalgebra.tensor_config":
            def after(args, _):
                counts["superalgebra.tensor_configs"] += 1
                counts["superalgebra.tensor_dim_max"] = max(
                    counts["superalgebra.tensor_dim_max"], args[0].dim
                )
        elif name == "braid.images":
            def after(_, images):
                counts["braid.images_nnz"] += _images_nnz(images)
        elif name in ("bratteli.spectral_match", "bratteli.irreducibility_check"):
            def after(_, result):
                for rec in result if isinstance(result, list) else [result]:
                    dim = rec["multiplicity_dim"]
                    counts["bratteli.multiplicity_dim_sum"] += dim
                    counts["bratteli.multiplicity_dim_max"] = max(
                        counts["bratteli.multiplicity_dim_max"], dim
                    )
        else:
            after = None
        return after

    def install(self) -> None:
        """Wrap every target, rebinding each alias in the loaded superbraid modules."""
        loaded = [m for n, m in sys.modules.items() if n == "superbraid" or n.startswith("superbraid.")]
        for mod_name, attr, name in TARGETS:
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], self._after(name)))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, self._after(name))
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)


def aggregate(spans) -> dict:
    """Per span name: calls, total_s and self_s.

    ``total_s`` counts only the outermost span of a name along any chain
    of nested calls, so recursion is not counted twice.
    """
    covered = [0.0] * len(spans)
    children: dict = {}
    for idx, (_, parent, _, start, end) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    for parent, intervals in children.items():
        lo, hi = spans[parent][3], spans[parent][4]
        intervals.sort()
        total = 0.0
        cur_start = cur_end = None
        for start, end in intervals:
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            total += cur_end - cur_start
        covered[parent] = total
    out: dict = {}
    for idx, (name, parent, _, start, end) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            entry["total_s"] += end - start
    return out
