"""Exact-arithmetic verification of the two-boundary braid and Hecke algebra
action on M (x) N (x) V^d for the general linear Lie superalgebra gl(n|m)."""

from .partitions import (
    Box,
    HookProfile,
    addable_hook_positions,
    box_sets,
    box_sum_identity,
    content,
    hook_to_weight,
    is_hook,
    normalize_partition,
)
from .linalg import (
    GradedSpace,
    LinearOp,
    Subspace,
    commutant_components,
    kernel_intersection,
    simultaneous_eigenspaces,
)
from .superalgebra import (
    RealizedModule,
    TensorConfig,
    bilinear_form,
    casimir_pairing,
    natural_casimir_scalar,
    natural_factor,
    pairing_eps,
    two_rho,
)
from .modules import (
    highest_weight_vectors,
    kappa_scalar,
    module_tensor_config,
    pieri_summands,
    realize_module,
)
from .schur import decompose_two_rectangles, lr_coeff
from .braid import (
    GeneratorImages,
    m_ops,
    rho_images,
    rho_prime_images,
    verify_braid_relations,
    verify_centralizer,
    verify_hecke_relations,
)
from .bratteli import (
    BratteliGraph,
    build_graph,
    irreducibility_check,
    paths_to,
    spectral_match,
    z0_value,
    z_values,
)

__version__ = "1.0.0"
