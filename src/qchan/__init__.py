"""Commutator-based quantumness of qubit channels.

Build Kraus channels, push parameterized state pairs through them, quantify
the output incompatibility 2 Tr(C^dag C) with C the commutator, maximize it
over input pairs, and compare the maxima against analytic closed forms.
"""

import types

from .linalg import (
    BlochVector,
    DensityMatrix,
    IDENTITY2,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    from_bloch,
    hs_norm_sq,
    purity,
    to_bloch,
)
from .states import StatePairParams, max_noncommuting_pair, state_pair
from .channels import (
    KrausChannel,
    MemoryKernel,
    ad,
    apply,
    bloch_map,
    builtin_kernel,
    closed_form_mu,
    gad,
    gdc,
    nmd,
    nmd_kernel,
    nmd_memory_kernel,
    pd,
    rtn,
    rtn_kernel,
    rtn_memory_kernel,
    unruh,
    unruh_r_from_acceleration,
)
from .measures import (
    OuterInequalityCheck,
    VisibilityPair,
    check_outer_inequality,
    coherence_l1,
    incompatibility,
    incompatibility_bloch,
    incompatibility_trace_form,
    visibilities,
)
from .optimize import (
    DOMAIN_ALL_PAIRS,
    DOMAIN_PROBE,
    OptimizerConfig,
    QuantumnessResult,
    brute_force_mu,
    maximize_mu,
)

__version__ = "0.1.0"

# The imports above are the one list of public names: every name they bind but the submodules.
__all__ = [k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, types.ModuleType)]
