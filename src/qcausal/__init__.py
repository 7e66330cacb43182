"""Causality analysis for quantum channels at desk scale.

Decides whether unitaries and unital channels on small multipartite systems
can signal between site subsets, quantifies how far a channel is from
signalling-free, samples Haar-random unitaries to exhibit how rare exactly
product (hence signalling-free) unitaries are, and verifies the analogous
signalling chain for a free scalar field on a 1+1D lattice where causal
separations are exact.
"""

__version__ = "0.1.0"

from .causality import (
    PerturbationRow,
    ProductApproximation,
    SignallingReport,
    SorkinScenario,
    is_causal_unitary,
    is_local_channel,
    is_supported_on,
    nearest_product_unitary,
    operator_schmidt_values,
    perturbation_probe,
    semicausal_defect,
    sorkin_violation,
)
from .channels import (
    ChoiMatrix,
    KrausChannel,
    choi_to_kraus,
    classical_one_way_channel,
    cnot_channel,
    depolarizing_channel,
    embed_local,
    from_unitary,
    identity_channel,
    kraus_to_choi,
    local_random_channel,
    mix,
    product_unitary_channel,
    swap_channel,
    zoo,
)
from .lattice import (
    AffineField,
    BuildOptions,
    LatticeSpec,
    Region,
    TestFunction,
    build_scenario,
    gaussian_square_conjugate,
    pauli_jordan,
    reaches,
    retarded_green,
    signalling_derivative,
    sorkin_chain,
    spacelike,
    triangular_bump,
    weyl_conjugate,
)
from .sampling import (
    MeasureZeroStats,
    RngStream,
    haar_local_unitary,
    haar_unitary,
    measure_zero_experiment,
    random_density,
    random_hermitian,
    random_kraus_channel,
    random_sorkin_scenario,
)
from .tensor import (
    DEFAULT_TOL,
    Bipartition,
    SystemDims,
    all_bipartitions,
    check_density,
    embed_operator,
    frobenius_inner,
    from_re_im,
    hermitian_basis,
    hermitian_vector,
    is_hermitian,
    is_unitary,
    partial_trace,
    polar_unitary,
    realign,
    tensor_product,
    to_re_im,
    trace_norm,
)
