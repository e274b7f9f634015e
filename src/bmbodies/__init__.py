"""Random convex bodies: sampling, certified gauges, concentration
experiments, distance bounds, and symmetric-body nets.

The public surface re-exported here is stable; the submodules carry
the implementation detail.  The gauge function is not re-exported:
`bmbodies.gauge` names its module, and the function is
`bmbodies.gauge.gauge`.

Importing the package sets OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS to 1 unless they are already set, before numpy loads its
BLAS: the CLI's worker pools run one process per core, and a BLAS thread
pool in each worker would oversubscribe the cores.  The pin only takes
effect when numpy is first imported after it.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .linalg import (
    PigeonholeError,
    SpectralInterval,
    SvdResult,
    build_projectors,
    check_matrix,
    hs_norm,
    spectral_interval,
    spectral_norm,
    svd,
)
from .randmodel import (
    BodySample,
    ModelParams,
    TestVector,
    round_half_up,
    sample_body,
    sample_test_vector,
    substream,
)
from .bodies import (
    Ball,
    HullBody,
    SignedPoints,
    ball_body,
    body_from_dict,
    body_to_dict,
    body_to_text,
    cap_body,
    circumradius_upper,
    inradius_lower,
    read_body,
    subset_body,
    support_function,
    support_many,
    write_body,
)
from .gauge import GaugeResult, GaugeSolverError, GaugeToleranceError
from .concentration import (
    SmallBallEstimate,
    TailCurve,
    default_thresholds,
    mc_large_deviation,
    mc_quadratic_tail,
    mc_small_ball,
    merge_curves,
    pilot_thresholds,
    wilson_interval,
)
from .distance import (
    BmEstimate,
    BmOptions,
    CertificationError,
    EventReport,
    OpNormResult,
    SeparationOptions,
    SeparationReport,
    bm_upper,
    cap_projection_norms,
    check_one_body,
    check_one_vector,
    event_alpha,
    op_norm,
    run_separation,
    separation_scale,
)
from .symnet import (
    PairCertificate,
    StepFamily,
    SymmetricBody,
    SymmetricNet,
    body_from_tag,
    build_net,
    certify_pair,
    enumerate_steps,
    level_count,
    log_profile,
    lorentz_body,
    lp_body,
    net_from_text,
    net_to_text,
    profile_cell,
    tau_for_separation,
    top_k_body,
)

__version__ = "0.1.0"

__all__ = [
    "PigeonholeError",
    "SpectralInterval",
    "SvdResult",
    "build_projectors",
    "check_matrix",
    "hs_norm",
    "spectral_interval",
    "spectral_norm",
    "svd",
    "BodySample",
    "ModelParams",
    "TestVector",
    "round_half_up",
    "sample_body",
    "sample_test_vector",
    "substream",
    "Ball",
    "HullBody",
    "SignedPoints",
    "ball_body",
    "body_from_dict",
    "body_to_dict",
    "body_to_text",
    "cap_body",
    "circumradius_upper",
    "inradius_lower",
    "read_body",
    "subset_body",
    "support_function",
    "support_many",
    "write_body",
    "GaugeResult",
    "GaugeSolverError",
    "GaugeToleranceError",
    "SmallBallEstimate",
    "TailCurve",
    "default_thresholds",
    "mc_large_deviation",
    "mc_quadratic_tail",
    "mc_small_ball",
    "merge_curves",
    "pilot_thresholds",
    "wilson_interval",
    "BmEstimate",
    "BmOptions",
    "CertificationError",
    "EventReport",
    "OpNormResult",
    "SeparationOptions",
    "SeparationReport",
    "bm_upper",
    "cap_projection_norms",
    "check_one_body",
    "check_one_vector",
    "event_alpha",
    "op_norm",
    "run_separation",
    "separation_scale",
    "PairCertificate",
    "StepFamily",
    "SymmetricBody",
    "SymmetricNet",
    "body_from_tag",
    "build_net",
    "certify_pair",
    "enumerate_steps",
    "level_count",
    "log_profile",
    "lorentz_body",
    "lp_body",
    "net_from_text",
    "net_to_text",
    "profile_cell",
    "tau_for_separation",
    "top_k_body",
    "__version__",
]
