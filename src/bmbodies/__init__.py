"""Random convex bodies: sampling, certified gauges, concentration
experiments, distance bounds, and symmetric-body nets.

The package republishes the `__all__` of linalg, randmodel, bodies,
concentration, distance and symnet, and `__all__` here is their
concatenation, so each public name is listed once, in its own module.
The gauge module's public names are not re-exported apart from
GaugeError and GaugeResult: `bmbodies.gauge` names the module, and the
function is `bmbodies.gauge.gauge`.

Importing the package sets OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS to 1 unless they are already set, before numpy loads its
BLAS: the CLI's worker pools run one process per core, and a BLAS thread
pool in each worker would oversubscribe the cores.  The pin only takes
effect when numpy is first imported after it.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# wildcard imports republish each module's __all__ (PEP 8 allows them for this)
from . import bodies, concentration, distance, linalg, randmodel, symnet
from .linalg import *
from .randmodel import *
from .bodies import *
from .gauge import GaugeError, GaugeResult
from .concentration import *
from .distance import *
from .symnet import *

__version__ = "0.1.0"

__all__ = [
    *linalg.__all__,
    *randmodel.__all__,
    *bodies.__all__,
    "GaugeError",
    "GaugeResult",
    *concentration.__all__,
    *distance.__all__,
    *symnet.__all__,
    "__version__",
]
