"""rktlab: numerical testbed for reverse embedding inequalities.

Modules by subject:

  numerics      the one circle rule, disk grids, Hermitian eigenproblems
  measures      measures on the closed disk and Carleson-window statistics
  hardy         H^p kernels, norms, embedding testers, window averages
  paley_wiener  the sinc-kernel counterexample on the line
  model_space   finite Blaschke model spaces and perturbed Clark systems
  cli           batch experiment runner and report generator
  _kernels      the vectorized kernel sums behind the scans
  errors        the exception and warning types
"""

import os

# One BLAS thread unless the caller sets one: the matrices are small, and a
# cold OpenBLAS thread pool stalls the first products and eigensolves.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._kernels import ACTIVE_BACKEND  # noqa: E402  (numpy loads after the setting)

__version__ = "0.1.0"

__all__ = ["ACTIVE_BACKEND", "__version__"]
