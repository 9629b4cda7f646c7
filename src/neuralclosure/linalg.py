"""Array type shared across the package: vectors and matrices are plain
float64 numpy arrays."""

import numpy as np

Vec = np.ndarray
