"""An iterate's certification inputs, formed as ``certify_iterate`` forms
them: the flux A grad v and the energy error of v."""

import numpy as np

from ddmcert.majorant import energy_error
from ddmcert.problem import exact_grad_moments, mat_vec


def a_grad(v, A):
    """The flux A grad v of the P1 field v, one row per triangle (T, 2)."""
    g = v.gradient()
    return np.stack(mat_vec(A, g[:, 0], g[:, 1]), axis=1)


def error_of(v, problem):
    """The energy error of v against the problem's exact solution."""
    return energy_error(v.mesh, problem.A, v.gradient(),
                        *exact_grad_moments(v.mesh, problem))
