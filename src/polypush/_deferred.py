"""scipy.optimize entry points that import scipy on their first call.

Importing scipy.optimize takes more than twice as long as the rest of
``import polypush`` (numpy included), and the CLI commands ``generate``,
``sample``, ``moments`` and ``verify`` never call it.  The modules
that do bind these names at top level (``from ._deferred import
least_squares``) and call them by that global name, so a wrapper set on,
say, ``tensor_ring.least_squares`` sees every call.
"""


def least_squares(*args, **kwargs):
    from scipy.optimize import least_squares

    return least_squares(*args, **kwargs)


def minimize(*args, **kwargs):
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


def minimize_scalar(*args, **kwargs):
    from scipy.optimize import minimize_scalar

    return minimize_scalar(*args, **kwargs)


def linear_sum_assignment(*args, **kwargs):
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(*args, **kwargs)
