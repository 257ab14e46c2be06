"""scipy.optimize entry points that import scipy on their first call.

Importing scipy.optimize takes more than twice as long as the rest of
``import polypush`` (numpy included).  Two modules still call it: the r >= 3
gauge search (``minimize``, its Nelder-Mead refine) and the lower-bound lab
(a bounded ``least_squares``).  The local fits of both recoveries call the
in-repo ``_lm.least_squares`` and the r <= 2 gauge alignment is closed-form,
so ``generate``, ``sample``, ``moments``, ``verify``, the solves and ``eval``
on networks with r <= 2 never import scipy.  The modules that do bind these
names at top level (``from ._deferred import minimize``) and call them by
that global name, so a wrapper set on, say, ``gauge.minimize`` sees every
call.
"""


def least_squares(*args, **kwargs):
    from scipy.optimize import least_squares

    return least_squares(*args, **kwargs)


def minimize(*args, **kwargs):
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)

