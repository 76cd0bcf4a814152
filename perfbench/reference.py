"""A fixed pure-Python workload that measures how fast the machine runs now.

A shared host's cores slow down and speed up by up to 3x over a few
seconds, as other tenants come and go, and a 40 s run can fall wholly in
a slow or a fast spell.  ``reference_s`` times the same arithmetic
every call: a product of two bivariate polynomials held as dicts of
exponent tuples to ``Fraction`` coefficients, the kind of work the
package's ``rational`` layer does.  A check's wall time divided by the
reference time taken around it is its time in reference units, which
moves with the program and hardly with the host's spells.  The workload
uses nothing from the package, so a change to the program cannot move it.
"""

import time
from fractions import Fraction

ROUNDS = 10  # about 50 ms on an unloaded 2-vCPU x86-64 VM

_FACTOR = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}


def reference_s() -> float:
    """Wall time of one run of the reference workload, in seconds."""
    started = time.perf_counter()
    for _ in range(ROUNDS):
        product: dict = {}
        for (a, b), c in _FACTOR.items():
            for (d, e), f in _FACTOR.items():
                key = (a + d, b + e)
                product[key] = product.get(key, 0) + c * f
    return time.perf_counter() - started
