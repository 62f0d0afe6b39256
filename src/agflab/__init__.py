"""agf-lab: additive Gamma functions from mirror recurrences.

Exact P-recursive sequence evaluation, connection-constant extraction by
extrapolation, explicit evaluation of the order-2 additive Gamma
functions f and g in the complex plane, functional-equation and
arithmetic-duality verification, the integer slope decision procedure,
and exact generating-function ODE certificates.

The API lives in the layers, each with its own ``__all__``:
``agflab.holonomic``, ``agflab.connection``, ``agflab.complexfn``,
``agflab.agf``, ``agflab.exact``, ``agflab.certify`` and
``agflab.worlds``, with the command line in ``agflab.cli``.  Importing
the package loads none of them.
"""

__version__ = "0.1.0"
