"""The built-in worlds e, pi and Gamma, each a holonomic triangle as data.

A world has a P-recursive sequence, an additive functional equation and
a differential equation, the last derived from the recurrence by
:mod:`certify`; the connection constant of the sequence against
its shell is the world's function (f, g or Gamma).  :func:`table` reads
every function from its module at each call, not at import, so a caller
gets whatever stands under that name then (a test's replacement, a
tracer's wrapper).  Nothing outside this module branches on a world name.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from fractions import Fraction

from . import agf, complexfn, exact, holonomic
from .connection import F_SHELL, G_SHELL, GAMMA_SHELL, AsymptoticShell

__all__ = ["World", "functions", "table", "world"]

DUALITY_CFG = complexfn.extended(40)  # the precision of h in every duality residual


@dataclasses.dataclass(frozen=True)
class World:
    """u_n of ``recurrence(z)`` over ``shell`` tends to ``evaluator(z, cfg)``.
    ``spec`` and ``pole_distance`` are the AFE and pole row of f and g.
    The ODE of the generating series of ``recurrence(v)``, derived and
    certified by :func:`certify.ode_series_check_recurrence`, is checked at
    each value v of ``ode_values`` of the parameter ``ode_param``.
    ``forms(m_max)`` are the duality forms x - c y, c the mpmath constant
    named ``constant``."""

    name: str
    recurrence: Callable
    shell: AsymptoticShell
    evaluator: Callable
    spec: agf.AGFSpec | None
    pole_distance: Callable | None
    ode_param: str
    ode_values: tuple
    constant: str | None
    forms: Callable | None

    def duality_residuals(self, m_max: int) -> list[tuple]:
        """(form, K_m, |(-1)^m h(m)/h(0) - K_m| / |K_m|) for m = 0..m_max,
        the last two as floats, h the evaluator at ``DUALITY_CFG``.  K_m =
        x - c y, where x and c y cancel in all but a few digits, is computed
        here only, in a private context 50 digits wider than the largest x."""
        forms = self.forms(m_max)
        top = int(max(dataclasses.astuple(form)[1] for form in forms))
        ctx = complexfn._mp_context(50 + math.ceil(top.bit_length() * math.log10(2)))
        h, const = self.evaluator, getattr(ctx, self.constant)
        hs = [h(m, DUALITY_CFG) for m in range(m_max + 1)]
        rows = []
        for m, (form, hm) in enumerate(zip(forms, hs)):
            _, x, y = dataclasses.astuple(form)
            value = ctx.convert(x) - const * ctx.convert(y)
            lhs = ctx.convert((-1) ** m * hm / hs[0])
            rows.append((form, float(value), float(abs(lhs - value) / abs(value))))
        return rows


# the parameters at which each world's ODE is certified: m = 0..8 for the
# mirrors, z = m + 1/2 for Gamma
_MS = tuple(range(9))
_GAMMA_ODE_VALUES = tuple(Fraction(2 * m + 1, 2) for m in _MS)


def table() -> dict[str, World]:
    """The worlds by name, built from what their modules hold now."""
    return {w.name: w for w in (
        World("e", holonomic.mirror_e, F_SHELL, agf.f_eval, agf.f_spec(),
              agf.f_pole_distance, "m", _MS, "e", exact.duality_forms_e),
        World("pi", holonomic.mirror_pi, G_SHELL, agf.g_eval, agf.g_spec(),
              agf.g_pole_distance, "m", _MS, "pi", exact.duality_forms_pi),
        World("gamma", holonomic.gamma_recurrence, GAMMA_SHELL, complexfn.gamma,
              None, None, "z", _GAMMA_ODE_VALUES, None, None))}


def world(name: str) -> World:
    """The world called ``name``; ValueError if there is none."""
    worlds = table()
    if name not in worlds:
        raise ValueError(f"unknown world {name!r}, not one of {', '.join(worlds)}")
    return worlds[name]


def functions() -> dict[str, World]:
    """The worlds with an additive Gamma function, by its name (f, g)."""
    return {w.spec.name: w for w in table().values() if w.spec}
