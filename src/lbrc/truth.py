"""Analytic population models for stationary length-biased sampling.

Each lifetime family is given by its cumulative hazard Λ, its hazard h and
the inverse of Λ; ``TruthModel`` derives the survival ``exp(-Λ)``, the CDF
``-expm1(-Λ)``, the density ``h exp(-Λ)`` and the quantile
``Λ⁻¹(-log1p(-p))`` from them, once for every family.

Under a constant disease-onset rate, the sampled subject's lifetime is a
length-biased draw from the underlying lifetime distribution, the entry delay
is uniform on (0, lifetime), and the entry delay and the residual lifetime
share the marginal density ``S(t)/mu``.  Residual censoring is an independent
exponential clock.  Everything the simulation harness and the influence
oracle need follows in closed form:

* ``risk(t) = S(t) * wc(t) / mu``            (probability of being under
  observation and event-free at t, with ``wc`` the censoring-survival
  integral, reducing to ``t`` when there is no censoring)
* ``pooled_at_risk(t) = entry_survival(t) * (1 + censor_survival(t))``
* ``event_subdist_density(u) = f(u) * wc(u) / mu``

so that ``event_subdist_density / risk = f / S``, the plain hazard, which is
the identity everything else leans on.  At time t a sampled subject has
either not entered yet or is still at risk, so the observed exit time has
``P(Y > t) = S_A(t) + r(t)`` and ``exit_cdf = entry_cdf - risk`` for every
family.

Every elementwise function takes a scalar or an array and returns a float for
a scalar.  Every exponential function is closed form, the length-biased
quantile (``_gamma2_quantile``) included, so an exponential model loads no
scipy.  The Weibull methods import ``scipy.special`` inside, so importing this
module, and the package, loads none.  No code loads ``scipy.optimize``: the
rate experiment's window check reads ``exit_cdf`` at the window end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError
from .stepfun import EvalGrid

__all__ = ["TruthModel", "ExponentialModel", "WeibullModel", "FAMILIES", "make_model"]


# 1/(2k + 3), k = 14 ... 0: (atanh(s) - s)/s³ to below 2^-54 for s < 1/3
_ATANH_TAIL = tuple(1.0 / (2 * k + 3) for k in range(14, -1, -1))
# levels per block: the quantile's temporaries stay small and in cache
_GAMMA2_BLOCK = 8192


def _gamma2_quantile(p):
    """The Gamma(2) quantile: the root x of h(x) = x - log1p(x) = L, L = -log1p(-p).

    Gamma(2) survives x with probability (1 + x)e^-x.  From the start z + z²/3
    + z³/36, z = √(2L), for L < 1, else L + log1p(L + log1p(L)), two Halley
    steps and one Newton step; where x < 1 its residual is h = s(x - 2s²Σ
    s^2k/(2k+3)), s = x/(2+x), which does not cancel.  Below L = 2^-40 the
    start is already the rounded root, which the steps would spoil.  Within
    2.3·2^-53 relative of mpmath roots; p = 0 gives 0, p = 1 inf, and NaN or p
    outside [0, 1] NaN, as ``gammaincinv(2, p)`` does.
    """
    if p.size > _GAMMA2_BLOCK:
        out = np.empty(p.shape)
        for lo in range(0, p.size, _GAMMA2_BLOCK):
            out.flat[lo:lo + _GAMMA2_BLOCK] = _gamma2_quantile(p.flat[lo:lo + _GAMMA2_BLOCK])
        return out
    with np.errstate(divide="ignore", invalid="ignore"):
        level = -np.log1p(-p)
        z = np.sqrt(2.0 * level)
        start = np.where(level < 1, z + z * z * (1.0 / 3.0 + z / 36.0),
                         level + np.log1p(level + np.log1p(level)))
        x = start.copy()
        for _ in range(2):
            step = (x - np.log1p(x) - level) * (1.0 + x) / x
            x -= step / (1.0 - step / (2.0 * x * (1.0 + x)))
        big, small = x >= 1, x < 1
        xs = x[big]
        x[big] = xs - (xs - np.log1p(xs) - level[big]) * (1.0 + xs) / xs
        xs = x[small]
        s = xs / (2.0 + xs)
        h = s * (xs - 2.0 * s * s * np.polyval(_ATANH_TAIL, s * s))
        x[small] = xs - (h - level[small]) * (1.0 + xs) / xs
        return np.where((2.0**-40 <= level) & (level < np.inf), x, start)


def _elementwise(method):
    """A method of one argument, given it as a float array; a 0-d result
    comes back as a Python float."""

    @functools.wraps(method)
    def wrapped(self, t):
        out = method(self, np.asarray(t, dtype=float))
        return float(out) if out.ndim == 0 else out

    return wrapped


@dataclass(frozen=True)
class TruthModel:
    """Shared machinery for a lifetime family with exponential censoring.

    A family supplies its fields and their validation, and:

    * ``mu``, the mean lifetime;
    * ``cumhaz(t)``, the cumulative hazard Λ;
    * ``_hazard(t)``, the hazard h, which is 0 off the support;
    * ``_inverse_cumhaz(x)``, Λ⁻¹;
    * ``lb_quantile(p)``, the quantile of the length-biased lifetime;
    * ``entry_survival(t)``, the survival S_A of the entry delay, and
      ``entry_cdf(t)``, its CDF, each in a form that does not cancel;
    * ``_time_fields(unit)``, its time parameter in ``unit``s.
    """

    censor_rate: float | None = None

    def __post_init__(self):
        lc = self.censor_rate
        if lc is not None:
            lc = float(lc)
            if not math.isfinite(lc) or lc < 0:
                raise ConfigError(f"censor rate must be finite and >= 0, got {lc}")
            if lc == 0.0:
                lc = None
            object.__setattr__(self, "censor_rate", lc)

    def in_units(self, unit: float) -> TruthModel:
        """The same population with time counted in ``unit``: each rate
        times ``unit``, each scale over it.  For a power of two, each
        function at t is this one's at ``t * unit`` (a density times
        ``unit``), bit for bit, while its values stay normal floats."""
        lc = None if self.censor_rate is None else self.censor_rate * unit
        return replace(self, censor_rate=lc, **self._time_fields(unit))

    # -- the lifetime functions, from the family's cumulative hazard ------
    @_elementwise
    def survival(self, t):
        return np.exp(-self.cumhaz(t))

    @_elementwise
    def cdf(self, t):
        return -np.expm1(-self.cumhaz(t))

    @_elementwise
    def density(self, t):
        # 0 where h is, whether or not Λ is defined there (a Weibull Λ is
        # NaN below 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = self._hazard(t)
            return np.where(h > 0, h * np.exp(-self.cumhaz(t)), 0.0)

    @_elementwise
    def quantile(self, p):
        return self._inverse_cumhaz(-np.log1p(-p))

    # -- generic population functions ------------------------------------
    def entry_terms(self, t):
        """``entry_survival``, ``entry_cdf`` and ``pooled_at_risk`` at t, from
        one evaluation of the entry survival."""
        s_a = self.entry_survival(t)
        return s_a, self.entry_cdf(t), self._pooled_at_risk_given(t, s_a)

    @_elementwise
    def entry_cumhaz(self, t):
        with np.errstate(divide="ignore"):
            return -np.log(self.entry_survival(t))

    @_elementwise
    def censor_survival(self, t):
        if self.censor_rate is None:
            return np.ones_like(t)
        return np.exp(-self.censor_rate * t)

    @_elementwise
    def wc(self, t):
        """Integral of censoring survival over (0, t); equals t uncensored."""
        if self.censor_rate is None:
            return t.astype(float)
        return -np.expm1(-self.censor_rate * t) / self.censor_rate

    def risk(self, t):
        return self.survival(t) * self.wc(t) / self.mu

    def pooled_at_risk(self, t):
        return self._pooled_at_risk_given(t, self.entry_survival(t))

    def _pooled_at_risk_given(self, t, s_a):
        return s_a * (1.0 + self.censor_survival(t))

    def pooled_density(self, t):
        return self.survival(t) * (1.0 + self.censor_survival(t)) / self.mu

    def event_subdist_density(self, u):
        return self.density(u) * self.wc(u) / self.mu

    @_elementwise
    def influence_weight(self, u):
        """Event-subdistribution density over squared risk.

        At 0, where ``wc`` is 0, the weight is inf, or nan where the density
        is 0 too, with no warning, for a scalar as for an array; the density
        is taken as an array so that a scalar divides by zero as numpy does.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.mu * np.asarray(self.density(u)) / (self.survival(u) ** 2 * self.wc(u))

    def exit_cdf(self, t):
        """CDF of the observed exit time ``Y = A + V``."""
        return self.entry_cdf(t) - self.risk(t)

    def default_grid(self, count: int = 25, lo: float = 0.10, hi: float = 0.90) -> EvalGrid:
        """Equispaced lifetime-CDF quantiles; stays inside the usable window."""
        pts = self.quantile(np.linspace(lo, hi, count))
        return EvalGrid(pts, float(pts[-1]))


@dataclass(frozen=True)
class ExponentialModel(TruthModel):
    """Exponential lifetimes; every function is closed-form, ``lb_quantile`` too."""

    rate: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.rate) or self.rate <= 0:
            raise ConfigError(f"rate must be finite and > 0, got {self.rate}")

    @property
    def mu(self) -> float:
        return 1.0 / self.rate

    def _time_fields(self, unit):
        return {"rate": self.rate * unit}

    @_elementwise
    def cumhaz(self, t):
        return self.rate * t

    def _hazard(self, t):
        return self.rate

    def _inverse_cumhaz(self, x):
        return x / self.rate

    @_elementwise
    def lb_quantile(self, p):
        return _gamma2_quantile(p) / self.rate

    # the entry delay of an exponential lifetime is again exponential
    def entry_survival(self, t):
        return self.survival(t)

    def entry_cdf(self, t):
        return self.cdf(t)

    def entry_cumhaz(self, t):
        return self.cumhaz(t)


@dataclass(frozen=True)
class WeibullModel(TruthModel):
    """Weibull lifetimes; the entry survival is an incomplete gamma function."""

    shape: float = 1.5
    scale: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.shape) or self.shape <= 0:
            raise ConfigError(f"shape must be finite and > 0, got {self.shape}")
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise ConfigError(f"scale must be finite and > 0, got {self.scale}")

    @property
    def mu(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def _time_fields(self, unit):
        return {"scale": self.scale / unit}

    @_elementwise
    def cumhaz(self, t):
        return (t / self.scale) ** self.shape

    def _hazard(self, t):
        k, th = self.shape, self.scale
        return np.where(t > 0, (k / th) * (t / th) ** (k - 1.0), 0.0)

    def _inverse_cumhaz(self, x):
        return self.scale * x ** (1.0 / self.shape)

    @_elementwise
    def lb_quantile(self, p):
        from scipy import special

        return self.scale * special.gammaincinv(1.0 + 1.0 / self.shape, p) ** (1.0 / self.shape)

    @_elementwise
    def entry_survival(self, t):
        from scipy import special

        return special.gammaincc(1.0 / self.shape, self.cumhaz(t))

    @_elementwise
    def entry_cdf(self, t):
        from scipy import special

        # not 1 - S_A, which cancels to 3.6e-8 relative at t = 1e-9
        return special.gammainc(1.0 / self.shape, self.cumhaz(t))


FAMILIES = {"exponential": ExponentialModel, "weibull": WeibullModel}


def make_model(family: str, censor_rate=None, **params) -> TruthModel:
    """Build a truth model by family name; an omitted parameter keeps its default."""
    family = str(family).strip().lower()
    if family not in FAMILIES:
        raise ConfigError(f"family must be {' or '.join(FAMILIES)}, got {family!r}")
    cls = FAMILIES[family]
    names = {f.name for f in fields(cls)}
    for key in params:
        if key not in names:
            raise ConfigError(f"key {key} is not valid for family={family}")
    return cls(censor_rate=censor_rate, **{k: float(v) for k, v in params.items()})
