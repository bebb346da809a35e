import decimal
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from scipy import integrate, optimize

import oracles
from lbrc.errors import ConfigError
from lbrc.truth import _GAMMA2_BLOCK, ExponentialModel, WeibullModel, _brentq, make_model

MODELS = [
    ExponentialModel(censor_rate=0.5, rate=1.0),
    ExponentialModel(censor_rate=None, rate=2.0),
    ExponentialModel(censor_rate=1.5, rate=0.7),
    WeibullModel(censor_rate=0.5, shape=1.5, scale=1.0),
    WeibullModel(censor_rate=None, shape=2.0, scale=1.3),
]

GRID_Q = np.linspace(0.05, 0.9, 20)


def quad(fn, lo, hi):
    val, _ = integrate.quad(fn, lo, hi, limit=300)
    return val


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_entry_density_integrates_to_one(model):
    # the entry delay has density S(u) / mu
    total = quad(lambda u: model.survival(u) / model.mu, 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_entry_survival_matches_defining_integral(model):
    for t in model.quantile(GRID_Q):
        direct = quad(lambda u: model.survival(u), t, np.inf) / model.mu
        assert model.entry_survival(t) == pytest.approx(direct, abs=1e-8)


@pytest.mark.parametrize("shape", [0.7, 1.5])
def test_weibull_entry_cdf_matches_mpmath_at_small_times(shape):
    # the lower incomplete gamma itself: 1 - S_A loses up to 3.6e-8 of the
    # entry CDF at t = 1e-9 to cancellation
    mp = pytest.importorskip("mpmath")
    model = WeibullModel(censor_rate=0.5, shape=shape)
    f_a = oracles.mpmath_population(model)[0]
    times = [1e-9, 1e-6, 1e-3, model.default_grid().b]
    with mp.workdps(30):
        want = np.array([float(f_a(mp.mpf(t))) for t in times])
    got = model.entry_cdf(np.array(times))
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    # every reader of the entry CDF sees it: the table terms and exit_cdf
    assert np.array_equal(model.entry_terms(np.array(times))[1], got)
    assert model.exit_cdf(1e-9) == got[0] - model.risk(1e-9)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_cumhaz_is_neg_log_survival(model):
    t = model.quantile(GRID_Q)
    assert np.allclose(model.cumhaz(t), -np.log(model.survival(t)), atol=1e-10)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_risk_matches_defining_probability(model):
    # P(A <= t <= Y): integrate the joint density of (A, V) with the
    # censoring clock surviving past t - a
    lc = model.censor_rate
    for t in model.quantile(np.linspace(0.1, 0.85, 6)):
        def inner(aa):
            keep = model.survival(t)  # integral of f(a+v) over v >= t-a
            cens = 1.0 if lc is None else np.exp(-lc * (t - aa))
            return keep / model.mu * cens

        direct = quad(inner, 0, t)
        assert model.risk(t) == pytest.approx(direct, abs=1e-8)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_event_subdist_matches_quadrature(model):
    # an event exits at u when the lifetime ends at u after an entry delay
    # a < u, and the censoring clock outlasts the residual u - a
    lc = model.censor_rate
    for u in model.quantile(np.linspace(0.1, 0.9, 8)):
        def joint(aa):
            clock = 1.0 if lc is None else np.exp(-lc * (u - aa))
            return model.density(u) / model.mu * clock

        direct = quad(joint, 0, u)
        assert model.event_subdist_density(u) == pytest.approx(direct, abs=1e-8)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_pooled_at_risk_identity(model):
    # pooled at-risk = entry survival * (1 + censor survival), because the
    # entry delay and the residual share a marginal and the clock is free
    t = model.quantile(GRID_Q)
    lhs = model.pooled_at_risk(t)
    rhs = model.entry_survival(t) * (1.0 + model.censor_survival(t))
    assert np.allclose(lhs, rhs, atol=1e-12)
    for tt in model.quantile(np.linspace(0.1, 0.9, 6)):
        # the residual survives past tt iff both the residual lifetime and
        # the independent clock do; the residual shares the entry marginal
        marginal_tail = quad(lambda u: model.survival(u) / model.mu, tt, np.inf)
        clock = 1.0 if model.censor_rate is None else np.exp(-model.censor_rate * tt)
        direct = marginal_tail + marginal_tail * clock
        assert model.pooled_at_risk(tt) == pytest.approx(direct, abs=1e-8)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_pooled_cdf_matches_quadrature(model):
    # the pooled jumps are the entry delays and the uncensored residuals,
    # whose subdistribution density is S(u) S_C(u) / mu
    for t in model.quantile(np.linspace(0.1, 0.9, 6)):
        residual_events = quad(
            lambda u: model.survival(u) * model.censor_survival(u) / model.mu, 0, t
        )
        direct = quad(model.pooled_density, 0, t)
        assert model.entry_cdf(t) + residual_events == pytest.approx(direct, abs=1e-8)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_exit_cdf_matches_quadrature_and_reaches_one(model):
    # a subject exits at u with an event (lifetime density f) or a censoring
    # (clock rate times lifetime survival S), after an entry delay a < u
    # whose clock outlasted u - a: the integral wc(u)
    lc = 0.0 if model.censor_rate is None else model.censor_rate

    def exit_density(u):
        return model.wc(u) * (model.density(u) + lc * model.survival(u)) / model.mu

    for t in model.quantile(np.linspace(0.1, 0.9, 6)):
        direct = quad(exit_density, 0, t)
        assert model.exit_cdf(t) == pytest.approx(direct, abs=1e-8)
    total = quad(exit_density, 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_exit_cdf_survives_small_censoring_rates():
    # the censored exit CDF tends to the uncensored one as the clock slows,
    # and keeps its digits when the clock rate is far below the event rate
    got = ExponentialModel(censor_rate=5e-13, rate=1e4).exit_cdf(5e-4)
    want = ExponentialModel(censor_rate=None, rate=1e4).exit_cdf(5e-4)
    assert want == pytest.approx(0.9595723180054871, abs=1e-15)
    assert got == pytest.approx(want, abs=1e-12)
    # at a fast event clock the censoring clock barely moves before the exit
    model = ExponentialModel(censor_rate=0.5, rate=1e12)
    assert model.exit_cdf(5 / model.rate) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize(
    "model",
    [
        *(
            ExponentialModel(censor_rate=lc, rate=rate)
            for rate in (1e-6, 1.0, 1e12, 1e300)
            for lc in (None, rate / 2)
        ),
        *(
            WeibullModel(censor_rate=lc, shape=shape, scale=scale)
            for scale in (1e-10, 1.0, 1e6)
            for shape in (0.7, 1.5, 3.0)
            for lc in (None, 0.5 / scale)
        ),
    ],
    ids=str,
)
def test_h_quantile_holds_at_every_time_scale(model):
    # the bracket and the tolerance of the root search scale with the model
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (0.5, 0.95):
            assert model.exit_cdf(model.h_quantile(q)) == pytest.approx(q, abs=1e-13)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_event_fraction_complements_censoring(model):
    events = quad(model.event_subdist_density, 0, np.inf)
    # a residual V with density S(v) / mu is censored when the clock rings first
    censored = quad(
        lambda v: model.survival(v) / model.mu * (1.0 - model.censor_survival(v)), 0, np.inf
    )
    assert events + censored == pytest.approx(1.0, abs=1e-8)
    assert 0 < events <= 1


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_risk_vanishes_at_origin(model):
    small = np.array([1e-9, 1e-6, 1e-3])
    vals = model.risk(small)
    assert np.all(np.diff(vals) > 0)
    assert vals[0] < 1e-6


@pytest.mark.parametrize("model", [
    ExponentialModel(rate=1.0),
    ExponentialModel(censor_rate=0.5, rate=1.0),
    WeibullModel(shape=0.7),
    WeibullModel(shape=1.5),
], ids=str)
def test_influence_weight_at_origin_is_the_array_value(model):
    # wc is 0 at the origin: a scalar gets the value of a one-element array,
    # inf over a positive density and nan over a zero one, and neither form
    # warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = model.influence_weight(0.0)
        array = model.influence_weight(np.array([0.0]))
    assert type(scalar) is float and array.shape == (1,)
    assert np.array_equal(scalar, array[0], equal_nan=True)
    assert scalar == np.inf if model.density(0.0) > 0 else np.isnan(scalar)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_hazard_identity_event_density_over_risk(model):
    # the defining identity: event-subdistribution density over risk equals
    # the plain lifetime hazard
    t = model.quantile(GRID_Q)
    lhs = model.event_subdist_density(t) / model.risk(t)
    rhs = model.density(t) / model.survival(t)
    assert np.allclose(lhs, rhs, rtol=1e-10)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_h_quantile_inverts_exit_cdf(model):
    for q in (0.5, 0.9, 0.95):
        t = model.h_quantile(q)
        assert model.exit_cdf(t) == pytest.approx(q, abs=1e-9)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_mean_exit_time(model):
    direct = quad(lambda u: 1.0 - model.exit_cdf(u), 0, model.lb_quantile(1 - 1e-10))
    # E[entry delay] + E[observed residual], both from their tails
    want = quad(
        lambda u: model.entry_survival(u) * (1.0 + model.censor_survival(u)), 0, np.inf
    )
    assert want == pytest.approx(direct, abs=1e-6)


def test_lb_quantile_round_trip():
    model = ExponentialModel(censor_rate=None, rate=1.0)
    # length-biased CDF of the exponential is the shape-2 gamma CDF
    from scipy import special

    p = np.linspace(0.05, 0.95, 10)
    t = model.lb_quantile(p)
    assert np.allclose(special.gammainc(2.0, t), p, atol=1e-12)


def test_default_grid():
    model = ExponentialModel(censor_rate=0.5, rate=1.0)
    grid = model.default_grid()
    assert grid.points.size == 25
    assert grid.points[0] == pytest.approx(model.quantile(0.10))
    assert grid.b == pytest.approx(model.quantile(0.90))


def test_make_model_validation():
    assert isinstance(make_model("exponential", rate=2.0), ExponentialModel)
    assert isinstance(make_model("weibull", shape=2.0, scale=1.0), WeibullModel)
    with pytest.raises(ConfigError, match=r"^family must be exponential or weibull, got 'gamma'$"):
        make_model("gamma")
    with pytest.raises(ConfigError):
        make_model("exponential", rate=-1.0)
    with pytest.raises(ConfigError, match=r"^key shape is not valid for family=exponential$"):
        make_model("exponential", shape=2.0)
    with pytest.raises(ConfigError, match=r"^key rate is not valid for family=weibull$"):
        make_model("weibull", rate=2.0)
    with pytest.raises(ConfigError):
        make_model("weibull", shape=0.0)
    with pytest.raises(ConfigError):
        ExponentialModel(censor_rate=-0.5, rate=1.0)


def test_make_model_omitted_parameters_take_the_defaults():
    assert make_model("exponential") == ExponentialModel(censor_rate=None, rate=1.0)
    assert make_model("weibull") == WeibullModel(censor_rate=None, shape=1.5, scale=1.0)
    assert make_model(" Weibull ", 0.5, shape=2) == WeibullModel(
        censor_rate=0.5, shape=2.0, scale=1.0
    )


def test_zero_censor_rate_normalizes_to_none():
    model = ExponentialModel(censor_rate=0.0, rate=1.0)
    assert model.censor_rate is None


def test_built_tables_leave_equality_and_hash_alone():
    model = WeibullModel(censor_rate=0.5, shape=1.5, scale=1.0)
    model.exit_cdf(0.5)
    fresh = WeibullModel(censor_rate=0.5, shape=1.5, scale=1.0)
    assert model == fresh
    assert hash(model) == hash(fresh)


def _with_reference(cls, ref, **params):
    return cls(**params), ref(**params)


# (model, closed-form reference) pairs: the families derive their lifetime
# functions from the cumulative hazard, the references write each one out
CLOSED_FORM = [
    *(
        _with_reference(ExponentialModel, oracles.ClosedFormExponential, censor_rate=lc, rate=rate)
        for rate in (1.0, 0.3, 7.0, 2.0**-40)
        for lc in (None, 0.5)
    ),
    *(
        _with_reference(
            WeibullModel, oracles.ClosedFormWeibull, censor_rate=lc, shape=shape, scale=scale
        )
        for shape in (0.7, 1.0, 1.5, 2.5)
        for scale in (1.0, 3.3)
        for lc in (None, 0.5)
    ),
]
OF_TIME = [
    "survival", "density", "cdf", "cumhaz", "entry_survival", "entry_cdf", "entry_cumhaz",
    "censor_survival", "wc", "risk", "pooled_at_risk", "pooled_density",
    "event_subdist_density", "influence_weight", "exit_cdf",
]
OF_LEVEL = ["quantile", "lb_quantile"]
LEVELS = np.array([0.0, 1e-300, 1e-16, 1e-9, 0.01, 0.1, 0.5, 0.9, 0.999, 1 - 2**-53, 1.0])


@pytest.mark.parametrize("model, ref", CLOSED_FORM, ids=[str(m) for m, _ in CLOSED_FORM])
def test_lifetime_functions_match_closed_forms_bit_for_bit(model, ref):
    unit = float(ref.quantile(0.5))
    t = unit * np.array([-3.0, -1.0, -1e-9, 0.0, 1e-300, 1e-12, 1e-6, 0.01, 0.3, 1.0, 2.5,
                         7.0, 40.0, 1e3, 1e6, np.inf])
    # the exponential lb_quantile solves its Gamma(2) equation in numpy, closer
    # to the root than the reference's gammaincinv and so not bit for bit
    # with it: test_exponential_lb_quantile_near_gammaincinv holds the two
    of_level = ["quantile"] if isinstance(model, ExponentialModel) else OF_LEVEL
    with np.errstate(all="ignore"):
        for name, x in [*((n, t) for n in OF_TIME), *((n, LEVELS) for n in of_level)]:
            # the array, each entry as a Python float, and one as a numpy scalar
            for arg in (x, *x.tolist(), x[5]):
                got, want = (getattr(m, name)(arg) for m in (model, ref))
                assert type(got) is type(want), (name, arg)
                assert np.array_equal(got, want, equal_nan=True), (name, arg)
        assert type(model.survival(1)) is float
        for got, want in zip(model.entry_terms(t), ref.entry_terms(t)):
            assert np.array_equal(got, want, equal_nan=True)
    assert model.mu == ref.mu
    assert model.h_quantile(0.9) == ref.h_quantile(0.9)
    assert np.array_equal(model.default_grid(8).points, ref.default_grid(8).points)


@pytest.mark.parametrize(
    "model, ref",
    [pair for pair in CLOSED_FORM if isinstance(pair[0], ExponentialModel)],
    ids=[str(m) for m, _ in CLOSED_FORM if isinstance(m, ExponentialModel)],
)
def test_exponential_lb_quantile_near_gammaincinv(model, ref):
    # within 32 units of 2^-53 of gammaincinv, itself up to 30 off the root on
    # (2^-53, 1); at p = 1e-300 gammaincinv is 141 off, and there the bound
    # holds against the stored mpmath root
    root = float(oracles.GAMMA2_REFERENCE[1e-300]) / model.rate
    with np.errstate(all="ignore"):
        for arg in (LEVELS, *LEVELS.tolist(), LEVELS[5]):
            got, want = model.lb_quantile(arg), ref.lb_quantile(arg)
            assert type(got) is type(want), arg
            want = np.where(np.equal(arg, 1e-300), root, want)
            exact = ~np.isfinite(want) | (want == 0)
            assert np.array_equal(np.where(exact, got, 0), np.where(exact, want, 0)), arg
            diff = np.abs(np.where(exact, 0.0, got - want))
            assert np.all(diff <= 32 * 2.0**-53 * np.where(exact, 0.0, want)), arg


class TestGamma2Quantile:
    """The exponential ``lb_quantile``, ``_gamma2_quantile / rate``, against
    40-digit mpmath roots stored by ``oracles.gamma2_reference_literals``."""

    MODEL = ExponentialModel(rate=1.0)

    def test_within_four_units_of_the_mpmath_root(self):
        levels = np.array(list(oracles.GAMMA2_REFERENCE))
        got = self.MODEL.lb_quantile(levels)
        with decimal.localcontext(prec=50):
            err = [
                abs(Decimal(x) / Decimal(oracles.GAMMA2_REFERENCE[p]) - 1) / Decimal(2.0**-53)
                for p, x in zip(levels.tolist(), got.tolist())
            ]
        # gammaincinv misses this bound: it is 141 units off at p = 1e-300
        assert max(err) <= 4, levels[np.argmax(err)]

    def test_a_stored_value_recomputed(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            root = oracles.mpmath_gamma2_quantile(0.95)
            assert mp.nstr(root, 40) == oracles.GAMMA2_REFERENCE[0.95]

    @pytest.mark.parametrize(
        "p, want", [(0.0, 0.0), (-0.0, 0.0), (1.0, math.inf), (math.nan, math.nan),
                    (-1e-300, math.nan), (-0.5, math.nan), (1 + 2**-52, math.nan),
                    (2.0, math.nan), (-math.inf, math.nan), (math.inf, math.nan)],
    )
    def test_edge_levels_as_gammaincinv(self, p, want):
        from scipy import special

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.MODEL.lb_quantile(p)
            array = self.MODEL.lb_quantile(np.array([p, 0.5]))
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert want != 0 or math.copysign(1, got) == 1
        assert np.array_equal(array[:1], [want], equal_nan=True)
        assert np.array_equal([got], [special.gammaincinv(2.0, p)], equal_nan=True)

    def test_blocks_give_the_values_of_small_calls(self):
        # past _GAMMA2_BLOCK levels the quantile runs block by block, in any shape
        p = np.random.default_rng(4).random((3, _GAMMA2_BLOCK - 5))
        p[1, 7], p[2, 9] = 1.0, np.nan
        pieces = [self.MODEL.lb_quantile(row[i:i + 1000]) for row in p
                  for i in range(0, row.size, 1000)]
        got = self.MODEL.lb_quantile(p)
        assert got.shape == p.shape
        assert np.array_equal(got.ravel(), np.concatenate(pieces), equal_nan=True)

    def test_float_in_float_out_and_scaled_by_the_rate(self):
        p = np.array(list(oracles.GAMMA2_REFERENCE))
        unit = self.MODEL.lb_quantile(p)
        assert unit.dtype == np.float64 and unit.shape == p.shape
        for arg in (0.5, np.float64(0.5), np.array(0.5), 1, np.float32(0.5)):
            assert type(self.MODEL.lb_quantile(arg)) is float
        assert type(self.MODEL.lb_quantile([0.5])) is np.ndarray
        # 2^-40 scales by an exact power of two; 7 is one rounded division
        assert np.array_equal(ExponentialModel(rate=2.0**-40).lb_quantile(p), unit * 2.0**40)
        assert np.array_equal(ExponentialModel(rate=7.0).lb_quantile(p), unit / 7.0)
        assert [ExponentialModel(rate=7.0).lb_quantile(x) for x in p.tolist()] == (
            unit / 7.0).tolist()


# h_quantile's root, pinned bit for bit to scipy's brentq on the bracket and
# tolerance that h_quantile uses, at rates and scales far from 1
BRENT_MODELS = [
    *(
        ExponentialModel(censor_rate=lc, rate=rate)
        for rate in (1.0, 7.0, 2.0**-40, 1e10, 1e-200, 1e300)
        for lc in (None, rate / 2)
    ),
    *(
        WeibullModel(censor_rate=lc, shape=shape, scale=scale)
        for shape in (0.7, 1.5, 5.0)
        for scale in (1.0, 1e-6, 1e8)
        for lc in (None, 0.5 / scale)
    ),
]


@pytest.mark.parametrize("model", BRENT_MODELS, ids=str)
def test_h_quantile_root_is_scipy_brentq_bit_for_bit(model):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (0.001, 0.5, 0.95, 0.999999):
            hi = 2.0 * float(model.lb_quantile(q))
            want = optimize.brentq(lambda t: model.exit_cdf(t) - q, 0.0, hi, xtol=1e-14 * hi)
            assert model.h_quantile(q) == want, q


# toy functions for each branch of the port; scipy is the reference
BRENT_TOYS = {
    "root at the left end": (lambda x: x, 0.0, 1.0),
    "root at the right end": (lambda x: x - 1.0, 0.0, 1.0),
    "negative zero at an end": (lambda x: -0.0 if x == 0 else x, 0.0, 1.0),
    "smooth": (lambda x: math.expm1(x) - 1e-3, -50.0, 3.0),
    "decreasing": (lambda x: 0.2 - x**3, 0.0, 1.0),
    "flat on the left": (lambda x: max(x - 0.7, -0.25), 0.0, 1.0),
    "flat on both sides": (lambda x: min(max(x - 0.6, -0.1), 0.05), 0.0, 1.0),
    "staircase": (lambda x: math.floor(8 * x) / 8 - 0.4, 0.0, 1.0),
    # slopes near 1e-200: the extrapolation's product of two slopes
    # underflows to 0, where Python raises and C gets an inf step it refuses
    "nearly flat": (lambda x: 1e-200 * (x**3 - 0.2), 0.0, 1.0),
    "nearly flat, decreasing": (lambda x: -1e-200 * (x**3 - 0.2), 0.0, 1.0),
    "nearly flat, wide": (lambda x: (x * 1e-200) ** 3 - 0.2, 0.0, 1e200),
    "steep": (lambda x: 1e300 * (x**3 - 0.2), 0.0, 1.0),
}


@pytest.mark.parametrize("f, lo, hi", BRENT_TOYS.values(), ids=BRENT_TOYS)
@pytest.mark.parametrize("xtol", [2e-12, 1e-300, 5e-324])
def test_brentq_matches_scipy_bit_for_bit(f, lo, hi, xtol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = optimize.brentq(f, lo, hi, xtol=xtol)
        got = _brentq(f, lo, hi, xtol)
    assert type(got) is float
    assert got == want and math.copysign(1, got) == math.copysign(1, want)


@pytest.mark.parametrize(
    "f, lo, hi, xtol, error",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0, 2e-12, ValueError),  # ends of one sign
        (lambda x: -(x * x) - 1.0, -1.0, 1.0, 2e-12, ValueError),
        (lambda x: 1e-200 * (x * x + 1.0), -1.0, 1.0, 2e-12, ValueError),  # f(a) f(b) underflows
        (lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, 2e-12, ValueError),  # NaN at an end
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, 2e-12, ValueError),
        (lambda x: x - 0.5, 0.0, 1.0, 0.0, ValueError),  # xtol <= 0
        # a jump at 1/3 from a bracket of width 2e30 needs some 140 halvings
        (lambda x: -1.0 if x < 1 / 3 else 1.0, -1e30, 1e30, 2e-12, RuntimeError),
        (lambda x: math.exp(-x) - 0.5, 0.0, 1e200, 5e-324, RuntimeError),
    ],
)
def test_brentq_raises_where_scipy_does(f, lo, hi, xtol, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            optimize.brentq(f, lo, hi, xtol=xtol)
        with pytest.raises(error):
            _brentq(f, lo, hi, xtol)
