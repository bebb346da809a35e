"""Cumulative tables against adaptive quadrature, plus the query contract."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from lbrc.errors import ComputeError
from lbrc.influence import _anchored_table, make_oracle_context
from lbrc.quadrature import SmoothCumulative, geometric_edges, origin_graded_edges
from lbrc.truth import ExponentialModel, WeibullModel

SCENARIOS = {
    "exponential": ExponentialModel(censor_rate=0.5, rate=1.0),
    "weibull-1.5": WeibullModel(censor_rate=0.5, shape=1.5),
}
TOL = 1e-12
ANCHOR = 1e-3


def _quad(f, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(
            lambda u: float(f(u)), lo, hi, epsabs=1e-15, epsrel=1e-14, limit=500
        )[0]


def _points(hi, panels):
    """Points in the first uniform panel, on edges, inside, and at ``hi``."""
    h = hi / panels
    return np.array([h * 1e-7, h * 3e-3, h * 0.3, h * 0.77, h, 7 * h, 0.1234567, 0.5 * hi, hi])


@pytest.fixture(scope="module", params=list(SCENARIOS))
def oracle(request):
    model = SCENARIOS[request.param]
    ctx = make_oracle_context(model, model.default_grid())
    anchored = {
        "g": _anchored_table(ctx, ANCHOR, model.influence_weight),
        "v": _anchored_table(
            ctx, ANCHOR, lambda u: model.influence_weight(u) * model.entry_survival(u)
        ),
    }
    return model, ctx, dict(zip("mpw", ctx.tables)), anchored


def _kappa(model):
    return lambda u: model.pooled_density(u) / model.pooled_at_risk(u) ** 2


class TestOracleTables:
    def test_m_and_p(self, oracle):
        model, ctx, tables, _ = oracle
        pts = _points(ctx.grid.b, 1600)
        densities = {
            "m": _kappa(model),
            "p": lambda u: model.influence_weight(u) * model.entry_cdf(u),
        }
        for name, density in densities.items():
            want = [_quad(density, 0.0, s) for s in pts]
            assert np.abs(tables[name].query(pts) - want).max() < TOL, name

    def test_w(self, oracle):
        model, ctx, tables, _ = oracle
        pts = _points(ctx.grid.b, 1600)[[1, 3, 5, 6, 8]]

        def density(u):
            return (
                model.influence_weight(u) * model.entry_survival(u)
                * _quad(_kappa(model), 0.0, u)
            )

        want = [_quad(density, 0.0, s) for s in pts]
        assert np.abs(tables["w"].query(pts) - want).max() < TOL

    def test_anchored_g_and_v(self, oracle):
        model, ctx, _, anchored = oracle
        pts = np.array([ANCHOR, 1.0007 * ANCHOR, 2 * ANCHOR, 0.3, ctx.grid.b])
        densities = {
            "g": model.influence_weight,
            "v": lambda u: model.influence_weight(u) * model.entry_survival(u),
        }
        for name, density in densities.items():
            want = [_quad(density, ANCHOR, s) for s in pts]
            assert np.abs(anchored[name].query(pts) - want).max() < TOL, name


class TestQueryContract:
    table = SmoothCumulative(lambda u: np.sqrt(u) * np.exp(-u), origin_graded_edges(3.0, 40))

    def test_edge_query_returns_stored_prefix(self):
        got = self.table.query(self.table.edges)
        assert np.array_equal(got, self.table.cum)
        assert self.table.query(self.table.hi) == self.table.cum[-1]

    @given(st.floats(1e-150, 1e150), st.floats(1e-150, 1e150), st.floats(1.01, 2.0))
    def test_geometric_edges_end_exactly_at_hi(self, x, y, ratio):
        # the last edge is hi itself, so a query at hi is inside the domain
        # at every scale; lo * (hi / lo) rounds an ulp off hi for some pairs
        lo, hi = sorted((x, y))
        if lo == hi:
            return
        edges = geometric_edges(lo, hi, ratio)
        assert edges[0] == lo and edges[-1] == hi
        assert np.all(np.diff(edges) > 0)

    def test_graded_edges(self):
        edges = origin_graded_edges(3.0, 40)
        assert edges.size == 40 + 20 + 1
        assert edges[0] == 0.0 and edges[1] == 3.0 / 40 / 2**20
        assert np.array_equal(edges[21:], np.linspace(0.0, 3.0, 41)[1:])

    @pytest.mark.parametrize("s", [-1e-9, 3.0 + 1e-9, [0.5, 3.1]])
    def test_out_of_domain_raises(self, s):
        with pytest.raises(ValueError):
            self.table.query(s)

    def test_overflowing_table_refused(self):
        # panels below the smallest normal float have infinite inverse widths
        with pytest.raises(ComputeError, match="overflow"):
            SmoothCumulative(lambda u: np.ones_like(u), origin_graded_edges(1e-300, 1600))

    def test_scalar_query_returns_float(self):
        assert type(self.table.query(1.3)) is float
        assert type(self.table.query(np.float64(0.0))) is float
        assert self.table.query([1.3]).shape == (1,)
