"""Cumulative tables against adaptive quadrature, plus the query contract."""

import copy
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

import oracles

from lbrc import influence, quadrature
from lbrc.errors import ComputeError
from lbrc.influence import make_oracle_context
from lbrc.quadrature import SmoothCumulative, geometric_edges, node_points, origin_graded_edges
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
    return model, ctx, dict(zip("mpwgv", ctx.tables))


def _kappa(model):
    return lambda u: model.pooled_density(u) / model.pooled_at_risk(u) ** 2


class TestOracleTables:
    def test_m_and_p(self, oracle):
        model, ctx, tables = oracle
        pts = _points(ctx.grid.b, influence._TABLE_PANELS)
        densities = {
            "m": _kappa(model),
            "p": lambda u: model.influence_weight(u) * model.entry_cdf(u),
        }
        for name, density in densities.items():
            want = [_quad(density, 0.0, s) for s in pts]
            assert np.abs(tables[name].query(pts / ctx.unit) - want).max() < TOL, name

    def test_w(self, oracle):
        model, ctx, tables = oracle
        pts = _points(ctx.grid.b, influence._TABLE_PANELS)[[1, 3, 5, 6, 8]]

        def density(u):
            return (
                model.influence_weight(u) * model.entry_survival(u)
                * _quad(_kappa(model), 0.0, u)
            )

        want = [_quad(density, 0.0, s) for s in pts]
        assert np.abs(tables["w"].query(pts / ctx.unit) - want).max() < TOL

    def test_g_and_v_from_the_window_end(self, oracle):
        # differences from a point near the origin, read off the tables
        # anchored at the window end
        model, ctx, tables = oracle
        pts = np.array([ANCHOR, 1.0007 * ANCHOR, 2 * ANCHOR, 0.3, ctx.grid.b])
        densities = {
            "g": model.influence_weight,
            "v": lambda u: model.influence_weight(u) * model.entry_survival(u),
        }
        for name, density in densities.items():
            want = [_quad(density, ANCHOR, s) for s in pts]
            got = tables[name].query(pts / ctx.unit) - tables[name].query(ANCHOR / ctx.unit)
            assert np.abs(got - want).max() < TOL, name


class TestTablesAgainstMpmath:
    """The m, p and w tables against 30-digit mpmath values, stored by
    ``oracles.table_reference_literals``."""

    @pytest.mark.parametrize("name", list(oracles.TABLE_MODELS))
    def test_tables_match_mpmath(self, name):
        model = oracles.TABLE_MODELS[name]
        ctx = make_oracle_context(model, model.default_grid())
        t = np.array(oracles.TABLE_FRACTIONS) * ctx.grid.b
        for label, table in zip("mpw", ctx.tables):
            want = np.array(oracles.TABLE_REFERENCE[name][label])
            got = table.query(t / ctx.unit)
            assert np.all(np.abs(got - want) <= 1e-14 * want), (label, got / want - 1)

    @pytest.mark.parametrize("name", list(oracles.TABLE_MODELS))
    def test_right_anchored_tables_match_mpmath(self, name):
        # g(b) - g(x) and v(b) - v(x), down to x = 1e-9 b on the graded panels
        model = oracles.TABLE_MODELS[name]
        ctx = make_oracle_context(model, model.default_grid())
        x = np.array(oracles.RIGHT_TABLE_FRACTIONS) * ctx.grid.b
        for label, table in zip("gv", ctx.tables[3:]):
            want = np.array(oracles.RIGHT_TABLE_REFERENCE[name][label])
            got = table.query(ctx.grid.b / ctx.unit) - table.query(x / ctx.unit)
            assert np.all(np.abs(got - want) <= 1e-13 * want), (label, got / want - 1)

    def test_a_stored_value_recomputed(self):
        # the p literal nearest the origin of the singular shape-0.7 tables
        mp = pytest.importorskip("mpmath")
        model = oracles.TABLE_MODELS["weibull-0.7"]
        t = oracles.TABLE_FRACTIONS[0] * model.default_grid().b
        with mp.workdps(30):
            (p,) = oracles.mpmath_tables_at(model, t, which="p")
        assert float(p) == oracles.TABLE_REFERENCE["weibull-0.7"]["p"][0]


def _sqrt_exp(u):
    return np.sqrt(u) * np.exp(-u)


class TestQueryContract:
    table = oracles.density_table(_sqrt_exp, origin_graded_edges(3.0, 40))

    def test_edge_query_returns_stored_prefix(self):
        got = self.table.query(self.table.edges)
        assert np.array_equal(got, self.table.cum)
        assert self.table.query(self.table.hi) == self.table.cum[-1]

    @given(st.floats(1e-150, 1e150), st.floats(1e-150, 1e150), st.floats(1.01, 2.0))
    @example(x=1.0000000000000001e-150, y=1e-150, ratio=2.0)
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
        # the first uniform panel is halved until the panel at 0 is at most
        # 2**-100 of hi wide: 95 times for 40 panels on [0, 3], 93 for 200
        hi, depth = 3.0, 2.0**-quadrature._ORIGIN_DEPTH
        for panels, halvings in ((40, 95), (200, 93)):
            edges = origin_graded_edges(hi, panels)
            assert edges.size == panels + halvings + 1
            assert edges[1] <= hi * depth < 2 * edges[1]
            first = hi / panels * 0.5 ** np.arange(halvings, 0, -1)
            assert edges[0] == 0.0 and np.array_equal(edges[1 : halvings + 1], first)
            assert np.array_equal(edges[halvings + 1 :], np.linspace(0.0, hi, panels + 1)[1:])

    @pytest.mark.parametrize("s", [-1e-9, 3.0 + 1e-9, [0.5, 3.1]])
    def test_out_of_domain_raises(self, s):
        with pytest.raises(ValueError):
            self.table.query(s)

    @pytest.mark.parametrize("s", [np.nan, [0.5, np.nan], [np.nan, 1.0, 2.0], [np.nan] * 3])
    def test_nan_query_raises(self, s):
        # NaN fails both domain comparisons, and is refused as a point
        # outside the domain is
        with pytest.raises(ValueError, match="outside domain"):
            self.table.query(s)
        with pytest.raises(ValueError, match="outside domain"):
            self.table.locate(s)

    def test_overflowing_table_refused(self):
        # a panel narrower than the smallest normal float has an infinite inverse width
        with pytest.raises(ComputeError, match="overflow"):
            oracles.density_table(np.ones_like, np.array([0.0, 1e-310, 1e-300, 1.0]))

    def test_origin_grading_stays_normal(self):
        # the oracle tables grade [0, hi] with hi in [1, 2) only: the
        # halving reaches the depth 2**-100 of hi, and every edge above 0
        # and every node is a normal float
        depth = 2.0**-quadrature._ORIGIN_DEPTH
        panels = influence._TABLE_PANELS
        for hi in (1.0, 1.15, 1.5, np.nextafter(2.0, 1.0)):
            edges = origin_graded_edges(hi, panels)
            assert np.all(np.diff(edges) > 0) and edges[-1] == hi
            halvings = edges.size - panels - 1
            first = hi / panels * 0.5 ** np.arange(halvings, 0, -1)
            assert np.array_equal(edges[1 : halvings + 1], first)
            # one more halving would cross the depth
            assert edges[1] <= hi * depth < 2 * edges[1]
            assert node_points(edges).min() >= np.finfo(float).tiny

    def test_scalar_query_returns_float(self):
        assert type(self.table.query(1.3)) is float
        assert type(self.table.query(np.float64(0.0))) is float
        assert self.table.query([1.3]).shape == (1,)


def _full_coef(values, edges):
    """The unchopped Legendre rows of a table with density ``values`` at its
    nodes, computed as its constructor does."""
    half = 0.5 * np.diff(edges)
    vals = np.asarray(values, dtype=float).reshape(half.size, quadrature.NODES)
    return ((half[:, None] * vals) @ quadrature._ANTIDERIVATIVE).T


def _plain_search(table, s):
    """Index, panel, coordinate and on-edge mask from one plain search."""
    sq = np.clip(np.atleast_1d(np.asarray(s, dtype=float)), table.lo, table.hi)
    idx = np.searchsorted(table.edges, sq, side="right") - 1
    panel = np.minimum(idx, table.edges.size - 2)
    xi = (sq - table.edges[panel]) * table._inv_half[panel] - 1.0
    return idx, panel, xi, sq == table.edges[idx]


def _reference_query(table, coef, s):
    """A table read over the Legendre rows ``coef``, as one call found its
    points: one unsorted search, then the Clenshaw recurrence over every row."""
    idx, panel, xi, on_edge = _plain_search(table, s)
    order = coef.shape[0] - 1
    b1 = coef[order][panel]
    b0 = coef[order - 1][panel] + (2 * order - 1) / order * xi * b1
    for k in range(order - 2, -1, -1):
        b2, b1 = b1, b0
        b0 = coef[k][panel] + (2 * k + 1) / (k + 1) * xi * b1 - (k + 1) / (k + 2) * b2
    out = table.cum[idx] + np.where(on_edge, 0.0, b0)
    return float(out[0]) if np.ndim(s) == 0 else out


CHOP_MODELS = {
    "exponential": ExponentialModel(censor_rate=0.5, rate=1.0),
    "weibull-1.5": WeibullModel(censor_rate=0.5, shape=1.5),
    "weibull-2.5": WeibullModel(censor_rate=0.5, shape=2.5),
    "weibull-0.7": WeibullModel(censor_rate=0.5, shape=0.7),
}


@pytest.fixture(scope="module", params=list(CHOP_MODELS))
def recorded_tables(request):
    """The m, p, w, g and v tables of a model's context, with their unchopped rows."""
    built = []

    class Recorded(SmoothCumulative):
        def __init__(self, edges, values, right=False):
            super().__init__(edges, values, right)
            built.append((self, _full_coef(values, edges)))

    model = CHOP_MODELS[request.param]
    with mock.patch.object(influence, "SmoothCumulative", Recorded):
        tables = make_oracle_context(model, model.default_grid()).tables
    # in the context's order, whatever the order of the builds
    full = {id(table): coef for table, coef in built}
    return request.param, [(table, full[id(table)]) for table in tables]


class TestLocateRead:
    table = TestQueryContract.table
    full = _full_coef(_sqrt_exp(node_points(table.edges)), table.edges)
    rng = np.random.default_rng(5)
    POINTS = {
        "sorted": np.sort(rng.uniform(0.0, 3.0, 500)),
        "unsorted": rng.uniform(0.0, 3.0, 500),
        "duplicates": np.repeat(rng.uniform(0.0, 3.0, 50), 4)[rng.permutation(200)],
        "edges": table.edges[rng.permutation(table.edges.size)],
        "ends": np.array([3.0, 0.0, 3.0 + 1e-13, -1e-13, 0.0, 3.0]),
        "empty": np.array([]),
        "scalar": np.float64(1.3),
    }

    @pytest.mark.parametrize("kind", list(POINTS))
    def test_read_of_located_points_matches_unchopped_query(self, kind):
        # the u^(1/2) density needs every degree, so nothing is chopped and
        # locate-then-read is the one-search query to the bit
        assert len(self.table._coef) == quadrature.NODES + 1
        s = self.POINTS[kind]
        got = self.table.read(self.table.locate(s))
        want = _reference_query(self.table, self.full, s)
        assert type(got) is type(want)
        assert np.array_equal(got, want)
        assert np.array_equal(self.table.query(s), want)

    def test_position_refused_on_other_edges(self):
        other = oracles.density_table(np.exp, np.linspace(0.0, 3.0, 41))
        with pytest.raises(ValueError, match="other edges"):
            other.read(self.table.locate([0.5, 1.5]))
        same = oracles.density_table(np.exp, self.table.edges.copy())
        at = self.table.locate([0.5, 1.5])
        assert np.array_equal(same.read(at), same.query([0.5, 1.5]))

    def test_chopped_degrees(self, recorded_tables):
        # smooth densities keep few terms, and the Weibull-0.7 ones, singular
        # at the origin, keep them all: the rule is not tuned to the
        # exponential tables.  The g and v densities of both behave like 1/u
        # or worse on the graded panels, and keep every term
        name, built = recorded_tables
        degrees = [len(table._coef) - 1 for table, _ in built]
        assert len(built) == 5
        if name == "exponential":
            assert max(degrees[:3]) <= 6
        if name in ("exponential", "weibull-0.7"):
            assert degrees[3:] == [quadrature.NODES] * 2
        if name == "weibull-0.7":
            assert max(degrees) == quadrature.NODES
        for table, full in built:
            kept = len(table._coef)
            assert np.array_equal(table._coef, full[:kept])
            dropped = np.abs(full[kept:])
            assert np.all(dropped <= 2.0**-53 * np.abs(table.cum).max())

    def test_chopped_reads_match_full_series(self, recorded_tables):
        _, built = recorded_tables
        s = np.random.default_rng(11).uniform(0.0, built[0][0].hi, 100_000)
        s[:100] = built[0][0].edges[:100]
        for table, full in built:
            got = table.read(table.locate(s))
            assert np.array_equal(got, _reference_query(table, full[: len(table._coef)], s))
            err = np.abs(got - _reference_query(table, full, s)).max()
            assert err <= 2e-15 * np.abs(table.cum).max()


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _random_edges(start, steps):
    return start + np.cumsum([0.0, *steps])


EDGE_SETS = st.one_of(
    st.builds(origin_graded_edges, st.floats(1e-3, 1e3), st.integers(1, 120)),
    st.builds(
        lambda lo, span, ratio: geometric_edges(lo, lo * span, ratio),
        st.floats(1e-6, 1e3), st.floats(1.5, 1e4), st.floats(1.01, 2.0),
    ),
    st.builds(
        _random_edges, st.floats(-1e3, 1e3), st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=200)
    ),
)


@st.composite
def located_points(draw):
    """Edges, and points on them: mixed, duplicated, on edges, at the ends
    (some past them by less than the slack), empty or scalar; one point or
    three per edge, sorted or not."""
    edges = draw(EDGE_SETS)
    kind = draw(st.sampled_from(["mixed", "duplicates", "edges", "ends", "empty", "scalar"]))
    size = draw(st.sampled_from([1, 3 * edges.size]))
    ordered = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = edges[0], edges[-1]
    half_slack = 0.5e-12 * max(abs(lo), abs(hi))
    ends = np.array([lo, hi, lo - half_slack, hi + half_slack])
    if kind == "empty":
        return edges, np.array([])
    pool = {
        "mixed": np.concatenate([rng.uniform(lo, hi, size), edges, ends]),
        "duplicates": np.repeat(rng.uniform(lo, hi, size), 3),
        "edges": edges,
        "ends": ends,
        "scalar": np.concatenate([rng.uniform(lo, hi, 1), edges, ends]),
    }[kind]
    if kind == "scalar":
        return edges, np.float64(rng.choice(pool))
    s = rng.choice(pool, size)
    return edges, np.sort(s) if ordered else s


class TestLocateProperty:
    @settings(max_examples=300, deadline=None)
    @given(located_points())
    def test_locate_matches_plain_search(self, case):
        # sorted points more than twice as many as the edges are counted
        # against the edges; every other set is searched point by point
        edges, s = case
        table = SmoothCumulative(edges, np.ones((edges.size - 1) * quadrature.NODES))
        at = table.locate(s)
        idx, panel, xi, on_edge = _plain_search(table, s)
        assert at.edges is table.edges and at.scalar == (np.ndim(s) == 0)
        assert at.index.dtype == np.intp
        assert np.array_equal(at.index, idx) and np.array_equal(at.panel, panel)
        assert _same_bits(at.xi, xi)
        assert np.array_equal(at.on_edge, on_edge)


class TestRightAnchoredProperty:
    @settings(max_examples=200, deadline=None)
    @given(EDGE_SETS, st.integers(0, 2**32 - 1))
    def test_right_anchored_table_reads(self, edges, seed):
        # a density finite at the first edge: the table anchored at the last
        # edge reads 0 there, minus the panel sums accumulated from the
        # right at each edge, and between two points the difference of the
        # table from the first edge
        lo, hi = edges[0], edges[-1]

        def density(u):
            return 1.0 + np.exp((lo - u) / (hi - lo))

        values = density(node_points(edges).ravel())
        right = SmoothCumulative(edges, values, right=True)
        left = SmoothCumulative(edges, values)
        assert right.query(hi) == 0.0
        sums, total, want = quadrature.panel_integrals(density, edges), 0.0, [0.0]
        for panel_sum in sums[::-1]:
            total += panel_sum
            want.append(-total)
        assert np.array_equal(right.query(edges), want[::-1])
        rng = np.random.default_rng(seed)
        x, y = (rng.uniform(lo, hi, 3 * edges.size) for _ in range(2))
        x[: edges.size] = edges
        got, ref = (table.query(y) - table.query(x) for table in (right, left))
        assert np.abs(got - ref).max() <= 1e-12 * left.cum[-1]


class TestReadBits:
    """Located reads bit for bit against one search per point and the
    Clenshaw steps written as one expression, at every series length."""

    @staticmethod
    def _point_sets(table):
        rng = np.random.default_rng(17)
        u = rng.uniform(table.lo, table.hi, 3 * table.edges.size)
        u[: table.edges.size] = table.edges
        return {
            "unsorted": u,
            "sorted": np.sort(u),
            "edges": table.edges,
            "edges-twice": np.repeat(table.edges, 2),
            "ends": np.array([table.hi, table.lo, table.hi, table.lo]),
            "one": u[-1:],
            "scalar-edge": np.float64(table.edges[7]),
            "scalar": np.float64(u[-1]),
        }

    def test_reads_at_every_series_length(self, recorded_tables):
        name, built = recorded_tables
        for table, full in built:
            points = self._point_sets(table)
            for kept in range(2, quadrature.NODES + 2):
                trial = copy.copy(table)
                trial._coef = np.ascontiguousarray(full[:kept])
                for kind, s in points.items():
                    got = trial.read(trial.locate(s))
                    want = oracles.read_clenshaw_expression(
                        trial, oracles.locate_one_search(trial, s)
                    )
                    assert type(got) is type(want), (kind, kept)
                    assert _same_bits(got, want), (name, kind, kept)
