"""Panel Gauss-Legendre quadrature with table-lookup cumulative queries.

This is the package's one integrator: the oracle tables and the window
diagnostic of ``influence`` use it, and the truth models need none.
Integrands here are smooth between a known set of breakpoints, or behave
like ``u**(k - 1)`` at an origin graded by ``origin_graded_edges``: on its
293 panels the oracle tables from 0 agree with 30-digit mpmath within 8e-16
relative for the exponential and Weibull shapes 0.6 to 1.5, and in the
tables' unit of time their window end is in [1, 2).  A cumulative
table is built from the density's values at the nodes of every panel
(``node_points``), so tables on the same edges share one evaluation of the
functions their densities have in common.  It stores the panel sums at the
edges, accumulated from the first edge or, for a density that diverges at
the first edge, from the last, and, per panel, the Legendre coefficients of
the antiderivative of the polynomial that interpolates the density at those
nodes; a query is then a lookup plus one polynomial evaluation.  Each series
is chopped when its table is built (Aurentz and Trefethen, ACM TOMS 43,
2017), and tables on the same edges share one ``locate`` of a point set.
``locate`` finds the panels of sorted points that outnumber the edges twice
over by counting the edges, one search of the edges into the points, and of
fewer or unsorted points by one search per point; either way the panel
depends on the point's value alone.  ``read`` sums the series by Clenshaw's
recurrence (Clenshaw, Math. Tables Aids Comput. 9, 1955) in place, in three
buffers of the point count, with the rounding of the written recurrence.  A
table whose sums, coefficients or inverse panel widths overflow a float
raises ``ComputeError`` when it is built.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import ComputeError

__all__ = [
    "node_points",
    "panel_integrals",
    "SmoothCumulative",
    "Position",
    "origin_graded_edges",
    "geometric_edges",
]

# the depth of ``origin_graded_edges``: its first panel is at most
# ``hi * 2**-_ORIGIN_DEPTH`` wide
_ORIGIN_DEPTH = 100

# Gauss-Legendre order of every panel, and the rule on [-1, 1]
NODES = 15
_GL_X, _GL_W = np.polynomial.legendre.leggauss(NODES)


def node_points(edges: np.ndarray) -> np.ndarray:
    """The Gauss-Legendre nodes of each panel of ``edges``, shape
    ``(n_panels, NODES)``: where every table and panel sum on those edges
    reads its density."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * _GL_X[None, :]


def panel_integrals(density, edges: np.ndarray) -> np.ndarray:
    """Integral of ``density`` over each panel of ``edges``."""
    x = node_points(edges)
    vals = np.asarray(density(x.ravel()), dtype=float).reshape(x.shape)
    half = 0.5 * np.diff(np.asarray(edges, dtype=float))
    return (half[:, None] * _GL_W[None, :] * vals).sum(axis=1)


def origin_graded_edges(hi: float, panels: int) -> np.ndarray:
    """``panels`` uniform panels on [0, hi], the first one halved toward 0.

    The first uniform panel is halved until the panel at the origin is at
    most ``hi * 2**-100`` wide, a depth set by ``hi`` alone (93 halvings for
    200 panels): an integrand like ``u**(k - 1)`` there, which no polynomial
    follows, then has less than ``2**-53`` of its integral over [0, hi] in
    that panel for every ``k >= 0.53`` (Schwab 1998, p- and hp-Finite
    Element Methods, section 4).  The oracle tables take ``hi`` in [1, 2).
    """
    uniform = np.linspace(0.0, hi, panels + 1)
    # each kept edge is the right end of a panel wider than the depth
    graded = uniform[1] * 0.5 ** np.arange(_ORIGIN_DEPTH, 0, -1)
    keep = graded > hi * 2.0 ** -(_ORIGIN_DEPTH + 1)
    return np.concatenate(([0.0], graded[keep], uniform[1:]))


def geometric_edges(lo: float, hi: float, ratio: float) -> np.ndarray:
    """Geometric edges from exactly lo to exactly hi, for integrands singular below lo."""
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    # a span narrower than one ratio step gets one panel: a second edge
    # inside it can round onto lo or hi
    count = max(1, int(np.ceil(np.log(hi / lo) / np.log(ratio))))
    edges = lo * (hi / lo) ** (np.arange(count + 1) / count)
    # lo * (hi / lo) can round an ulp off hi
    edges[-1] = hi
    return edges


def _antiderivative_matrix() -> np.ndarray:
    """Map density values at the Gauss-Legendre nodes of [-1, 1] to the
    Legendre coefficients of the interpolant's antiderivative from -1.

    Returns shape ``(NODES, NODES + 1)``.  The discrete Legendre transform is
    exact for the degree ``NODES - 1`` interpolant, and the antiderivative at
    +1 equals the Gauss-Legendre sum of the node values.
    """
    degree = np.arange(NODES)
    basis = np.polynomial.legendre.legvander(_GL_X, NODES - 1)  # (node, degree)
    transform = (degree + 0.5)[:, None] * basis.T * _GL_W[None, :]  # (degree, node)
    return np.polynomial.legendre.legint(transform, lbnd=-1.0, axis=0).T


_ANTIDERIVATIVE = _antiderivative_matrix()


# points on a table's edges: the last edge at or below each point, its panel
# (the last one at hi), its coordinate on that panel in [-1, 1], and the mask
# of points on an edge
Position = namedtuple("Position", "edges index panel xi on_edge scalar")


class SmoothCumulative:
    """Cumulative integral of a smooth density given by its values at
    ``node_points(edges)``, in any shape with as many entries.

    ``query(s)`` returns the integral from the first edge to ``s`` for any
    ``s`` inside the domain or, with ``right=True``, minus the integral from
    ``s`` to the last edge: the stored panel prefix plus the integral of the
    density's node interpolant over the partial panel.  The right-anchored
    prefixes are summed from the last panel down, so they are 0 at the last
    edge and, for a density that diverges at the first edge, keep the
    accuracy of the panels they sum; the first panel of such a table holds
    no valid cumulative.  On a panel edge a query is the stored prefix
    exactly; inside a panel its error is the degree-14 interpolation error
    of the density, so ``edges`` should put any point where the density is
    not smooth on an edge.  The series is kept up to the highest degree (at
    least 1) whose largest coefficient over the panels exceeds 2^-53 of the
    largest |cumulative|, at any power-of-two scale.
    """

    nodes = NODES

    def __init__(self, edges, values, right: bool = False):
        self.edges = edges = np.asarray(edges, dtype=float)
        if edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise ValueError("edges must be strictly increasing with >= 2 entries")
        self.lo, self.hi = float(edges[0]), float(edges[-1])
        with np.errstate(all="ignore"):
            half = 0.5 * np.diff(edges)
            vals = np.asarray(values, dtype=float).reshape(half.size, NODES)
            w = half[:, None] * _GL_W[None, :]
            sums = (w * vals).sum(axis=1)
            if right:
                self.cum = np.concatenate((-np.cumsum(sums[::-1])[::-1], [0.0]))
            else:
                self.cum = np.concatenate(([0.0], np.cumsum(sums)))
            # (coefficient, panel): each read gathers one row per coefficient
            coef = ((half[:, None] * vals) @ _ANTIDERIVATIVE).T
            self._inv_half = 1.0 / half
        if not all(np.isfinite(x).all() for x in (self.cum, coef, self._inv_half)):
            raise ComputeError("panel sums, coefficients or widths overflow a float")
        kept = np.abs(coef).max(axis=1) > 2.0**-53 * np.abs(self.cum).max()
        self._coef = np.ascontiguousarray(coef[: max(1, np.flatnonzero(kept).max(initial=0)) + 1])

    def locate(self, s) -> Position:
        """The ``Position`` of each point, for any table on the same edges.

        A NaN point, or one outside the domain by more than its slack,
        raises ``ValueError``.  Sorted points more than twice as many as the
        edges, where counting is the faster way, are placed by counting the
        edges at or below each, from one search of the edges into the
        points; fewer sorted points are searched into the edges one by one,
        and unsorted ones the same way in sorted order, after one argsort.
        Either way a position depends on the point's value alone."""
        s = np.asarray(s, dtype=float)
        sq = np.atleast_1d(s)
        # the slack scales with the domain, so a power-of-two change of time
        # unit scales it exactly; NaN fails both comparisons
        slack = 1e-12 * max(abs(self.lo), abs(self.hi))
        if sq.size and not (sq.min() >= self.lo - slack and sq.max() <= self.hi + slack):
            raise ValueError(
                f"query outside domain [{self.lo}, {self.hi}]: "
                f"[{sq.min()}, {sq.max()}]"
            )
        sq = np.clip(sq, self.lo, self.hi)
        if not np.all(sq[1:] >= sq[:-1]):
            order = np.argsort(sq)
            idx = np.empty(sq.size, dtype=np.intp)
            idx[order] = np.searchsorted(self.edges, sq[order], side="right") - 1
        elif sq.size > 2 * self.edges.size:
            # point i has as many edges at or below it as there are edges
            # whose first point at or above them is at most i
            first = np.searchsorted(sq, self.edges, side="left")
            idx = np.cumsum(np.bincount(first, minlength=sq.size + 1)[:-1]) - 1
        else:
            idx = np.searchsorted(self.edges, sq, side="right") - 1
        panel = np.minimum(idx, self.edges.size - 2)
        xi = (sq - self.edges[panel]) * self._inv_half[panel] - 1.0
        return Position(self.edges, idx, panel, xi, sq == self.edges[idx], s.ndim == 0)

    def read(self, position: Position):
        """The cumulative at points located on this table's edges.

        Clenshaw's recurrence runs in place in three buffers of the point
        count, each step in the order of the written recurrence, so it
        rounds as the expression does."""
        if position.edges is not self.edges and not np.array_equal(position.edges, self.edges):
            raise ValueError("position was located on other edges")
        panel, xi = position.panel, position.xi
        # Clenshaw recurrence for the Legendre series of the partial integral,
        # from P_{k+1} = ((2k + 1) x P_k - k P_{k-1}) / (k + 1):
        # b_k = c_k + (2k + 1) / (k + 1) x b_{k+1} - (k + 1) / (k + 2) b_{k+2}
        coef = self._coef
        order = coef.shape[0] - 1
        b1 = coef[order][panel]
        b0 = np.multiply((2 * order - 1) / order, xi)
        b0 *= b1
        b0 += coef[order - 1][panel]
        b2 = np.empty_like(b0)
        for k in range(order - 2, -1, -1):
            # the spent b_{k+3} buffer takes b_k
            b2, b1, b0 = b1, b0, b2
            np.multiply((2 * k + 1) / (k + 1), xi, out=b0)
            b0 *= b1
            b0 += coef[k][panel]
            np.multiply((k + 1) / (k + 2), b2, out=b2)
            b0 -= b2
        b0[position.on_edge] = 0.0
        out = self.cum[position.index]
        out += b0
        return float(out[0]) if position.scalar else out

    def query(self, s):
        """``read(locate(s))``: the cumulative at each ``s``."""
        return self.read(self.locate(s))
