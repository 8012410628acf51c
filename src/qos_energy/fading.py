"""Channel power-gain distributions.

Every model exposes the same deterministic interface: density, strict CDF
P(Z < z), moments, support bounds, quantiles, seeded sampling, and the
expectation nodes log_nodes(ln_lower): arrays (u, ln_w) with

    E{g(z) 1{z >= exp(ln_lower)}} = sum exp(ln_w) g(exp(u)).

Discrete models return the logs of their atoms and probabilities, so the
sums are exact, and their support_nodes carry the atoms and probabilities
themselves.  A table keeps only its atoms with probability, so its
support nodes, bounds and every other reader see the law itself;
Deterministic, the unfaded channel, is the one-atom BoundedTable.
NakagamiM, the one law with a density (Rayleigh is its m = 1), holds the
node grid: composite 16-point Gauss-Legendre panels in ln z on one grid
per model, _grid, whose edges and nodes are built once as arrays:
0.25-wide panels hung down from e^2 times the 1 - 1e-12 quantile to the
lattice edge at or above the scale s = mean/m, and below it, where z p(z)
is z^m e^(-z/s) and smooth in ln z, wider ones (the bound at
_LN_Z_WHOLE), down past the threshold floor _ln_z_floor: 1e-280, or
s 1e-30 where that is lower.  A threshold set is one partial panel, from
the threshold (never below the floor) up to the next grid edge, followed
by the grid panels above that edge, a slice of _grid; a threshold from
e times the quantile up has no nodes.  support_nodes is
the set from s 1e-30 up, after one node at s 1e-30 that carries the mass
below it, with its exp(u) and exp(ln_w), built once and read-only:
Rayleigh needs 897 nodes where 0.25-wide panels need 4,768.  How that
mass spreads below the node moves the CSIR rate's mean of (1 + xz)^-beta
once max(1, beta) x s passes about 1e20, so _check_lumped refuses such an
x.  The wideband CSIR pair (laplace) reads no nodes on a density: the
Gamma law's E{e^(-cz)} = (1 + c s)^-m is in closed form, at every finite c.
The threshold solves read each model's panels or atoms through the sums
at their edges (_Groups), built once and whole down to the floor: 344
groups for Rayleigh, 2,594 from m = 8 on; every law has some.
The rates and thresholds read a Gamma law through its mean-1 law (unit:
z = mu t), with the mean folded into snr, c and alpha by their batches,
so the grid, its edge sums and the threshold solves see mean-1 laws
alone, whose floor is 1e-280 up to m = 1e250; a scaled law keeps its own
log_nodes and support_nodes.  From m of about 800 up the 16-node panels
no longer hold the law's mass, and support nodes or edge sums whose
weights miss 1 by more than TAIL_MASS raise NumericalError (cdf and
quantile serve any m).
moments() reads E{z^2} as E{z} kappa E{z}, kappa = E{z^2}/E{z}^2 formed
without squaring a gain, and refuses one outside the normal doubles.
_ContinuousModel remains only as an alias of NakagamiM for the benchmark's
tracer, which wraps expect_above on it, until that tracer goes (ROADMAP
item 1b).
Formulas written on (u, ln_w) combine exponents before exponentiating,
which keeps thresholds deep in the subnormal range finite.  The strict-CDF /
non-strict-indicator pair partitions the probability space exactly, which
is what the capacity formulas with a gain threshold rely on.

expect_above(g, lower) computes the same expectations from a scalar
callback (adaptive QUADPACK for densities, exact sums for atoms); it is
the reference the tests compare against.  scipy is imported only on the
first QUADPACK call, so the package itself runs on numpy alone.  QUADPACK
can return a wrong value without raising for a sharp integrand: Rayleigh
E{(1+100 z)^-30} comes back 5e15 times too small.  Compare against it only
where it converges.  It is the only raiser of NonIntegrable.

The Nakagami CDF and quantile use a log-domain regularized incomplete
gamma (power series below x = m + 1, continued fraction above) and
math.lgamma.
"""

from __future__ import annotations

import abc
import functools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonIntegrable, NumericalError

TAIL_MASS = 1e-12
DEFAULT_QUAD_TOL = 1e-11

_PANEL = 0.25
_GL_N = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_N)
_GL_T = 0.5 * (1.0 + _GL_X)
_GL_LN_W = np.log(0.5 * _GL_W)
_PANEL_U = _PANEL * _GL_T
_PANEL_LN_W = np.log(0.5 * _PANEL * _GL_W)
# Groups per block, and exponents per array pass, of the tilted edge sums
# (_Groups.tilted).
_BLOCK = 16
_PASS = 64
# Whole-support expectations start at s 1e-30, s = mean/m, below which a
# Gamma law with m >= 0.5 holds at most 1.2e-15 of its mass at any scale;
# one node at s 1e-30 carries that mass.  The CSIR rate's mean of
# (1 + xz)^-beta then depends on how that mass spreads below the node once
# x' s 1e-30, x' = max(1, beta) x, is no longer tiny: against the confluent
# hypergeometric U, ln E keeps 1e-14 relative up to x' s = _LUMP_XS, and
# _check_lumped refuses past it.
# Below the lattice edge at or above s (z < s e^(1/4)) the panels are
# W = min(2, max(1/4, 2/m)) wide.  There the integrand in u = ln z is
# z^k phi, k = m (m + 2 for a z^2-weighted mean), with
# phi = e^(-z/s) g(z) >= g/4 on the panel and |phi| <= sup|g| (1 for
# e^(-cz) and (1 + cz)^-beta) in |Im u| < pi/2, where Re z >= 0.  For each
# Bernstein ellipse E_rho of the panel in that strip, h (rho - 1/rho)/2
# <= pi/2 with h = W/2, the 16-point Gauss-Legendre error relative to the
# panel's integral of z^k is at most (Trefethen, SIAM Review 50, 2008,
# Thm 4.5)
#     R = (32/15) exp(kh (rho + 1/rho)/2) kh / (sinh(kh) (rho^2 - 1) rho^32),
# so the panel adds at most 4 R sup|g| E{z^(k-m) on it} to E{z^(k-m) g}.
# W m <= 2 keeps kh <= 1 at k = m, and W <= 2 admits rho = 3.43: R < 8e-18
# at k = m and 1.2e-16 at k = m + 2 for 0.5 <= m <= 8, the worst at m = 1;
# W = 4 gives 4e-10 there.  From m = 8 on the panels are 0.25 wide.  The
# edge sums weigh z^k with k = m - 1 + s, 0 <= s <= 1, so |k| <= m, times
# powers of ln(z/a) of degree at most 2; on these panels they match
# 0.25-wide ones to 1.1e-14 relative.
# Threshold expectations start at the threshold but never below 1e-280, or
# s 1e-30 where that is lower (NakagamiM._ln_z_floor), which caps a deep
# threshold at 2,600 panels and gives every law its nodes.  A threshold
# solve can still descend that far: at strong QoS the power threshold's
# exponent 1/(beta+1) is small, and on Rayleigh the alpha* equation's L1
# grows only like ln^2(1/alpha)/2.  Below the floor a root is a closed form that leaves out
# the law between the root and the floor, and a row whose bound on that part
# (NakagamiM._ln_inverse_below) passes 2^-53 of its target is refused.
_LN_Z_WHOLE = math.log(1e-30)
_LUMP_XS = 1e20
_LN_Z_FLOOR = math.log(1e-280)
_LN_MAX = math.log(np.finfo(float).max)
_MIN_NORMAL = 2.0**-1022
# Panels end at e^2 times the 1 - TAIL_MASS quantile q, and a threshold at
# or above e q has no nodes.  For every Nakagami m >= 0.5 the mass beyond
# e x holds less than 1e-18 of the mass beyond x at x = q, and less at
# larger x, z^2-weighted or not, so no threshold with nodes loses a
# relative 1e-18 of its expectation to the cut.  Above e q the threshold
# expectations drop to 0, a jump that the threshold solves report.
_LN_TAIL_PAD = 1.0
# Incomplete gamma: a continued-fraction step within this of 1 ends the
# fraction.  Either expansion needs about 9 sqrt(m) terms at x = m; it
# gives up after 1000 + 20 sqrt(m).  The quantile's Newton stops at a step
# or a bracket below _LN_X_TOL relative in ln x.
_LENTZ_TOL = 2.3e-16
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_QUANTILE_MAX_ITER = 100
_LN_X_TOL = 1e-14


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call.

    Only the expect_above references integrate by QUADPACK, so importing
    the package loads no scipy module.
    """
    from scipy.integrate import quad as quadpack

    return quadpack(*args, **kwargs)


def _logsumexp(a: np.ndarray) -> float:
    """ln sum exp(a); -inf for an empty or all -inf array."""
    if a.size == 0:
        return -math.inf
    top = a.max()
    if not math.isfinite(top):
        return float(top)
    b = a - top
    return float(top + np.log(np.sum(np.exp(b, out=b))))


def _ln_mean_exp(ln_w: np.ndarray, h: np.ndarray, w: np.ndarray, em1=None) -> float:
    """ln sum w exp(h) for h <= 0 and weights w = exp(ln_w) summing to 1;
    em1, when the caller keeps it, is expm1(h).

    While the mean is above 1/2 this is log1p(sum w expm1(h)), which keeps
    the digits that the log-sum-exp loses as the mean nears 1 (weak QoS);
    below, it is the log-sum-exp.
    """
    s = float(np.dot(w, np.expm1(h) if em1 is None else em1))
    if s > -0.5:
        return math.log1p(s)
    return _logsumexp(ln_w + h)


def _ln_gamma_front(m: float, x: float, ln_x: float) -> float:
    """ln(x^m e^-x / Gamma(m)), accurate for large m as well.

    From m = 15 on, the direct m ln x - x - lgamma(m) loses about
    1e-16 m ln m to cancellation (1e-9 at m = 1e6), so it is rebuilt, in
    Loader's form, as
    ln sqrt(m / 2 pi) - stirlerr(m) - bd0, with Stirling's remainder
    stirlerr(m) = lgamma(m) - (m - 1/2) ln m + m - ln sqrt(2 pi) from its
    series and the deviance bd0 = m ln(m/x) + x - m from its series in
    v = (m - x)/(m + x) when |v| < 0.1.
    """
    if m < 15.0:
        return m * ln_x - x - math.lgamma(m)
    r = 1.0 / (m * m)
    stirlerr = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / m
    v = (m - x) / (m + x)
    if abs(v) < 0.1:
        bd0, term, v2 = (m - x) * v, 2.0 * m * v, v * v
        for j in range(3, 41, 2):
            term *= v2
            if bd0 + term / j == bd0:
                break
            bd0 += term / j
    else:
        bd0 = m * (math.log(m) - ln_x) + x - m
    return 0.5 * math.log(m) - _LN_SQRT_2PI - stirlerr - bd0


def _ln_gamma_pq(m: float, x: float, ln_x: float) -> tuple[float, float]:
    """(ln P(m, x), ln Q(m, x)), the regularized incomplete gamma pair.

    Takes x and ln x both, as the caller has them: a round trip through
    exp or log costs up to |m - x| ulp(ln x) of ln P, 1e-11 at m = 1e6.
    Below x = m + 1, where P < 0.92, the power series gives ln P;
    above, where Q < 1/2, the modified-Lentz continued fraction gives
    ln Q.  The other one is the log of the complement.
    """
    if math.isnan(x):
        return math.nan, math.nan
    if x == math.inf:
        return 0.0, -math.inf
    ln_front = _ln_gamma_front(m, x, ln_x)
    max_terms = 1000 + int(20.0 * math.sqrt(m))
    if x < m + 1.0:
        # P = x^m e^-x / Gamma(m+1) * sum_n x^n / ((m+1)...(m+n))
        a, term, total = m, 1.0, 1.0
        for _ in range(max_terms):
            a += 1.0
            term *= x / a
            total += term
            if term < 1e-17 * total:
                break
        else:
            raise NumericalError(f"incomplete gamma series for m={m}, x={x} did not converge")
        ln_p = ln_front - math.log(m) + math.log(total)
        return ln_p, math.log1p(-math.exp(ln_p))
    # Q = x^m e^-x / Gamma(m) * 1/(x+1-m - 1(1-m)/(x+3-m - 2(2-m)/(x+5-m - ...)))
    b = x + 1.0 - m
    c, d = 1e300, 1.0 / b
    h = d
    for i in range(1, max_terms):
        an = -i * (i - m)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > 1e-300 else 1e-300)
        c = b + an / c
        c = c if abs(c) > 1e-300 else 1e-300
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _LENTZ_TOL:
            break
    else:
        raise NumericalError(f"incomplete gamma fraction for m={m}, x={x} did not converge")
    ln_q = ln_front + math.log(h)
    return math.log(-math.expm1(ln_q)), ln_q


def _ln_gamma_quantile(m: float, p: float) -> float:
    """ln x with P(m, x) = p, for 0 < p < 1.

    Newton in t = ln x on ln P - ln p for p <= 1/2, on ln Q - ln(1-p)
    above; the derivative of ln P is x^m e^-x / (Gamma(m) P), of ln Q the
    same over Q with the opposite sign.  ln Z has a log-concave density,
    so both are concave in t, and from a start on the far side of the
    root the iterates move to it monotonically.  The starts are on that
    side by two bounds: P <= x^m/Gamma(m+1), and Chernoff's
    exp(-m h(x/m)), h(u) = u - 1 - ln u, on either tail, which is at most
    exp(-m s) at u = 1 - sqrt(2s) and at u = 1 + s + sqrt(2s), with
    s = -ln(p)/m below the median and -ln(1-p)/m above it.  Every probe
    also narrows a bracket, and a step that leaves it bisects.
    """
    lower = p <= 0.5
    target = math.log(p) if lower else math.log1p(-p)
    s = -target / m
    r = math.sqrt(2.0 * s)
    if lower:
        t = (target + math.lgamma(m) + math.log(m)) / m
        if r < 1.0:
            t = max(t, math.log(m) + math.log1p(-r))
    else:
        t = math.log(m) + math.log1p(s + r)
    lo, hi = -math.inf, math.inf
    for _ in range(_QUANTILE_MAX_ITER):
        x = math.exp(t)
        ln_f = _ln_gamma_pq(m, x, t)[0 if lower else 1]
        # Positive below the root on either tail: ln P rises in t, ln Q falls.
        gap = target - ln_f if lower else ln_f - target
        if gap > 0:
            lo = t
        else:
            hi = t
        tol = _LN_X_TOL * max(abs(t), 1.0)
        step = gap / math.exp(_ln_gamma_front(m, x, t) - ln_f)
        if not (abs(step) <= tol or lo < t + step < hi):
            step = 0.5 * (lo + hi) - t
        t += step
        if abs(step) <= tol or hi - lo <= tol:
            break
    return t


class _Groups:
    """A model's expectation nodes in groups hung from the top down, with the
    sums at each group's lower edge that the threshold solves read, all
    built at once.

    Group j holds the nodes at or above its lower edge ell[j] and below
    ell[j-1]: a 16-node grid panel, the partial panel above the model's
    floor, or one atom on its edge.  Column j of sums runs over groups
    0..j, with d = u - ell[j] >= 0 and v = w/z:

        sum v, sum w, sum v d, sum v d^2, sum w d.

    Each is carried from edge j-1 to edge j by shifting d by
    ell[j-1] - ell[j], a recurrence of nonnegative terms, so nothing
    cancels.  Thresholds from ell[first] up see no nodes (for panels,
    from e times upper_cutoff() up); with panels, a threshold between two
    edges adds one partial panel up to the edge above it.
    """

    def __init__(self, ell, u, ln_w, first: int, panels: bool):
        self.ell, self.size, self.first, self.panels = ell, len(ell), first, panels
        self.d = d = u - ell[:, None]
        self.v = v = np.exp(ln_w - u)
        self.w = w = np.exp(ln_w)
        delta = -np.diff(ell, prepend=ell[:1])
        vd = v * d

        def carry(own):
            return np.add.accumulate(np.append(0.0, own))

        cv, cw = carry(v.sum(1)), carry(w.sum(1))
        d1 = carry(vd.sum(1) + delta * cv[:-1])
        d2 = carry((vd * d).sum(1) + delta * (2.0 * d1[:-1] + delta * cv[:-1]))
        wd = carry((w * d).sum(1) + delta * cw[:-1])
        self.sums = np.array((cv, cw, d1, d2, wd))[:, 1:]

    def tilted(self, s: np.ndarray, weight: str, depth=None):
        """Per exponent s[i], the tilted sums at every edge from the top down
        to edge depth[i] - 1 (depth[i] <= size; every edge without depth):
        yields (start, idx, T) with T[k, n] = sum om expm1(s[idx[k]] d) at
        edge start + n, om = v (the mean power) or w (the CSIT rate at weak
        QoS) as weight says.  depth is read before each chunk, so search,
        which owns its depth array, retires exponent i by setting depth[i]
        to 0.

        Within a block of min(_BLOCK, size) groups each group is shifted
        straight to each edge below it, through expm1(s(d + D)) = expm1(s d)
        + expm1(s D) exp(s d); the sums at the last edge of a block carry
        into the next, per exponent.  The terms share the sign of s, so
        nothing cancels.  Blocks start at fixed groups; a chunk of blocks,
        doubling up to _BLOCK / (live exponents) blocks and ending at the
        deepest live depth, runs in passes of at most _PASS exponents, each
        one set of array operations.  So a sum depends neither on how deep
        the caller reads nor on the other exponents, and no temporary is
        larger than _PASS x 16 x 16.
        """
        j = "vw".index(weight)
        om, total = (self.v, self.w)[j], self.sums[j]
        depth = np.full(len(s), self.size) if depth is None else depth
        # The sums at the last edge read so far, per exponent.
        t_c = np.zeros((len(s), 1))
        width = min(_BLOCK, self.size)
        below = np.tri(width, dtype=bool)
        start, step = 0, width
        while (live := np.flatnonzero(depth > start)).size:
            stop = min(start + step, int(depth[live].max()))
            pad = -(stop - start) % width
            ell, d, w = (
                np.concatenate((a[start:stop], np.repeat(a[stop - 1 : stop], pad, 0)))
                .reshape(-1, width, *a.shape[1:])
                for a in (self.ell, self.d, om)
            )
            w[-1, width - pad :] = 0.0
            shift = np.where(below, ell[:, None, :] - ell[:, :, None], 0.0)
            for idx in np.split(live, range(_PASS, live.size, _PASS)):
                t = _block_sums(s[idx, None, None, None], d, w, shift, below)
                c = t_c[idx]
                for b in range(ell.shape[0]):
                    edge = start + b * width
                    if edge:
                        up = s[idx, None] * (self.ell[edge - 1] - ell[b])
                        t[:, b] += c + np.expm1(up) * (total[edge - 1] + c)
                    c = t[:, b, -1:]
                t_c[idx] = c
                yield start, idx, t.reshape(len(idx), -1)[:, : stop - start]
            start, step = stop, min(2 * step, width * max(1, _BLOCK // live.size))

    def search(self, s: np.ndarray, target: np.ndarray, group: np.ndarray):
        """(j, f_above, f_at) per row for the mean power f, the tilted sum of
        v with exponent s[group[i]] for row i, which grows from edge to edge
        down the groups.  j is the first edge from first on with f >=
        target (size when none); f_above and f_at are f at edges j-1 and j
        (0 where there is none).  Each exponent is read only until every
        row of it is placed."""
        j, open_ = np.full(len(target), self.size), np.ones(len(target), dtype=bool)
        f_above, f_at, last = np.zeros((3, len(target)))
        left = np.bincount(group, minlength=len(s))
        depth, at = np.full(len(s), self.size), np.full(len(s), -1)
        for start, idx, f in self.tilted(s, "v", depth):
            at[idx] = np.arange(len(idx))
            rows = np.flatnonzero(open_ & (at[group] >= 0))
            fr = f[at[group[rows]]]
            at[idx] = -1
            edge = start + np.arange(f.shape[1])
            hit = (fr >= target[rows, None]) & (edge >= self.first)
            got = np.flatnonzero(hit.any(1))
            k, placed = hit[got].argmax(1), rows[got]
            j[placed], f_at[placed] = start + k, fr[got, k]
            f_above[placed] = np.where(k > 0, fr[got, k - 1], last[placed])
            open_[placed] = False
            last[rows] = fr[:, -1]
            left -= np.bincount(group[placed], minlength=len(s))
            depth[left == 0] = 0
        f_above[open_] = last[open_]
        return j, f_above, f_at


def _block_sums(s4, d, w, shift, below):
    """The tilted sums of _Groups.tilted within each block, before the
    carries, per exponent s4, block and edge.  Its temporaries,
    len(s4) x blocks x 16 x 16, are gone when it returns.  Where s D
    passes ln DBL_MAX (a table's atoms more than e^709 apart), expm1(s D)
    gx is exp(s D + ln gx), in the doubles wherever the product is."""
    sd = s4 * d
    gt = (w * np.expm1(sd)).sum(-1)[:, :, None, :]
    gx = (w * np.exp(sd)).sum(-1)[:, :, None, :]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        carried = np.expm1(s4 * shift) * gx
        if s4.max() * shift.max() > _LN_MAX:
            carried = np.where(np.isfinite(carried), carried, np.exp(s4 * shift + np.log(gx)))
    return np.where(below, gt + carried, 0.0).sum(-1)


class FadingModel(abc.ABC):
    """Distribution of the instantaneous channel power gain z."""

    kind: str
    mean: float  # E{z}

    @property
    def unit(self) -> tuple["FadingModel", float]:
        """(law, mu) with z = mu t, t of law: the mean-1 law of the model's
        shape and its mean.  A table is its own law at mu = 1: rescaling
        its atoms would move its bits."""
        return self, 1.0

    @property
    @abc.abstractmethod
    def kappa(self) -> float:
        """E{z^2}/E{z}^2, formed without squaring a gain."""

    @property
    @abc.abstractmethod
    def z_min(self) -> float:
        """Infimum of the support."""

    @property
    @abc.abstractmethod
    def z_max(self) -> float:
        """Essential supremum of the support (may be inf)."""

    @abc.abstractmethod
    def density(self, z: float) -> float:
        """p_z(z); 0 outside the support, inf at a point mass."""

    @abc.abstractmethod
    def cdf(self, z: float) -> float:
        """P(Z < z), strict inequality."""

    @abc.abstractmethod
    def log_nodes(self, ln_lower: float) -> tuple[np.ndarray, np.ndarray]:
        """(u, ln_w) with E{g(z) 1{z >= exp(ln_lower)}} = sum exp(ln_w) g(exp(u)).

        ln_lower = -inf takes the whole support, a zero gain included.
        """

    @abc.abstractmethod
    def expect_above(self, g, lower: float = 0.0) -> float:
        """E{g(z) 1{z >= lower}} by adaptive quadrature or exact sums.

        The scalar-callback reference for log_nodes, which tests compare
        against; the package itself computes expectations from log_nodes.
        QUADPACK, behind the continuous models, can be wrong without
        raising for a sharp integrand (see NakagamiM.expect_above).
        """

    def moments(self) -> tuple[float, float]:
        """(E{z}, E{z^2}), with E{z^2} = E{z} kappa E{z}; NumericalError
        where E{z^2} is not a normal double."""
        m2 = self.mean * self.kappa * self.mean
        if not _MIN_NORMAL <= m2 < math.inf:
            raise NumericalError(f"E{{z^2}} = {m2:g} of {self!r} leaves the normal doubles")
        return self.mean, m2

    @abc.abstractmethod
    def laplace(self, c: float) -> tuple[float, float]:
        """The wideband CSIR pair (r, S0) at 0 <= c < inf: r = -ln L / c and
        S0 = 2 L r^2 / E{z^2 exp(-c z)}, L = E{exp(-c z)}, which reach E{z}
        and 2 E{z}^2/E{z^2} as c z rounds away; S0 is inf past the doubles."""

    @abc.abstractmethod
    def inverse_moment(self) -> float:
        """E{1/z}; inf when the integral diverges."""

    @abc.abstractmethod
    def quantile(self, p: float) -> float:
        """Smallest z with P(Z <= z) >= p."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size=None):
        """Draw i.i.d. gains; identical generator state gives identical draws."""

    def prob_mass_at(self, z: float) -> float:
        """P(Z = z); 0 for continuous models."""
        return 0.0

    # x below which the whole-support mean of (1 + xz)^-1 resolves: every
    # finite x for a table, whose support_nodes are exact.
    _x_lumped = math.inf

    def _check_lumped(self, x: float, beta: float) -> None:
        """Raise NumericalError unless the CSIR rate's whole-support mean of
        (1 + xz)^-beta, x = snr, resolves: x < _x_lumped / max(1, beta)."""
        if not x < self._x_lumped / (beta if beta > 1.0 else 1.0):
            what = "E{(1 + x z)^-beta} at x = snr"
            raise NumericalError(
                f"{what} overflows: x = inf" if x == math.inf else
                f"{what} is not resolved: x s = {x * self.scale:g} is past "
                f"{_LUMP_XS / max(1.0, beta):g}, where the mass below scale "
                "1e-30, on one node, moves it"
            )

    def upper_cutoff(self) -> float:
        """Truncation point: z_max if finite, else the 1 - TAIL_MASS quantile."""
        return self._upper_cutoff

    @functools.cached_property
    def _upper_cutoff(self) -> float:
        if math.isfinite(self.z_max):
            return self.z_max
        return self.quantile(1.0 - TAIL_MASS)

    @functools.cached_property
    def support_nodes(self) -> tuple[np.ndarray, ...]:
        """(u, ln_w, z, w) of log_nodes(-inf), with z = exp(u) and w = exp(ln_w)
        (a table's own atoms and probabilities), built once, read-only."""
        nodes = self._support_nodes()
        for a in nodes:
            a.flags.writeable = False
        return nodes

    @abc.abstractmethod
    def _support_nodes(self) -> tuple[np.ndarray, ...]:
        """The arrays of support_nodes."""

    def ln_cdf(self, ln_z: float) -> float:
        """ln P(Z < exp(ln_z)); -inf when that probability is 0.

        Below the smallest double, P(Z < z) is the probability mass at 0.
        """
        z = math.exp(ln_z)
        f = self.cdf(z) if z > 0 else self.prob_mass_at(0.0)
        return math.log(f) if f > 0 else -math.inf


@dataclass(frozen=True)
class NakagamiM(FadingModel):
    """Power gain under Nakagami-m fading: Gamma with shape m and mean as given,
    the one law with a density, which holds the node grid in ln z.

    m = 1 is the Rayleigh (exponential) gain law; Rayleigh is that case.
    """

    m: float
    mean: float = 1.0
    kind = "nakagami"

    def __post_init__(self):
        if not (self.m >= 0.5 and math.isfinite(self.m)):
            raise ValueError(f"shape m must be >= 0.5, got {self.m}")
        if not (self.mean > 0 and math.isfinite(self.mean)):
            raise ValueError(f"mean must be positive and finite, got {self.mean}")

    @property
    def scale(self) -> float:
        return self.mean / self.m

    @property
    def unit(self) -> tuple[FadingModel, float]:
        return (self, 1.0) if self.mean == 1.0 else (self._unit_law, self.mean)

    @functools.cached_property
    def _unit_law(self) -> "NakagamiM":
        """The mean-1 law, built once, so its nodes are; a mean-1 law does
        not hold itself, which would keep it alive until a cyclic GC."""
        return replace(self, mean=1.0)

    @property
    def kappa(self) -> float:
        """(m + 1)/m, E{t^2} of the mean-1 law."""
        return (self.m + 1.0) / self.m

    @property
    def z_min(self) -> float:
        return 0.0

    @property
    def z_max(self) -> float:
        return math.inf

    def density(self, z: float) -> float:
        if z < 0:
            return 0.0
        if z == 0:
            if self.m > 1:
                return 0.0
            if self.m == 1:
                return 1.0 / self.scale
            return math.inf
        logp = (
            (self.m - 1.0) * math.log(z)
            - z / self.scale
            - math.lgamma(self.m)
            - self.m * math.log(self.scale)
        )
        return math.exp(logp)

    def cdf(self, z: float) -> float:
        if z <= 0:
            return 0.0
        x = z / self.scale
        ln_p, ln_q = _ln_gamma_pq(self.m, x, math.log(x) if x != 0 else -math.inf)
        prob = math.exp(ln_p)
        return prob if prob < 0.5 else -math.expm1(ln_q)

    def _ln_zp(self, u: np.ndarray) -> np.ndarray:
        """ln(z p_z(z)) at z = exp(u), vectorised: m u - z/s - lgamma(m)
        - m ln s, in place and in that order."""
        out = np.exp(u)
        out /= -self.scale
        out += self.m * u
        out -= math.lgamma(self.m)
        out -= self.m * math.log(self.scale)
        return out

    @functools.cached_property
    def _ln_z_top(self) -> float:
        """ln z at the top of the grid, e^2 times upper_cutoff()."""
        return math.log(self.upper_cutoff()) + 2.0 * _LN_TAIL_PAD

    @functools.cached_property
    def _ln_z_floor(self) -> float:
        """ln of the threshold nodes' floor: 1e-280, or s 1e-30 below it."""
        return min(_LN_Z_FLOOR, math.log(self.scale) + _LN_Z_WHOLE)

    @functools.cached_property
    def _grid(self) -> tuple[np.ndarray, ...]:
        """(ell, u, ln_w) of every grid panel, one row each from the top down
        past _ln_z_floor: 0.25 wide down to the cut, the lowest such edge at
        or above ln s, and W wide below it."""
        top, ln_s = self._ln_z_top, math.log(self.scale)
        lattice = top - np.arange(1, (top - ln_s) // _PANEL + 2) * _PANEL
        ell = lattice[lattice >= ln_s]
        u = ell[:, None] + _PANEL_U
        ln_w = self._ln_zp(u) + _PANEL_LN_W
        cut, width = ell[-1], min(2.0, max(_PANEL, 2.0 / self.m))
        edges = cut - width * np.arange((cut - self._ln_z_floor) // width + 2)
        u_low, ln_w_low = self._partial(edges[1:], edges[:-1])
        return np.append(ell, edges[1:]), np.vstack((u, u_low)), np.vstack((ln_w, ln_w_low))

    def _partial(self, lo, edge) -> tuple[np.ndarray, np.ndarray]:
        """One Gauss-Legendre panel from each lo up to its edge, one row each;
        a panel of width 0 has weights 0."""
        width = np.subtract(edge, lo)[..., None]
        with np.errstate(divide="ignore"):
            ln_width = np.log(width)
        u = np.asarray(lo)[..., None] + width * _GL_T
        return u, self._ln_zp(u) + (ln_width + _GL_LN_W)

    def _rows_from(self, lo: float) -> tuple[np.ndarray, ...]:
        """(ell, u, ln_w) of the panels above lo, one row each from the top
        down, the last one partial from lo up to the grid edge above it
        (none when lo is on an edge); no rows from e times upper_cutoff() up."""
        if not lo < self._ln_z_top - _LN_TAIL_PAD:
            return np.empty(0), np.empty((0, _GL_N)), np.empty((0, _GL_N))
        ell, u, ln_w = self._grid
        n = np.count_nonzero(ell >= lo)
        ell, u, ln_w = ell[:n], u[:n], ln_w[:n]
        if ell[-1] == lo:
            return ell, u, ln_w
        u_part, ln_w_part = self._partial(lo, ell[-1])
        return np.append(ell, lo), np.vstack((u, u_part)), np.vstack((ln_w, ln_w_part))

    def _nodes_from(self, lo: float) -> tuple[np.ndarray, np.ndarray]:
        """The nodes of _rows_from(lo), from the bottom up."""
        _, u, ln_w = self._rows_from(lo)
        return u[::-1].ravel(), ln_w[::-1].ravel()

    @functools.cached_property
    def _groups(self) -> _Groups:
        """The grid panels down to _ln_z_floor as groups, then the partial
        panel above the floor when the floor is not on an edge."""
        first = round(_LN_TAIL_PAD / _PANEL) - 1
        groups = _Groups(*self._rows_from(self._ln_z_floor), first, True)
        self._check_mass(groups.sums[1, -1])
        return groups

    def _check_mass(self, mass: float) -> None:
        """Raise NumericalError unless a node set's weights sum to 1 within
        TAIL_MASS; from m of about 800 up the 16-node panels miss more."""
        if not abs(1.0 - mass) <= TAIL_MASS:
            raise NumericalError(
                f"the expectation nodes of the Nakagami law at m = {self.m:g} hold "
                f"{mass:.17g} of its mass, not 1 to {TAIL_MASS:g}"
            )

    def _ln_inverse_below(self, ln_f: float, y: np.ndarray) -> np.ndarray:
        """ln of a bound on E{1/z ; f e^-y <= z < f} for each y >= 0: the
        integral of z^(m-2) / (Gamma(m) s^m), the density over z without
        its factor e^(-z/s) <= 1, which is f^(m-1) (1 - e^((1-m) y))/(m-1),
        and y at m = 1."""
        k = self.m - 1.0
        with np.errstate(divide="ignore", over="ignore"):
            if k == 0.0:
                ln_int = np.log(y)
            else:
                ln_int = np.log(-np.expm1(-abs(k) * y) / abs(k))
        if k < 0.0:
            ln_int -= k * y
        return k * ln_f + ln_int - math.lgamma(self.m) - self.m * math.log(self.scale)

    @functools.cached_property
    def _x_lumped(self) -> float:
        return _LUMP_XS / self.scale

    def _support_nodes(self) -> tuple[np.ndarray, ...]:
        lo = math.log(self.scale) + _LN_Z_WHOLE
        u, ln_w = self._nodes_from(lo)
        # One node on the floor carries the mass below it, P(Z < s 1e-30).
        u, ln_w = np.append(lo, u), np.append(self.ln_cdf(lo), ln_w)
        w = np.exp(ln_w)
        self._check_mass(float(w.sum()))
        return u, ln_w, np.exp(u), w

    def log_nodes(self, ln_lower: float) -> tuple[np.ndarray, np.ndarray]:
        if ln_lower == -math.inf:
            return self.support_nodes[:2]
        return self._nodes_from(max(ln_lower, self._ln_z_floor))

    def expect_above(self, g, lower: float = 0.0) -> float:
        """QUADPACK to a relative 1e-11 on [max(lower, z_min), upper_cutoff()].

        Raises NonIntegrable only when QUADPACK reports a failure.  A sharp
        integrand can come back wrong without one: Rayleigh
        E{(1+100 z)^-30} is 5e15 times too small, Nakagami-0.5
        E{(1+z)^-2900} 2.5e66 times.  Tests compare against it only where
        it converges.  scipy is imported on the first call.
        """
        lo = max(lower, self.z_min)
        hi = self.upper_cutoff()
        if lo >= hi:
            return 0.0
        out = quad(
            lambda z: g(z) * self.density(z),
            lo,
            hi,
            epsabs=1e-16,
            epsrel=DEFAULT_QUAD_TOL,
            limit=400,
            full_output=1,
        )
        value, abserr = out[0], out[1]
        if not math.isfinite(value):
            raise NonIntegrable(f"integral of g against {self.kind} density is not finite")
        if len(out) > 3 and abserr > 1e-7 * max(abs(value), 1.0):
            raise NonIntegrable(
                f"quadrature on [{lo:g}, {hi:g}] did not converge: "
                f"estimate {value:g}, error {abserr:g}"
            )
        return value

    def laplace(self, c: float) -> tuple[float, float]:
        """L = (1 + x)^-m with x = c s, so r = m log1p(x)/c and, as
        E{z^2 exp(-c z)} = m (m + 1) s^2 (1 + x)^(-m-2),
        S0 = (2m/(m+1)) (log1p(x) (1 + 1/x))^2.  r is formed as
        mean log1p(x)/x, which is mean at x = 0, and where x overflows
        log1p(x) is ln c + ln s and 1/x is 0."""
        x = c * self.scale
        if x < math.inf:
            lp = math.log1p(x)
            q = lp / x if x else 1.0
            r = self.mean * q
        else:
            lp, q = math.log(c) + math.log(self.scale), 0.0
            r = self.m * lp / c
        return r, 2.0 / (1.0 + 1.0 / self.m) * (lp + q) ** 2

    def inverse_moment(self) -> float:
        if self.m <= 1.0:
            return math.inf
        return 1.0 / (self.scale * (self.m - 1.0))

    def quantile(self, p: float) -> float:
        if not 0.0 <= p < 1.0:
            if p == 1.0:
                return math.inf
            raise ValueError(f"quantile level must be in [0, 1], got {p}")
        if p == 0.0:
            return 0.0
        return math.exp(_ln_gamma_quantile(self.m, p)) * self.scale

    def sample(self, rng: np.random.Generator, size=None):
        return rng.gamma(self.m, self.scale, size=size)


# perfbench/tracer.py wraps expect_above on this name; it goes with the tracer.
_ContinuousModel = NakagamiM


@dataclass(frozen=True)
class Rayleigh(NakagamiM):
    """Power gain of a Rayleigh-faded link: exponential with the given mean,
    NakagamiM at m = 1 with the exponential's closed-form CDF, quantile and sampler."""

    m: float = field(default=1.0, init=False, repr=False)
    kind = "rayleigh"

    def cdf(self, z: float) -> float:
        if z <= 0:
            return 0.0
        return -math.expm1(-z / self.mean)

    def quantile(self, p: float) -> float:
        if 0.0 <= p < 1.0:
            return -self.mean * math.log1p(-p)
        return super().quantile(p)

    def sample(self, rng: np.random.Generator, size=None):
        # The bits of rng.exponential(self.mean, size), without its per-draw
        # scaling: one standard draw per gain, scaled in place.
        z = rng.standard_exponential(size)
        z *= self.mean
        return z


class BoundedTable(FadingModel):
    """Finite discrete gain law given as (z, prob) pairs with strictly
    increasing finite z >= 0 and finite probabilities summing to 1, some of
    it on a positive z.  zs and ps keep only the atoms with probability,
    which are the law: repr and == show them, and expectations are exact
    sums over them."""

    kind = "table"

    def __init__(self, points):
        pts = [(float(z), float(p)) for z, p in points]
        if not pts:
            raise ValueError("table must have at least one (z, prob) point")
        zs = np.array([z for z, _ in pts])
        ps = np.array([p for _, p in pts])
        if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(ps))):
            raise ValueError("table z values and probabilities must be finite")
        if np.any(zs < 0):
            raise ValueError("table z values must be >= 0")
        if np.any(np.diff(zs) <= 0):
            raise ValueError("table z values must be strictly increasing")
        if np.any(ps < 0):
            raise ValueError("table probabilities must be >= 0")
        if abs(ps.sum() - 1.0) > 1e-9:
            raise ValueError(f"table probabilities must sum to 1, got {ps.sum()!r}")
        if not np.any((zs > 0) & (ps > 0)):
            raise ValueError("table needs positive probability on a positive z value")
        keep = ps > 0
        self.zs, self.ps = zs[keep], ps[keep]
        # read-only, as support_nodes, whose z and w they are, makes them
        self.zs.flags.writeable = self.ps.flags.writeable = False

    def __repr__(self):
        pts = ", ".join(f"({z:g}, {p:g})" for z, p in zip(self.zs, self.ps))
        return f"BoundedTable([{pts}])"

    def __eq__(self, other):
        return (
            isinstance(other, BoundedTable)
            and np.array_equal(self.zs, other.zs)
            and np.array_equal(self.ps, other.ps)
        )

    @property
    def z_min(self) -> float:
        return float(self.zs[0])

    @property
    def z_max(self) -> float:
        return float(self.zs[-1])

    def density(self, z: float) -> float:
        return math.inf if self.prob_mass_at(z) > 0 else 0.0

    def cdf(self, z: float) -> float:
        return float(self.ps[self.zs < z].sum())

    def log_nodes(self, ln_lower: float) -> tuple[np.ndarray, np.ndarray]:
        u, ln_w = self.support_nodes[:2]
        above = u >= ln_lower
        return u[above], ln_w[above]

    def _support_nodes(self) -> tuple[np.ndarray, ...]:
        with np.errstate(divide="ignore"):
            return np.log(self.zs), np.log(self.ps), self.zs, self.ps

    @functools.cached_property
    def _groups(self) -> _Groups:
        """The atoms with a positive gain, one group each, from the top down."""
        start = int(self.zs[0] == 0)  # a zero gain has u = -inf
        u, ln_w = (a[start:][::-1, None] for a in self.support_nodes[:2])
        return _Groups(u[:, 0], u, ln_w, 0, False)

    def expect_above(self, g, lower: float = 0.0) -> float:
        mask = self.zs >= lower
        if not mask.any():
            return 0.0
        return float(sum(p * g(z) for z, p in zip(self.zs[mask], self.ps[mask])))

    @functools.cached_property
    def mean(self) -> float:
        return float(self.ps @ self.zs)

    @functools.cached_property
    def kappa(self) -> float:
        """From the atoms over the top atom, y = z/z_max: E{y^2}/E{y}/E{y},
        at least 1 (Jensen)."""
        y = self.zs / self.zs[-1]
        e1 = float(self.ps @ y)
        return max(1.0, float(self.ps @ (y * y)) / e1 / e1)

    def laplace(self, c: float) -> tuple[float, float]:
        """The atom sums, with h = -c z: r = E{z phi(c z)} ln L / (L - 1),
        phi(x) = -expm1(-x)/x, phi(0) = 1, which stays finite, at E{z}, as
        c z rounds away.  Where c times the top atom passes the doubles, h
        is -inf from c z = DBL_MAX/e up, where exp and expm1 of -c z are 0
        and -1 all the same, and z phi(c z) is -expm1(-c z)/c.  Where every
        atom is past that, none at 0, exp(-c z0) of the least atom z0 is all
        of L to the last digit, so r = z0 and S0 = 2, as for a point mass.
        NumericalError unless 0 < r < inf."""
        u, ln_w, z, w = self.support_nodes
        if c * float(z[-1]) < math.inf:
            h = -c * z
            em1 = np.expm1(h)
            z_phi = z * np.divide(em1, h, out=np.ones_like(h), where=h < 0)
        elif (below := u < (_LN_MAX - 1.0) - math.log(c)).any():
            h = np.multiply(-c, z, out=np.full_like(z, -np.inf), where=below)
            em1 = np.expm1(h)
            z_phi = -em1 / c
        else:
            return float(z[0]), 2.0
        ln_l = _ln_mean_exp(ln_w, h, w, em1)
        r = float(np.dot(w, z_phi)) * (ln_l / math.expm1(ln_l) if ln_l else 1.0)
        if not 0 < r < math.inf:
            raise NumericalError(f"-ln E{{exp(-c z)}}/c = {r:g} at c = {c:g} is not a "
                                 "positive finite double")
        ln_s0 = math.log(2.0) + 2.0 * math.log(r) - _logsumexp(ln_w + h - ln_l + 2.0 * u)
        return r, math.exp(ln_s0) if ln_s0 < _LN_MAX else math.inf

    def inverse_moment(self) -> float:
        if self.zs[0] == 0:
            return math.inf
        return float(np.sum(self.ps / self.zs))

    def quantile(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile level must be in [0, 1], got {p}")
        # The slack absorbs the rounding of cumsum (0.7 + 0.2 is 0.8999999999999999).
        idx = int(np.searchsorted(np.cumsum(self.ps), p - 1e-15))
        return float(self.zs[min(idx, len(self.zs) - 1)])

    def prob_mass_at(self, z: float) -> float:
        hit = self.zs == z
        return float(self.ps[hit].sum()) if hit.any() else 0.0

    def sample(self, rng: np.random.Generator, size=None):
        return rng.choice(self.zs, size=size, p=self.ps)


class Deterministic(BoundedTable):
    """Unfaded channel: the one-atom table with all probability mass at z0."""

    kind = "deterministic"

    def __init__(self, z0: float):
        if not (z0 > 0 and math.isfinite(z0)):
            raise ValueError(f"z0 must be positive and finite, got {z0}")
        super().__init__([(z0, 1.0)])

    def __repr__(self):
        return f"Deterministic(z0={self.z0!r})"

    @property
    def z0(self) -> float:
        return float(self.zs[0])

    # Bound here as well, because perfbench/tracer.py wraps expect_above
    # and sample where each model class itself defines them.
    expect_above = BoundedTable.expect_above

    def sample(self, rng: np.random.Generator, size=None):
        """z0 for every draw; a constant gain draws nothing from rng."""
        if size is None:
            return self.z0
        return np.full(size, self.z0)


# kind -> (class, {key: default}).  None marks a required key; a tuple marks
# the list of [z, p] number pairs; every other key is a number.  A null
# value takes the key's default.
_MODELS = {
    "rayleigh": (Rayleigh, {"mean": 1.0}),
    "nakagami": (NakagamiM, {"m": None, "mean": 1.0}),
    "deterministic": (Deterministic, {"z0": None}),
    "table": (BoundedTable, {"points": ()}),
}


def _is_number(x) -> bool:
    """A real number that is not a boolean: what a JSON number parses to."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def from_config(config: dict) -> FadingModel:
    """Build a model from a {"kind": ..., ...} mapping; unknown keys are errors."""
    if not isinstance(config, dict):
        raise ValueError(f"model config must be a mapping, got {type(config).__name__}")
    kind = config.get("kind")
    if kind not in _MODELS:
        raise ValueError(
            f"unknown model kind {kind!r}; expected one of {sorted(_MODELS)}"
        )
    cls, defaults = _MODELS[kind]
    extra = set(config) - {"kind"} - set(defaults)
    if extra:
        raise ValueError(f"unknown keys for model {kind!r}: {sorted(extra)}")
    args = {}
    for key, default in defaults.items():
        val = config.get(key)
        if val is None and default is None:
            raise ValueError(f"{kind} model requires the key {key!r}")
        val = default if val is None else val
        if isinstance(default, tuple):
            if not isinstance(val, (list, tuple)) or not all(
                isinstance(pt, (list, tuple)) and len(pt) == 2 and all(map(_is_number, pt))
                for pt in val
            ):
                raise ValueError(f"{key} must be a list of [z, p] number pairs, got {val!r}")
        elif not _is_number(val):
            raise ValueError(f"{key}: {val!r} is not a number")
        args[key] = val if isinstance(default, tuple) else float(val)
    return cls(**args)
