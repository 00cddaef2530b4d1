"""Log-space piecewise-exponential densities.

Every local conditional of the Gibbs sampler (paper Eq. 2) has the form

    g(x) = exp(phi(x))      on (L, U),

where ``phi`` is continuous piecewise linear: the two max-terms in Eq. (2)
switch on at the breakpoints ``A = min(a_{rho^{-1}(pi(e))}, d_{rho(e)})``
and ``B = max(...)``, splitting the support into at most three exponential
pieces whose masses are the paper's ``Z1, Z2, Z3``.

This module implements that family in full generality (any number of
pieces, optional unbounded right tail) with log-space normalization, so the
sampler stays exact when ``rate * width`` is extreme in either direction —
the regime where a naive transcription of Eq. (3) overflows ``exp``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import InferenceError
from repro.rng import RandomState, as_generator

#: Slopes with |slope * width| below this are treated as exactly zero
#: (uniform piece); the relative error committed is of the same order.
_FLAT_EPS = 1e-13


def _log_integral_exp(slope: float, width: float) -> float:
    """``log ∫_0^width exp(slope * x) dx`` computed stably.

    Handles the flat case and both signs of the slope without overflow:
    for ``slope > 0`` the integral is written ``exp(slope*width) *
    (1 - exp(-slope*width)) / slope`` so only the log of the leading factor
    grows.

    This is the scalar *reference* implementation; :func:`log_integral_exp`
    is the vectorized equivalent used by the array sweep kernel.  The two
    share ``_FLAT_EPS`` and branch on exactly the same ``slope * width``
    product, so they take the same branch on every input and agree to within
    one ulp everywhere — bitwise at the flat transition, where both reduce
    to ``log(width)`` — which ``tests/inference/test_piecewise_properties.py``
    pins down.
    """
    if width <= 0.0:
        return -math.inf
    if math.isinf(width):
        if slope >= 0.0:
            raise InferenceError("unbounded piece needs a strictly negative slope")
        return -math.log(-slope)
    z = slope * width
    if abs(z) < _FLAT_EPS:
        return math.log(width)
    if slope > 0.0:
        return z + math.log(-math.expm1(-z)) - math.log(slope)
    return math.log(-math.expm1(z)) - math.log(-slope)


def log_integral_exp(slopes: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_log_integral_exp` over parallel slope/width arrays.

    Zero (or negative) widths yield ``-inf``; infinite widths require a
    strictly negative slope and yield ``-log(-slope)``.  Every branch uses
    the same formulas and the same ``_FLAT_EPS`` threshold on the same
    ``slope * width`` product as the scalar reference, so the two take the
    same branch everywhere and agree to within one ulp; the unbounded
    branch, which uses libm's log like the scalar, agrees bitwise.
    """
    slopes = np.asarray(slopes, dtype=float)
    widths = np.asarray(widths, dtype=float)
    slopes, widths = np.broadcast_arrays(slopes, widths)
    unbounded = np.isinf(widths) & (widths > 0.0)
    if np.any(unbounded & (slopes >= 0.0)):
        raise InferenceError("unbounded piece needs a strictly negative slope")
    out = np.full(slopes.shape, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = slopes * widths
        positive = widths > 0.0
        bounded = positive & ~unbounded
        flat = bounded & (np.abs(z) < _FLAT_EPS)
        rising = bounded & ~flat & (slopes > 0.0)
        falling = bounded & ~flat & (slopes <= 0.0)
        np.copyto(out, np.log(widths), where=flat)
        np.copyto(
            out,
            z + np.log(-np.expm1(-z)) - np.log(slopes),
            where=rising,
        )
        np.copyto(
            out,
            np.log(-np.expm1(z)) - np.log(-slopes),
            where=falling,
        )
        if unbounded.any():
            # libm's log, not numpy's: the SIMD np.log differs from it by an
            # ulp on ~0.02% of inputs, and this branch is the scalar's bitwise.
            out[unbounded] = [-math.log(-s) for s in slopes[unbounded].tolist()]
    return out


class PiecewiseExponential:
    """A density proportional to ``exp(phi(x))``, phi continuous piecewise linear.

    Parameters
    ----------
    knots:
        Increasing sequence ``t_0 < t_1 < ... < t_k``; support is
        ``(t_0, t_k)``.  ``t_k`` may be ``+inf`` if the last slope is
        negative.  Zero-width pieces are dropped.
    slopes:
        Slope of ``phi`` on each of the ``k`` pieces.

    Notes
    -----
    ``phi(t_0)`` is fixed at 0; the class normalizes internally.  Piece
    masses are exposed via :attr:`piece_log_masses` and
    :meth:`piece_probabilities` — for the three-piece Gibbs conditional
    these are exactly ``log Z1..Z3`` and ``Z1/Z, Z2/Z, Z3/Z`` of the paper.
    """

    __slots__ = ("knots", "slopes", "_phi_at_knots", "piece_log_masses", "log_z")

    def __init__(self, knots: Sequence[float], slopes: Sequence[float]) -> None:
        knots_arr = [float(t) for t in knots]
        slopes_arr = [float(c) for c in slopes]
        if len(knots_arr) < 2 or len(slopes_arr) != len(knots_arr) - 1:
            raise InferenceError(
                f"need k+1 knots for k slopes, got {len(knots_arr)} knots, "
                f"{len(slopes_arr)} slopes"
            )
        if not math.isfinite(knots_arr[0]):
            raise InferenceError("the left endpoint must be finite")
        # Drop zero-width pieces, keep strictly increasing knots.
        clean_knots = [knots_arr[0]]
        clean_slopes: list[float] = []
        for t, c in zip(knots_arr[1:], slopes_arr):
            if not (t >= clean_knots[-1]):
                raise InferenceError(f"knots must be nondecreasing, got {knots_arr}")
            if t > clean_knots[-1]:
                clean_knots.append(t)
                clean_slopes.append(c)
        if len(clean_knots) < 2:
            raise InferenceError(f"support is empty: knots {knots_arr}")
        if math.isinf(clean_knots[-1]) and clean_slopes[-1] >= 0.0:
            raise InferenceError("an infinite right tail requires a negative final slope")
        self.knots = clean_knots
        self.slopes = clean_slopes
        # phi at each knot, phi(t_0) = 0.
        phi = [0.0]
        for i, c in enumerate(clean_slopes):
            width = clean_knots[i + 1] - clean_knots[i]
            phi.append(phi[-1] + c * width if math.isfinite(width) else -math.inf)
        self._phi_at_knots = phi
        self.piece_log_masses = [
            phi[i] + _log_integral_exp(c, clean_knots[i + 1] - clean_knots[i])
            for i, c in enumerate(clean_slopes)
        ]
        m = max(self.piece_log_masses)
        if not math.isfinite(m):
            raise InferenceError("density has no mass anywhere on its support")
        self.log_z = m + math.log(sum(math.exp(lm - m) for lm in self.piece_log_masses))

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def n_pieces(self) -> int:
        """Number of (positive-width) exponential pieces."""
        return len(self.slopes)

    @property
    def support(self) -> tuple[float, float]:
        """The open interval carrying all the mass."""
        return (self.knots[0], self.knots[-1])

    def piece_probabilities(self) -> np.ndarray:
        """Normalized mass of each piece (the paper's ``Z_i / Z``)."""
        return np.exp(np.asarray(self.piece_log_masses) - self.log_z)

    def log_pdf(self, x: float) -> float:
        """Normalized log-density at *x* (``-inf`` outside the support)."""
        if not self.knots[0] <= x <= self.knots[-1]:
            return -math.inf
        i = self._piece_of(x)
        return self._phi_at_knots[i] + self.slopes[i] * (x - self.knots[i]) - self.log_z

    def cdf(self, x: float) -> float:
        """Exact CDF at *x* — used to validate sampling against Eq. (3)."""
        if x <= self.knots[0]:
            return 0.0
        if x >= self.knots[-1]:
            return 1.0
        i = self._piece_of(x)
        acc = 0.0
        for j in range(i):
            acc += math.exp(self.piece_log_masses[j] - self.log_z)
        partial = self._phi_at_knots[i] + _log_integral_exp(
            self.slopes[i], x - self.knots[i]
        )
        return min(1.0, acc + math.exp(partial - self.log_z))

    def mean(self) -> float:
        """Exact first moment (closed form per piece)."""
        total = 0.0
        for i, c in enumerate(self.slopes):
            lo, hi = self.knots[i], self.knots[i + 1]
            w_log = self.piece_log_masses[i] - self.log_z
            weight = math.exp(w_log)
            if weight == 0.0:
                continue
            width = hi - lo
            if math.isinf(width):
                # Exponential tail with rate -c starting at lo.
                total += weight * (lo + 1.0 / (-c))
                continue
            z = c * width
            if abs(z) < 1e-8:
                local_mean = width / 2.0 + z * width / 12.0
            elif c > 0.0:
                # E[X] for density ∝ e^{cx} on (0, width).
                local_mean = width / (-math.expm1(-z)) - 1.0 / c
            else:
                local_mean = 1.0 / (-c) - width * math.exp(z) / (-math.expm1(z))
            total += weight * (lo + local_mean)
        return total

    def _piece_of(self, x: float) -> int:
        for i in range(len(self.slopes)):
            if x <= self.knots[i + 1]:
                return i
        return len(self.slopes) - 1

    def ppf(self, q: float) -> float:
        """Exact quantile function (inverse of :meth:`cdf`) on ``[0, 1]``.

        Selects the piece containing probability mass *q* and inverts the
        truncated-exponential CDF inside it — the deterministic counterpart
        of :meth:`sample_uv` (which splits the same computation across two
        uniforms).  For an unbounded final piece the tail quantile is
        inverted analytically.
        """
        if not 0.0 <= q <= 1.0:
            raise InferenceError(f"quantile must lie in [0, 1], got {q}")
        if q <= 0.0:
            return self.knots[0]
        if q >= 1.0 and math.isfinite(self.knots[-1]):
            return self.knots[-1]
        probs = self.piece_probabilities()
        # Default to the last piece so that q landing in the float gap
        # between sum(probs) and 1.0 maps to the far tail (v ~ 1), with
        # acc never including the selected piece's own mass.
        i = len(probs) - 1
        acc = 0.0
        for j, p in enumerate(probs[:-1]):
            if q <= acc + p:
                i = j
                break
            acc += p
        p = probs[i]
        v = min((q - acc) / p, 1.0) if p > 0.0 else 0.0
        lo, hi = self.knots[i], self.knots[i + 1]
        if math.isinf(hi):
            # Exponential tail with rate -c: invert 1 - exp(c (x - lo)).
            if v >= 1.0:
                return math.inf
            return lo - math.log1p(-v) / (-self.slopes[i])
        c = self.slopes[i]
        z = c * (hi - lo)
        if abs(z) < _FLAT_EPS or c <= 0.0:
            return self._invert_piece(i, v)
        # Rising piece: _invert_piece measures from the right edge (the
        # mirror convention of :meth:`sample_uv`), so pass the complement.
        return self._invert_piece(i, 1.0 - v)

    def _invert_piece(self, i: int, v: float) -> float:
        """Invert the within-piece CDF of finite piece *i* at ``v in [0, 1]``."""
        lo, hi = self.knots[i], self.knots[i + 1]
        c = self.slopes[i]
        width = hi - lo
        z = c * width
        if abs(z) < _FLAT_EPS:
            return lo + v * width
        if c < 0.0:
            # Decreasing piece: truncated exponential from the left edge.
            x = -math.log1p(-v * -math.expm1(z)) / (-c)
            return min(lo + x, hi)
        # Increasing piece: mirror image from the right edge.
        x = -math.log1p(-v * -math.expm1(-z)) / c
        return max(hi - x, lo)

    # ------------------------------------------------------------------
    # Sampling (the paper's Figure 3, generalized).
    # ------------------------------------------------------------------

    def sample(self, random_state: RandomState = None) -> float:
        """Draw one exact sample via piece selection + inverse CDF.

        This is the generalized form of paper Figure 3: choose a piece with
        probability ``Z_i / Z``, then invert the truncated-exponential CDF
        inside the piece (uniform when the piece is flat).
        """
        rng = as_generator(random_state)
        return self.sample_uv(rng.uniform(), rng.uniform(), rng)

    def sample_uv(
        self, u: float, v: float, random_state: RandomState = None
    ) -> float:
        """:meth:`sample` driven by two externally supplied uniforms.

        *u* selects the piece, *v* inverts the within-piece CDF — the
        scalar reference for the array kernel's vectorized inverse CDF;
        *random_state* is only consulted for the unbounded-tail case (an
        exponential draw).
        Given the same two uniforms this returns bitwise the same value as
        :meth:`sample`.
        """
        probs = self.piece_probabilities()
        i = 0
        acc = 0.0
        for i, p in enumerate(probs):
            acc += p
            if u <= acc:
                break
        if math.isinf(self.knots[i + 1]):
            c = self.slopes[i]
            return self.knots[i] + as_generator(random_state).exponential(1.0 / (-c))
        return self._invert_piece(i, v)
