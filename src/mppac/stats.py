"""Confidence-interval and sample-size mathematics.

Hoeffding widths for transition probabilities, the inconfidence ledger,
sample thresholds for sure end components, and Chernoff bounds for
exponential rate estimation. Everything here is a pure function of its
arguments.
"""

from __future__ import annotations

import math

GATE_SHARE = 0.01  # of delta_mp, for the sure-EC gate's event


def tp_inconfidence(delta_mp: float, p_min: float, num_state_actions: int) -> float:
    """Per-transition inconfidence: delta_mp * p_min / |{(s,a)}|."""
    return delta_mp * p_min / num_state_actions


def tp_width(count: int, delta_tp: float) -> float:
    """Hoeffding width eps = sqrt(ln(delta_tp) / (-2 * count)), clamped to 1.

    count = 0 yields 1 by convention (vacuous interval).
    """
    if count <= 0:
        return 1.0
    if delta_tp >= 1.0:
        return 0.0
    return min(1.0, math.sqrt(math.log(delta_tp) / (-2.0 * count)))


def ec_required_samples(delta_tp: float, p_min: float) -> int:
    """Samples per staying pair before a candidate EC counts as delta_tp-sure:
    ceil(ln(delta_tp) / ln(1 - p_min)), at least 1."""
    if p_min >= 1.0:
        # a single draw reveals the unique successor with certainty
        return 1
    if delta_tp >= 1.0:
        return 1
    return max(1, math.ceil(math.log(delta_tp) / math.log(1.0 - p_min)))


def greybox_miss_probability(p_min: float, count: int) -> float:
    """Chance that count samples of a pair all missed one particular
    successor: (1 - p_min)^count."""
    return (1.0 - p_min) ** count


def rate_inconfidence(n: int, alpha_r: float) -> float:
    """Chernoff bound on the chance that the mean of n Exponential(lambda)
    dwells misses the true mean by a relative alpha_r: the sum of the
    underestimation and the overestimation term

        inf_{-1<u<0} (1/(1+u))^n e^{u n (1+a)},  inf_{u>0} (1/(1+u))^n e^{u n (1-a)}

    (u is the tilt t/lambda, so the rate lambda cancels). Each log term
    n(u(1+-a) - ln(1+u)) is convex in u with its stationary point at
    u = 1/(1+-a) - 1, where it equals n(ln(1+-a) -+ a); the sum is taken of
    the exponentials of these closed forms.
    """
    return math.exp(n * (math.log1p(alpha_r) - alpha_r)) + math.exp(n * (math.log1p(-alpha_r) + alpha_r))


def rate_samples(alpha_r: float, delta_r: float) -> int:
    """Smallest n with rate_inconfidence(n, alpha_r) <= delta_r,
    by exponential growth then bisection (the bound is monotone in n)."""
    if rate_inconfidence(1, alpha_r) <= delta_r:
        return 1
    hi = 2
    while rate_inconfidence(hi, alpha_r) > delta_r:
        hi *= 2
        if hi > 1 << 40:
            raise OverflowError("rate_samples did not converge")
    lo = hi // 2  # inconfidence(lo) > delta_r >= inconfidence(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rate_inconfidence(mid, alpha_r) <= delta_r:
            hi = mid
        else:
            lo = mid
    return hi


def inconfidence_ledger(delta_mp: float, p_min: float, ctmdp: bool) -> tuple[float, float, float]:
    """delta_mp divided as (widths, gate, rates): GATE_SHARE, or 0 at p_min = 1,
    for the sure-EC gate (a staying pair's successor is still unseen), and for
    a CTMDP the rates' share that makes a pair's rate inconfidence equal to a
    transition's. Each share is a remainder: they sum to delta_mp exactly."""
    rest = delta_mp if p_min >= 1.0 else delta_mp * (1.0 - GATE_SHARE)
    widths = rest / (p_min + 1.0) if ctmdp else rest
    return widths, delta_mp - rest, rest - widths
