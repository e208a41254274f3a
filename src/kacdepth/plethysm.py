"""Lambda-ring operations on truncated series: Adams operators, Exp, Log.

The Adams operator psi_m acts by q -> q**m on coefficients and r -> m*r on
exponent vectors.  The plethystic exponential is
Exp(F) = exp(sum_{m>=1} psi_m(F)/m) and Log is its inverse, computed by
Moebius inversion over Adams indices.  Since psi_m pushes every nonzero
exponent vector to total degree >= m, Adams indices beyond the sum of the
truncation bounds contribute nothing.
"""

from __future__ import annotations

from fractions import Fraction

from .series import TSeries


def mobius(n: int) -> int:
    """Moebius function of a positive integer."""
    if n < 1:
        raise ValueError("mobius requires n >= 1")
    result, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    return -result if n > 1 else result


def adams(series: TSeries, m: int) -> TSeries:
    """Adams operator psi_m: q -> q**m on coefficients, r -> m*r on exponents."""
    if m < 1:
        raise ValueError("invalid Adams index")
    if m == 1:
        return series
    return TSeries(series.bound, {
        tuple(m * x for x in r): c.substitute_power(m)
        for r, c in series.items() if all(m * x <= b for x, b in zip(r, series.bound))
    })


def pleth_exp(series: TSeries) -> TSeries:
    """Plethystic exponential; requires zero constant term."""
    if not series.constant_term().is_zero():
        raise ValueError("exp requires augmentation-ideal input")
    acc = TSeries(series.bound)
    for m in range(1, sum(series.bound) + 1):
        psi = adams(series, m)
        if not psi.is_zero():
            acc = acc + psi * Fraction(1, m)
    return acc.exp()


def pleth_log(series: TSeries) -> TSeries:
    """Plethystic logarithm; requires constant term 1.

    Log(F) = sum_m mu(m)/m * psi_m(log F), the Moebius inversion of the
    Adams sum inside Exp.
    """
    base = series.log()
    acc = TSeries(series.bound)
    for m in range(1, sum(series.bound) + 1):
        mu = mobius(m)
        if mu == 0:
            continue
        psi = adams(base, m)
        if not psi.is_zero():
            acc = acc + psi * Fraction(mu, m)
    return acc
