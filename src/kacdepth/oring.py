"""The truncated polynomial ring F_p[t]/(t^alpha): guards, primality, tables.

``GuardError``, ``check_work`` and ``guarded_power`` let every exponential
route refuse its work estimate before it allocates anything.  ``ORing``
holds multiplication, inverse and unit tables on integer codes whose base-p
digits are the coefficients (code 0 is the zero element, and a code is a
unit exactly when it is nonzero mod p).  No library route uses the tables:
the orbit count runs by Burnside's lemma on base-p digits, and the tests
count over the tables as an independent route.  It imports no other layer.
"""

from math import isqrt

DEFAULT_GUARD = 2**24


class GuardError(RuntimeError):
    """An enumeration or subset DP would exceed the configured guard limit.

    ``route`` names the refused route, ``limit`` is the guard and
    ``estimate`` the work estimate, which exceeds it (``None`` if not given).
    The message names no flag; the CLI adds that ``--guard`` raises the limit.
    ``guarded_power`` never forms its power: its ``estimate`` is the lower
    bound 2^(bit length of limit + 1) that its test proves.
    """

    def __init__(self, message: str, route: str | None = None, estimate: int | None = None, limit: int | None = None):
        super().__init__(message)
        self.route, self.estimate, self.limit = route, estimate, limit


def _check_prime(p: int) -> None:
    if p < 2 or any(p % k == 0 for k in range(2, isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


def check_work(label: str, work: int, guard: int) -> None:
    """GuardError when the work estimate exceeds guard.  An estimate past
    about 1000 digits is named by its power of two, since ``str`` refuses an
    int past 4300 digits."""
    if work > guard:
        shown = work if work.bit_length() <= 3322 else f">= 2^{work.bit_length() - 1}"
        raise GuardError(f"{label} estimate {shown} > limit {guard}", label, work, guard)


def guarded_power(base: int, exp: int, label: str, guard: int) -> int:
    """base**exp for a work estimate; GuardError, before the power is formed,
    when |base|^exp >= 2^(exp * (bit_length(base) - 1)) has more bits than guard."""
    if exp * (base.bit_length() - 1) > guard.bit_length():
        raise GuardError(f"{label} estimate >= {base}^{exp} > limit {guard}", label, 1 << guard.bit_length() + 1, guard)
    return base**exp


class ORing:
    """Integer-coded arithmetic tables for F_p[t]/(t^alpha), built on base-p digits."""

    def __init__(self, p: int, alpha: int) -> None:
        _check_prime(p)
        if alpha < 1:
            raise ValueError("depth must be >= 1")
        self.size = p**alpha
        weights = [p**k for k in range(alpha)]
        digits = [[c // w % p for w in weights] for c in range(self.size)]

        def code(coeffs) -> int:
            return sum(c % p * w for c, w in zip(coeffs, weights))

        def times(a, b) -> list[int]:
            return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(alpha)]

        self.mul = [[code(times(a, b)) for b in digits] for a in digits]
        self.units = tuple(c for c in range(self.size) if c % p)
        self.inv = [row.index(1) if c % p else None for c, row in enumerate(self.mul)]
