"""Order complexes of the arrow-subset lattice and their Hilbert series.

The vertices of the complex are the proper nonempty subsets of the arrow
set, faces are chains under inclusion, and facets correspond to the m!
orderings of the m arrows.  Specialising the fine Hilbert series at
u_E = q^-(b(Q) - b(Q|_E)) relates the complex to the asymptotic toric count;
the series is summed upward over parallel-arrow class states
(``quiver._class_table``), without listing a face.  A shelling of the
complex, read off the facet words, yields a positivity certificate: the
series is a sum of terms with monomial numerators.  The series and the
certificate total are integer sums over one fixed denominator
(``laurent.CycloPacking``).

Both read the exponents of the class states from one ``_specialization``,
computed once per certificate; the certificate reads each arrow mask of a
facet at its class state.  ``toric`` is reached as a lazy module, for the
asymptotic side of ``verify_hilbert_identity`` alone, so a shelling never
executes it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import factorial
from typing import NamedTuple

from . import toric
from .laurent import ONE_MINUS_QINV, CycloPacking, RatFunc, poly_divmod
from .oring import DEFAULT_GUARD, check_work
from .poly import LaurentPoly
from .quiver import Quiver, _chain_walk_work, _class_table, _ClassTable


class OrderComplex(NamedTuple):
    """Facets of the chains of proper nonempty arrow subsets, in lex order.

    Vertices are encoded as bitmasks over the arrows.  ``facets[i]`` is the
    chain of prefix subsets of ``words[i]``, a permutation of the arrows; the
    facet order is the lexicographic order of the words, which is a shelling
    order for this complex.
    """

    narrows: int
    facets: tuple[frozenset[int], ...]
    words: tuple[tuple[int, ...], ...]


def order_complex(quiver: Quiver, guard: int = DEFAULT_GUARD) -> OrderComplex:
    """Build the order complex of the proper arrow-subset lattice.

    The work estimate m! * m (facets times chain length) must not exceed guard.
    """
    n = quiver.narrows
    if n < 1:
        return OrderComplex(0, (), ())
    check_work("order complex", factorial(n) * n, guard)
    words = tuple(permutations(range(n)))
    facets = []
    for word in words:
        mask, chain = 0, []
        for a in word[:-1]:
            mask |= 1 << a
            chain.append(mask)
        facets.append(frozenset(chain))
    return OrderComplex(n, tuple(facets), words)


@lru_cache(maxsize=1)
def _specialization(quiver: Quiver) -> tuple[_ClassTable, list[int], CycloPacking]:
    """The class table, c(N) = b(Q) - b(N) for every class state N, and the
    packing of the sums over chains of proper nonempty arrow sets.  The last
    result is kept: the certificate reads it, then ``hilbert_specialized``."""
    if not quiver.is_two_connected():
        raise ValueError("specialization not convergent")
    table = _class_table(quiver)
    m, b = quiver.narrows, quiver.betti()
    full = len(table.betti) - 1
    exponents = [b - x for x in table.betti]
    # fewer than (m + 1)^m chains of proper nonempty arrow sets, the empty one included
    pack = CycloPacking(zip(exponents[1:full], table.size[1:full]), (m + 1) ** m)
    return table, exponents, pack


def hilbert_specialized(quiver: Quiver, guard: int = DEFAULT_GUARD) -> RatFunc:
    """Fine Hilbert series at u_E = q^-(b(Q)-b(Q|_E)), summed over all faces.

    A face, a chain E_1 < ... < E_k of proper nonempty arrow subsets, weighs
    the product of 1 / (q^c - 1) over its exponents c(E_j) = b(Q) - b(Q|_E_j).
    No face is listed: upward over the class states, the chains ending at E
    sum to 1 plus those ending at the nonempty proper subsets of E, over
    q^c(E) - 1, and the full state collects them all.  Over one fixed
    denominator a state costs one exact integer division.  The work estimate
    is that of the depth limit, whose walk visits the same state pairs on
    values of the same width (``quiver._chain_walk_work``); it must not
    exceed guard, and is checked before the 2-connectivity test.
    """
    check_work("hilbert series", _chain_walk_work(quiver), guard)
    table, exponents, pack = _specialization(quiver)
    full = len(exponents) - 1
    # ending[N] = D times the sum over the chains E_1 < ... < E_k = E of the
    # product of 1/(q^c(E_j) - 1), for any E with counts N; the E' < E are
    # counted as the complements of the sets above the complement of E
    # (``_ClassTable.above``)
    ending = [0] * (full + 1)
    for state in range(1, full + 1):
        below = pack.den + sum([k * ending[full - up] for up, k in table.above(full - state)])
        ending[state] = below if state == full else pack.divide(below, exponents[state])
    return pack.ratfunc(ending[full])


def verify_hilbert_identity(quiver: Quiver, guard: int = DEFAULT_GUARD) -> dict:
    """Check the asymptotic toric count against the prefactored Hilbert series.

    Both sides are computed along independent code paths and compared as
    canonical rational functions: strict chains down from the full arrow
    set against all chains of proper nonempty subsets upward, each over a
    denominator of its own.  The two estimates are equal, and the Hilbert
    side goes first: a refusal names it, and comes before any sum and
    before the prefactor's gcd.
    """
    hilbert = hilbert_specialized(quiver, guard)
    lhs = toric.asymptotic_kac(quiver, guard)
    b = quiver.betti()
    rhs = ONE_MINUS_QINV**b / (RatFunc.one() - RatFunc.q(-b)) * hilbert
    return {"lhs": str(lhs), "rhs": str(rhs), "equal": lhs == rhs, "betti": b}


# ----------------------------------------------------------------------
# shelling


def lex_shelling(complex_: OrderComplex) -> tuple[frozenset[int], ...]:
    """Restriction faces of the lex shelling, aligned with ``complex_.facets``.

    The facets come in lex order of their words, a shelling of the order
    complex of the Boolean lattice (Bjorner-Wachs, On lexicographically
    shellable posets, Trans. AMS 277, 1983).  The restriction face of the
    facet with word w is the set of prefixes {w_1, ..., w_i} at the descents
    w_i > w_{i+1}: swapping w_i and w_{i+1} drops exactly that prefix, and
    gives an earlier word exactly at a descent.
    """
    if complex_.narrows < 2:
        raise ValueError("shelling needs at least two arrows")
    restrictions = []
    for word in complex_.words:
        mask, face = 0, []
        for a, b in zip(word, word[1:]):
            mask |= 1 << a
            if a > b:
                face.append(mask)
        restrictions.append(frozenset(face))
    return tuple(restrictions)


def positivity_certificate(quiver: Quiver, guard: int = DEFAULT_GUARD) -> dict:
    """Shelling decomposition of the specialized Hilbert series.

    Emits one term per facet: a monomial numerator q^-(sum of restriction
    exponents) over the product of (1 - q^-c) for the facet exponents.  The
    terms sum to ``hilbert_specialized`` exactly, over its denominator;
    nonnegativity of the numerator coefficients holds by construction.
    """
    if quiver.narrows < 2:
        raise ValueError("certificate needs at least two arrows")
    complex_ = order_complex(quiver, guard)
    table, by_state, pack = _specialization(quiver)
    # a mask's class state sums the place values of its arrows' classes
    place = dict(zip(table.classes, table.place))
    states = [0]
    for arrow in quiver.arrows:
        step = place[tuple(sorted(arrow))]
        states += [x + step for x in states]
    exponents = [by_state[x] for x in states]
    terms = [
        {
            "restriction_exponents": sorted(exponents[m] for m in restriction),
            "facet_exponents": sorted(exponents[m] for m in facet),
        }
        for facet, restriction in zip(complex_.facets, lex_shelling(complex_))
    ]
    # q^-r / prod(1 - q^-c) = q^(sum c - r) / prod(q^c - 1): one term per
    # distinct pair of facet exponents and shift
    shifts = Counter(
        (tuple(t["facet_exponents"]), sum(t["facet_exponents"]) - sum(t["restriction_exponents"]))
        for t in terms
    )
    quotients = {fac: pack.divide(pack.den, *fac) for fac, _ in shifts}
    total = pack.ratfunc(sum(n * quotients[fac] << pack.width * shift for (fac, shift), n in shifts.items()))
    direct = hilbert_specialized(quiver, guard)
    report = {"terms": terms, "total": str(total), "matches_face_sum": total == direct}
    single = _single_denominator_presentation(total)
    if single is not None:
        report["single_denominator"] = single
    return report


def _single_denominator_presentation(series: RatFunc) -> dict | None:
    """Opportunistic search for Q(q^-1)/prod(1 - q^-e) with Q nonnegative.

    Tries small exponent multisets for the denominator; returns None when no
    nonnegative presentation is found within the search window.  In normal
    form (coprime, denominator free of q) series * prod(1 - q^-e) is a Laurent
    polynomial exactly when series.den divides prod(q^e - 1).  Each product
    extends that of its prefix, which the search meets one size earlier.  The
    product has degree sum(e) and a root of multiplicity len(e) at q = 1, one
    per factor, so a candidate short of either in series.den is skipped
    undivided.
    """
    degree, ones = series.den.max_exp(), _multiplicity_at_one(series.den)
    cleared = {(): LaurentPoly.one()}
    for size in range(0, 5):
        for exps in combinations_with_replacement(range(1, 6), size):
            if exps:
                cleared[exps] = cleared[exps[:-1]] * (LaurentPoly.q(exps[-1]) - 1)
            if size < ones or sum(exps) < degree:
                continue
            quo, rem = poly_divmod(cleared[exps], series.den)
            if not rem.is_zero():
                continue
            num = (series.num * quo).shift(-sum(exps))
            # numerator must be a polynomial in q^-1 with nonnegative coeffs
            if num.is_zero() or num.max_exp() > 0:
                continue
            if num.is_nonnegative() and num.is_integral():
                return {"numerator": str(num), "denominator_exponents": list(exps)}
    return None


def _multiplicity_at_one(poly: LaurentPoly) -> int:
    """How often q - 1 divides a nonzero ordinary polynomial."""
    ones, rem = -1, LaurentPoly.zero()
    while rem.is_zero():
        poly, rem = poly_divmod(poly, LaurentPoly.q() - 1)
        ones += 1
    return ones
