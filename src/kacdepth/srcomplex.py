"""Order complexes of the arrow-subset lattice and their Hilbert series.

The vertices of the complex are the proper nonempty subsets of the arrow
set, faces are chains under inclusion, and facets correspond to the m!
orderings of the m arrows.  Specialising the fine Hilbert series at
u_E = q^-(b(Q) - b(Q|_E)) relates the complex to the asymptotic toric count;
the series is summed by a DP over arrow masks that counts chains by their
exponent multisets, without listing a face.  A shelling of the complex, read
off the facet words, yields a positivity certificate: the series is a sum of
terms with monomial numerators.

The Betti numbers of all 2^m arrow masks (``_mask_betti_tables``) serve
these mask walks only; the toric routes run over parallel-arrow classes.
``toric`` is reached as a lazy module, for the asymptotic side of
``verify_hilbert_identity`` alone, so a shelling never executes it.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, permutations
from math import factorial

from . import toric
from .laurent import ONE_MINUS_QINV, RatFunc, _CycloSum, _cyclo_sum, poly_divmod
from .oring import DEFAULT_GUARD, check_work
from .poly import LaurentPoly
from .quiver import Quiver, _Frozen, subset_ranks


class OrderComplex(_Frozen):
    """Facets of the chains of proper nonempty arrow subsets, in lex order.

    Vertices are encoded as bitmasks over the arrows.  ``facets[i]`` is the
    chain of prefix subsets of ``words[i]``, a permutation of the arrows; the
    facet order is the lexicographic order of the words, which is a shelling
    order for this complex.
    """

    __slots__ = ("narrows", "facets", "words")
    narrows: int
    facets: tuple[frozenset[int], ...]
    words: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        narrows: int,
        facets: tuple[frozenset[int], ...],
        words: tuple[tuple[int, ...], ...],
    ) -> None:
        object.__setattr__(self, "narrows", narrows)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "words", words)


def order_complex(quiver: Quiver, guard: int = DEFAULT_GUARD) -> OrderComplex:
    """Build the order complex of the proper arrow-subset lattice.

    The work estimate m! * m (facets times chain length) must not exceed guard.
    """
    n = quiver.narrows
    if n < 1:
        return OrderComplex(0, (), ())
    check_work("order complex", factorial(n) * n, guard)
    facets = []
    words = []
    for word in permutations(range(n)):
        mask = 0
        chain = []
        for a in word[:-1]:
            mask |= 1 << a
            chain.append(mask)
        facets.append(frozenset(chain))
        words.append(word)
    return OrderComplex(n, tuple(facets), tuple(words))


def _mask_betti_tables(quiver: Quiver) -> tuple[list[int], list[bool]]:
    """Betti number and spanning connectivity of every arrow subset mask."""
    ranks, connected = subset_ranks(quiver.nvertices, quiver.arrows)
    return [mask.bit_count() - r for mask, r in enumerate(ranks)], connected


def _specialized_exponents(quiver: Quiver) -> dict[int, int]:
    """Exponent c(E) = b(Q) - b(Q|_E) for every proper nonempty subset mask."""
    if not quiver.is_two_connected():
        raise ValueError("specialization not convergent")
    betti, _ = _mask_betti_tables(quiver)
    b = quiver.betti()
    full = (1 << quiver.narrows) - 1
    return {mask: b - betti[mask] for mask in range(1, full)}


def hilbert_specialized(quiver: Quiver, guard: int = DEFAULT_GUARD) -> RatFunc:
    """Fine Hilbert series at u_E = q^-(b(Q)-b(Q|_E)), summed over all faces.

    A face, a chain E_1 < ... < E_k of proper nonempty arrow subsets, weighs
    the product of 1 / (q^c - 1) over its exponents c(E_j) = b(Q) - b(Q|_E_j).
    No face is listed: in increasing mask order, the chains ending at E are
    counted by exponent multiset from those ending at the proper nonempty
    submasks of E, and the full mask collects them all.  c never rises along
    a chain, so appending c(E) keeps each multiset a descending tuple.  The
    weights are applied once per multiset, over one common denominator.

    The work estimate counts key additions: for each size j of a proper
    nonempty submask, its C(m, j) * (2^(m-j) - 1) merges into larger masks
    times min(2^(j-1), C(j-1+b(Q), b(Q))) multisets per merge.  The binomial
    bounds the exponent multisets of the chains ending at a j-subset, and the
    power of two counts them when exponents fall strictly along chains; for
    Kronecker quivers and cycles the estimate is exact.  It must not exceed
    guard, and is checked before the 2^m exponent table is built.
    """
    m, b = quiver.narrows, quiver.betti()
    # running terms: C(m, j) and C(j-1+b, b) each from the one before, powers by shifts
    work, subsets, multisets = 0, m, 1
    for j in range(1, m):
        work += subsets * ((1 << m - j) - 1) * min(1 << j - 1, multisets)
        subsets = subsets * (m - j) // (j + 1)
        multisets = multisets * (j + b) // j
    check_work("hilbert series", work, guard)
    exponents = _specialized_exponents(quiver)
    full = (1 << m) - 1
    ending: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for mask in range(1, full + 1):
        below = {(): 1}  # the empty chain and the chains ending strictly below mask
        get = below.get
        sub = (mask - 1) & mask
        while sub:
            for key, n in ending[sub]:
                below[key] = get(key, 0) + n
            sub = (sub - 1) & mask
        if mask < full:
            c = (exponents[mask],)
            ending[mask] = [(key + c, n) for key, n in below.items()]
    return _cyclo_sum(_CycloSum.over(LaurentPoly.term(mult), key) for key, mult in below.items()).ratfunc()


def verify_hilbert_identity(quiver: Quiver, guard: int = DEFAULT_GUARD) -> dict:
    """Check the asymptotic toric count against the prefactored Hilbert series.

    Both sides are computed along independent code paths and compared as
    canonical rational functions.  The Hilbert side, whose estimate is the
    larger from five arrows on, goes first: a refusal comes before any sum,
    and before the prefactor's gcd, which takes seconds from b(Q) = 200 on.
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
        mask = 0
        face = []
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
    terms sum to ``hilbert_specialized`` exactly; nonnegativity of the
    numerator coefficients holds by construction.
    """
    if quiver.narrows < 2:
        raise ValueError("certificate needs at least two arrows")
    complex_ = order_complex(quiver, guard)
    exponents = _specialized_exponents(quiver)
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
    total = _cyclo_sum(
        _CycloSum.over(LaurentPoly.term(n, shift), fac) for (fac, shift), n in shifts.items()
    ).ratfunc()
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
