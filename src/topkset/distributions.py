"""Discrete score pdfs on the score lattice and the P(A >= B) primitive.

A partially known candidate score is modeled as a uniform pdf over the
lattice points of its bound interval. Comparing two such scores reduces
to summing joint mass over the region where the first variable is at
least the second; with both supports on one lattice this is an integer
index computation, so no floating point score comparisons are involved.
For two uniform pdfs that mass is a pair count over the product of the
support sizes, and `geq_count` gives the count in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class DiscretePdf:
    """Probability masses on consecutive lattice points.

    Support point i sits at origin + i quanta. Masses must sum to 1.
    """

    origin: int
    masses: tuple[float, ...]

    def __post_init__(self):
        if not self.masses:
            raise ValueError("pdf needs at least one support point")
        if any(m < 0 for m in self.masses):
            raise ValueError("masses must be nonnegative")
        if abs(sum(self.masses) - 1.0) > _MASS_TOL:
            raise ValueError(f"masses sum to {sum(self.masses)}, not 1")

    def __len__(self) -> int:
        return len(self.masses)

    def support(self) -> tuple[int, ...]:
        return tuple(range(self.origin, self.origin + len(self.masses)))

    def prefix_sums(self) -> tuple[float, ...]:
        """Cumulative masses; entry i is P(value <= support[i])."""
        out = []
        acc = 0.0
        for m in self.masses:
            acc += m
            out.append(acc)
        return tuple(out)


def uniform_pdf(lo: int, hi: int) -> DiscretePdf:
    """Uniform pdf over the lattice points lo..hi (quanta, lo <= hi)."""
    m = hi - lo + 1
    return DiscretePdf(lo, (1.0 / m,) * m)


def point_mass(n: int) -> DiscretePdf:
    """Degenerate pdf concentrated at lattice point n."""
    return DiscretePdf(n, (1.0,))


def geq_count(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> int:
    """Number of lattice pairs (x, y) in [a_lo, a_hi] x [b_lo, b_hi] with x >= y.

    O(1): each x inside the overlap with b's range beats x - b_lo + 1
    values of y, an arithmetic series; each x above b_hi beats all of them.
    P(A >= B) for A, B uniform on the two ranges is this count over
    (a_hi - a_lo + 1) * (b_hi - b_lo + 1).
    """
    # Conditional expressions instead of max/min: prob_ind calls this
    # twice per candidate pair, and the builtin calls cost several times
    # more than the arithmetic.
    lo = a_lo if a_lo > b_lo else b_lo
    hi = a_hi if a_hi < b_hi else b_hi
    count = (lo + hi - 2 * b_lo + 2) * (hi - lo + 1) // 2 if lo <= hi else 0
    if a_hi > b_hi:
        above = a_hi - (a_lo if a_lo > b_hi else b_hi + 1) + 1
        count += above * (b_hi - b_lo + 1)
    return count


def geq_probability(a: DiscretePdf, b: DiscretePdf) -> float:
    """P(A >= B) for independent A ~ a, B ~ b on the lattice.

    Linear in the support sizes: walks a's masses against b's cumulative
    sums.
    """
    off = a.origin - b.origin
    cdf_b = b.prefix_sums()
    last = len(b) - 1
    total = 0.0
    for i, mass in enumerate(a.masses):
        j = i + off
        if j < 0:
            continue
        total += mass * cdf_b[min(j, last)]
    return total


def geq_probability_naive(a: DiscretePdf, b: DiscretePdf) -> float:
    """Reference double sum over all support pairs; quadratic."""
    off = a.origin - b.origin
    total = 0.0
    for i, ma in enumerate(a.masses):
        for j, mb in enumerate(b.masses):
            if i + off >= j:
                total += ma * mb
    return total
