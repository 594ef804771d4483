"""The (L, rho, theta) chamber data: slice rules and weight monomials.

Half-integers are stored doubled (h -> 2h, always odd) so every computation
stays in exact integer arithmetic. theta is given by its L images on
1/2, ..., L - 1/2 and extended by theta(h + L) = theta(h) + L; rho extends
periodically to the sign map sigma.

The interlacing pattern reads theta through its inverse: the step between
slices i and i+1 is ascending when theta^{-1}(i + 1/2) < 0 and its relation
type is sigma(theta^{-1}(i + 1/2)). Reading theta directly instead of its
inverse collapses distinct chambers onto the same rule pattern and already
miscounts single-box configurations, so the inverse reading is the one
consistent with the chamber product formulas.

Every route reads the chamber through one table, potential_steps: the 2D + 1
steps priced within a degree D, the only ones a configuration of degree <= D
changes across. residue_counts counts the q's of a step's price, of a
slice's weight and of a run of slices between two table steps.
"""

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class ChamberSpec:
    """The triple (L, rho, theta); theta entries are doubled half-integers."""

    L: int
    rho: tuple
    theta: tuple

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(self.rho))
        object.__setattr__(self, "theta", tuple(self.theta))
        L = self.L
        if L < 1:
            raise ValueError("L must be >= 1")
        if len(self.rho) != L or any(r not in (1, -1) for r in self.rho):
            raise ValueError("rho must be L signs of value +1 or -1")
        if len(self.theta) != L or any(t % 2 == 0 for t in self.theta):
            raise ValueError("theta must be L doubled half-integers (odd)")
        # bijectivity of the periodic extension: images distinct mod L
        if len({t % (2 * L) for t in self.theta}) != L:
            raise ValueError("theta images must be pairwise distinct mod L")
        # balance: sum of images equals sum of 1/2, ..., L - 1/2 (doubled: L^2)
        if sum(self.theta) != L * L:
            raise ValueError("theta images must preserve the half-integer sum")


@dataclass(frozen=True)
class SliceRule:
    relation: str  # "plus" or "minus"
    direction: str  # "ascending" or "descending"

    def flipped(self):
        other = "minus" if self.relation == "plus" else "plus"
        return SliceRule(other, self.direction)


@dataclass(frozen=True)
class WeightMonomial:
    """Exponent vector of one chamber weight; entries may be negative."""

    exponents: tuple

    @property
    def total_degree(self):
        return sum(self.exponents)


def c3_chamber():
    return ChamberSpec(1, (1,), (1,))


def conifold_theta(n):
    """The conifold chamber theta_n: 1/2 -> 1/2 - n, 3/2 -> 3/2 + n."""
    if n < 0:
        raise ValueError("chamber index must be >= 0")
    return ChamberSpec(2, (1, -1), (1 - 2 * n, 3 + 2 * n))


def sigma(spec, h2):
    """Periodic extension of rho, evaluated at a doubled half-integer."""
    if h2 % 2 == 0:
        raise ValueError("sigma is defined on half-integers only")
    return spec.rho[((h2 - 1) // 2) % spec.L]


def theta_value(spec, h2):
    j = (h2 - 1) // 2
    r = j % spec.L
    return spec.theta[r] + 2 * spec.L * ((j - r) // spec.L)


def theta_inverse(spec, h2):
    period = 2 * spec.L
    for r in range(spec.L):
        if (h2 - spec.theta[r]) % period == 0:
            return (2 * r + 1) + period * ((h2 - spec.theta[r]) // period)
    raise ValueError(f"{h2} is not an odd integer in the image of theta")


def _rule_at(spec, pre):
    """The slice rule of the step whose half-integer has preimage pre."""
    return SliceRule(
        relation="plus" if sigma(spec, pre) == 1 else "minus",
        direction="ascending" if pre < 0 else "descending",
    )


def residue_counts(lo, hi, L):
    """How many integers j with lo <= j < hi fall in each residue class mod L,
    negated when hi < lo (then over hi <= j < lo)."""
    return tuple([(hi - 1 - r) // L - (lo - 1 - r) // L for r in range(L)])


def chamber_weight(spec, i):
    """The monomial q_i^theta: the product of consecutive q's between
    theta^{-1}(i - 1/2) and theta^{-1}(i + 1/2), inverted when they are
    out of order. Laurent exponents are allowed.
    """
    if not 0 <= i < spec.L:
        raise ValueError("weight index must be a residue 0..L-1")
    lo = theta_inverse(spec, 2 * i - 1)
    hi = theta_inverse(spec, 2 * i + 1)
    return WeightMonomial(residue_counts((lo + 1) // 2, (hi + 1) // 2, spec.L))


def chamber_weights(spec):
    return [chamber_weight(spec, i) for i in range(spec.L)]


def conifold_index(spec):
    """The n with spec == conifold_theta(n), or None."""
    if spec.L == 2 and spec.rho == (1, -1):
        n = (1 - spec.theta[0]) // 2
        if n >= 0 and spec.theta == (1 - 2 * n, 3 + 2 * n):
            return n
    return None


def potential_steps(spec, degree):
    """The potential step table: (t, slice rule, e_t) for each step t, the
    step between slices t and t+1, priced within degree (deg e_t <= degree),
    in time order.

    Let Pi(t) be the exponent vector of the slice weights summed up to slice
    t (from a fixed origin), and c the componentwise largest Pi(a) over the
    ascending steps a. Step t costs e_t = c - Pi(t) per box it adds when it
    ascends and e_t = Pi(t) - c per box it removes when it descends.

    Lemma. The weights telescope: slice s weighs the q_j strictly between
    theta^{-1}(s - 1/2) and theta^{-1}(s + 1/2), inverted when those are out
    of order, so Pi(t) - Pi(u) is the q_j strictly between
    theta^{-1}(u + 1/2) and theta^{-1}(t + 1/2), inverted when the second is
    the smaller. Step t ascends exactly when theta^{-1}(t + 1/2) < 0, so the
    ascending Pi are ordered by theta^{-1}(a + 1/2), c is Pi(a*) at the
    step with theta^{-1}(a* + 1/2) = -1/2, and with x = theta^{-1}(t + 1/2):

        e_t = prod q_j over the integers j with x < j < 0, if t ascends,
        e_t = prod q_j over the integers j with 0 <= j < x, if t descends.

    So for an ascending step a and a descending step d, e_a + e_d =
    Pi(d) - Pi(a) is the product of the q_j strictly between
    theta^{-1}(a + 1/2) < 0 < theta^{-1}(d + 1/2): genuine, and of degree
    >= 1 since it holds q_0. Hence:

    - every e_t >= 0 componentwise, on every chamber;
    - every rise at a paired with a later drop at d costs degree >= 1. By
      summation by parts a configuration's monomial is
      sum_t e_t ||lam_{t+1}| - |lam_t||, since sizes grow only on ascending
      steps and shrink only on descending ones. A walker's path splits into
      such unit excursions, and each walker off its ground height holds one
      open, so a configuration of degree <= D has at most D rows in every
      slice (row_bound sharpens this) and each walker stays at most D above
      its ground;
    - a configuration of degree <= D changes across no step priced above D.
      It is empty far away on both sides, so it is empty before the first
      step priced within D and after the last one, and between two
      consecutive such steps t < t' its slices t + 1..t' hold one partition.
      These slices form a run, whose slices per class mod L are
      residue_counts(t + 1, t' + 1, L).

    deg e_t is |x| - 1/2 on an ascending step and |x| + 1/2 on a descending
    one, so the steps priced within degree D >= 0 are the 2D + 1 steps with
    t + 1/2 = theta(x) for x = -D - 1/2, ..., D - 1/2, and the table holds
    exactly those, built from x without scanning t.

    Each table is built once per (spec, degree) and kept; every call returns
    that same tuple, which callers only read.
    """
    return _step_table(spec, degree)


@lru_cache(maxsize=None)
def _step_table(spec, degree):
    """potential_steps as a tuple, memoized."""
    steps = []
    for pre in range(-2 * degree - 1, 2 * degree, 2):
        # with k = x + 1/2, e_t holds the q_j with min(k, 0) <= j < max(k, 0)
        k = (pre + 1) // 2
        t = (theta_value(spec, pre) - 1) // 2
        steps.append((t, _rule_at(spec, pre), residue_counts(min(k, 0), max(k, 0), spec.L)))
    return tuple(sorted(steps))  # theta is a bijection, so no two t are equal


def row_bound(table, degree):
    """The most non-empty rows any slice of a configuration of degree <=
    degree can hold, R = max_s floor(degree / c(s)), 0 when no c(s) is within
    degree, over a potential step table or its kept steps
    (matrixmodel._split_steps).

    Lemma. Slice s lies between steps s - 1 and s. Rows grow only on ascending
    steps and shrink only on descending ones, so each of the r non-empty rows
    at slice s holds a unit excursion across s: one unit of height raised at
    an ascending step a < s and dropped at a descending step d >= s, which
    costs deg e_a + deg e_d (potential_steps). With c(s) the least deg e_a
    over ascending a < s plus the least deg e_d over descending d >= s, the
    excursions are distinct units, so r c(s) <= degree. Every a < d pair
    costs deg(e_a + e_d) >= 1, so c(s) >= 1 and R <= degree. Steps outside
    the table are priced above the degree and carry no such unit.
    """
    never = float("inf")
    rise = []  # rise[i]: the least deg e_a over the ascending steps before slice i
    least = never
    for _, rule, e in table:
        rise.append(least)
        if rule.direction == "ascending":
            least = min(least, sum(e))
    bound, drop = 0, never
    for (_, rule, e), up in zip(reversed(table), reversed(rise)):
        if rule.direction == "descending":
            drop = min(drop, sum(e))
        if up + drop <= degree:
            bound = max(bound, degree // (up + drop))
    return bound
