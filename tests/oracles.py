"""Independent reference computations used to pin expected test values,
and the reader side of the series JSON round trip.

Everything in this file is written from first principles and imports nothing
from the package, so expectations frozen from these oracles cannot inherit a
bug in the code under test.
"""

import itertools
from typing import NamedTuple


def plane_partition_counts(max_total):
    """Count plane partitions with n boxes, for every n = 0..max_total.

    A plane partition is a finite array of positive integers whose rows and
    columns are both non-increasing. This builds each one row by row with a
    depth-first search: a row must fit cellwise under the row above it, be
    non-increasing itself, and keep the running box count within budget.
    """
    counts = [0] * (max_total + 1)

    def rows_under(bound, budget):
        out = []

        def extend(prefix, i, remaining):
            if prefix:
                out.append(tuple(prefix))
            if i >= len(bound):
                return
            hi = min(bound[i], remaining)
            if prefix:
                hi = min(hi, prefix[-1])
            for v in range(1, hi + 1):
                prefix.append(v)
                extend(prefix, i + 1, remaining - v)
                prefix.pop()

        extend([], 0, budget)
        return out

    def stack(prev, used):
        counts[used] += 1
        for row in rows_under(prev, max_total - used):
            stack(row, used + sum(row))

    stack((max_total,) * max_total, 0)
    return counts


def partitions_of(n):
    """All integer partitions of n, largest part first."""

    def gen(left, cap):
        if left == 0:
            yield ()
            return
        for first in range(min(left, cap), 0, -1):
            for rest in gen(left - first, first):
                yield (first,) + rest

    return list(gen(n, n)) if n else [()]


def all_partitions_up_to(max_size):
    out = []
    for n in range(max_size + 1):
        out.extend(partitions_of(n))
    return out


def transpose_by_cells(lam):
    """Transpose computed by literally flipping the cell set of the diagram."""
    cells = {(i, j) for i, row in enumerate(lam) for j in range(row)}
    flipped = {(j, i) for (i, j) in cells}
    if not flipped:
        return ()
    rows = max(i for i, _ in flipped) + 1
    return tuple(sum(1 for (i, _) in flipped if i == r) for r in range(rows))


def is_horizontal_strip(lam, mu):
    """mu fits inside lam and lam/mu has at most one box per column.

    Stated directly on diagram cells, with no reference to interlacing
    chains: every column of lam gains at most one cell over mu, and mu is
    contained in lam.
    """
    lam_t = transpose_by_cells(lam)
    mu_t = transpose_by_cells(mu)
    if len(mu_t) > len(lam_t):
        return False
    for j in range(len(lam_t)):
        m = mu_t[j] if j < len(mu_t) else 0
        if not (0 <= lam_t[j] - m <= 1):
            return False
    return True


def shifted_chamber_data(L, shift):
    """(L, rho, theta) of every chamber with theta_i = 2i + 1 + 2 k_i,
    sum k_i = 0, |k_i| <= shift, for every rho, as far as the images are
    distinct mod L."""
    for rho in itertools.product((1, -1), repeat=L):
        for k in itertools.product(range(-shift, shift + 1), repeat=L):
            theta = tuple(2 * i + 1 + 2 * ki for i, ki in enumerate(k))
            if sum(k) == 0 and len({t % (2 * L) for t in theta}) == L:
                yield L, rho, theta


def genuine_weights(weights):
    """Whether every weight (any object with an exponent vector) has
    non-negative exponents and at least one unit of total degree."""
    return all(min(w.exponents) >= 0 and sum(w.exponents) >= 1 for w in weights)


class Rule(NamedTuple):
    """A step's interlacing rule, read the way the package's slice rules are."""

    relation: str  # "plus" or "minus"
    direction: str  # "ascending" or "descending"

    def flipped(self):
        return Rule("minus" if self.relation == "plus" else "plus", self.direction)


def theta_preimage(spec, h2):
    """theta^{-1}(h2), doubled, for the chamber spec (any object with L and
    the doubled theta images), with theta extended from its images on 1/2,
    ..., L - 1/2 by theta(h + L) = theta(h) + L: 2r + 1 + h2 - theta_r for
    the r with theta_r = h2 mod 2L."""
    L = spec.L
    r, t = next((r, t) for r, t in enumerate(spec.theta) if (h2 - t) % (2 * L) == 0)
    return 2 * r + 1 + h2 - t


def slice_rule(spec, i):
    """The rule of the step between slices i and i + 1 of the chamber spec
    (with L, rho and the doubled theta images): with x = theta^{-1}(i + 1/2),
    ascending when x < 0, and "plus" when rho at x's residue is +1."""
    x = theta_preimage(spec, 2 * i + 1)
    relation = "plus" if spec.rho[((x - 1) // 2) % spec.L] == 1 else "minus"
    return Rule(relation, "ascending" if x < 0 else "descending")


def contiguous_steps(spec, degree, extra):
    """Every step t, as (t, rule, e_t), from extra steps before the first
    step priced within degree to extra steps after the last one: the step
    table in the form that lists the steps priced above the degree too. With
    k = theta^{-1}(t + 1/2) + 1/2, e_t counts per residue mod L the integers
    j with min(k, 0) <= j < max(k, 0)."""
    L = spec.L

    def step(t):
        k = (theta_preimage(spec, 2 * t + 1) + 1) // 2
        lo, hi = min(k, 0), max(k, 0)
        return t, slice_rule(spec, t), tuple(len(range(lo + (r - lo) % L, hi, L)) for r in range(L))

    radius = max(map(abs, spec.theta)) + (degree + 1) * L
    priced = [t for t in range(-radius, radius) if sum(step(t)[2]) <= degree]
    assert -radius < priced[0] and priced[-1] < radius - 1  # both ends inside the scan
    return [step(t) for t in range(priced[0] - extra, priced[-1] + extra + 1)]


def peak_slices(spec):
    """Slices p where the step pattern of the chamber spec (any object with
    L and the doubled theta images) turns from ascending to descending.

    Step i ascends when theta^{-1}(i + 1/2) < 0. Far enough left every step
    ascends and far enough right every step descends; the scan radius below
    over-covers the turns."""

    def ascends(i):
        return theta_preimage(spec, 2 * i + 1) < 0

    radius = max(map(abs, spec.theta)) // 2 + 2 * spec.L + 2
    return [p for p in range(-radius, radius + 1) if ascends(p - 1) and not ascends(p)]


def read_series_json(data):
    """The (number of variables, cutoff, terms) a series JSON dict describes:
    the reader side of the JSON round trip. An exponent vector whose length
    differs from the vars list raises ValueError."""
    num_vars = len(data["vars"])
    terms = {}
    for term in data["terms"]:
        exp = tuple(int(e) for e in term["exp"])
        if len(exp) != num_vars:
            raise ValueError("exponent arity disagrees with the vars list")
        terms[exp] = int(term["coef"])
    return num_vars, int(data["cutoff"]), terms
