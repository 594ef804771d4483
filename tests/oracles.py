"""Independent reference computations used to pin expected test values,
and the reader side of the series JSON round trip.

Everything in this file is written from first principles and imports nothing
from the package, so expectations frozen from these oracles cannot inherit a
bug in the code under test.
"""

import itertools


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


def peak_slices(spec):
    """Slices p where the step pattern of the chamber spec (any object with
    L and the doubled theta images) turns from ascending to descending.

    Step i ascends when theta^{-1}(i + 1/2) < 0, with theta extended from its
    images on 1/2, ..., L - 1/2 by theta(h + L) = theta(h) + L. Far enough
    left every step ascends and far enough right every step descends; the
    scan radius below over-covers the turns."""
    L, theta = spec.L, spec.theta

    def ascends(i):
        h2 = 2 * i + 1
        # doubled, theta^{-1}(h2) = 2r + 1 + h2 - theta_r for the r with
        # theta_r = h2 mod 2L
        r, t = next((r, t) for r, t in enumerate(theta) if (h2 - t) % (2 * L) == 0)
        return 2 * r + 1 + h2 - t < 0

    radius = max(map(abs, theta)) // 2 + 2 * L + 2
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
