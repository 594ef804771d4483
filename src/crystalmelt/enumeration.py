"""Direct enumeration of chamber configurations by a slice-sweep DP.

A configuration is a bi-infinite partition sequence, empty at both ends,
obeying the chamber's interlacing rule at every step. The sweep walks the
finite window that can carry boxes, keeping a frontier of states (current
partition, boxes spent per slice class) with multiplicity counts.

Budget: with genuine weight monomials every box costs at least one unit of
total degree, so "boxes <= D" is exact. Chambers of the conifold theta_n
family have Laurent weights, but every configuration's monomial sits in the
support of the chamber product, whose generators carry at most (2n+3)/3 boxes
per unit of degree; hence the budget floor(D * (2n+3) / 3). A too-small
budget would undercount and fail the cross-engine checks loudly, never agree
falsely, and the widen-and-compare tests pin it empirically.

Lookahead: every step has a componentwise-least successor of mu. Ascending,
both relations only add boxes, so it is mu itself; descending "+" drops one box
from every row (mu_i - 1); descending "-" reads mu_1 >= nu_1 >= mu_2 >= ..., so
it is mu shifted up (mu_2, mu_3, ...). Every valid successor contains the least
one, and the least-successor map is monotone under containment. By induction,
if nu_t contains g_t then nu_{t+1} contains least(nu_t), which contains
least(g_t) = g_{t+1}: every continuation of a state dominates the greedy chain
g of least successors slice by slice. So it places at least the chain's boxes,
and it can close on the empty partition only if the chain does (the step out of
the window accepts () exactly when its least successor is ()). The chain is
itself a valid continuation and never adds rows, so the bound is attained, also
under max_rows: the sweep drops a state exactly when no configuration through
it fits the budget, and the result is the same as without the lookahead. On an
ascending step every successor contains mu, so mu's own bound also caps the
size of the successors generated.
"""

from functools import lru_cache

from .chambers import chamber_weights, conifold_index, peak_slices, slice_rule
from .errors import UnsupportedChamberError
from .partitions import interlace_minus, interlace_plus
from .series import TruncatedSeries

# least-successor maps of one step (module docstring); _NEVER: cannot close
_KEEP, _DROP, _SHIFT = 0, 1, 2
_NEVER = float("inf")


@lru_cache(maxsize=None)
def _succ_grow_plus(mu, cap):
    """All lam >=+ mu with |lam| <= cap; trailing 1-rows may extend lam."""
    out = []

    def rec(i, prev, acc, total):
        if total > cap:
            return
        if i == len(mu):
            out.append(tuple(acc))
            k = 1
            while total + k <= cap:
                out.append(tuple(acc + [1] * k))
                k += 1
            return
        for d in (0, 1):
            v = mu[i] + d
            if v <= prev:
                rec(i + 1, v, acc + [v], total + v)

    rec(0, cap + 1, [], 0)
    return out


@lru_cache(maxsize=None)
def _succ_grow_minus(mu, cap):
    """All lam >=- mu with |lam| <= cap.

    The chain lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... bounds lam_{i+1} by mu_i,
    leaves lam_1 bounded only by the budget, and allows one extra final part.
    """
    out = []
    n = len(mu)

    def rec(i, acc, total):
        if i == n:
            out.append(tuple(acc))
            hi = min(mu[n - 1] if n else cap, cap - total)
            for v in range(1, hi + 1):
                out.append(tuple(acc + [v]))
            return
        hi = cap - total - sum(mu[i + 1:])
        if i > 0:
            hi = min(hi, mu[i - 1])
        for v in range(mu[i], hi + 1):
            rec(i + 1, acc + [v], total + v)

    rec(0, [], 0)
    return out


@lru_cache(maxsize=None)
def _succ_shrink_plus(mu):
    """All nu with mu >=+ nu."""
    seen = set()

    def rec(i, prev, acc):
        if i == len(mu):
            seen.add(tuple(x for x in acc if x))
            return
        for d in (0, 1):
            v = mu[i] - d
            if 0 <= v <= prev:
                rec(i + 1, v, acc + [v])

    rec(0, mu[0] + 1 if mu else 1, [])
    return sorted(seen)


@lru_cache(maxsize=None)
def _succ_shrink_minus(mu):
    """All nu with mu >=- nu: mu_1 >= nu_1 >= mu_2 >= nu_2 >= ..."""
    seen = set()

    def rec(i, acc):
        if i == len(mu):
            seen.add(tuple(x for x in acc if x))
            return
        lo = mu[i + 1] if i + 1 < len(mu) else 0
        for v in range(lo, mu[i] + 1):
            rec(i + 1, acc + [v])

    rec(0, [])
    return sorted(seen)


def _least_step(rule):
    """Code of the least-successor map of one step (see the module docstring)."""
    if rule.direction == "ascending":
        return _KEEP
    return _DROP if rule.relation == "plus" else _SHIFT


def least_future(steps, i, lam, memo):
    """Fewest boxes that any valid continuation of lam must still place.

    lam sits at position i; steps[j] codes the least-successor map of the step
    out of position j, and the step out of the last position must land on the
    empty partition. The result sums the sizes along the greedy chain of least
    successors after position i, or is infinite when that chain does not
    close, in which case no continuation does. memo maps (position, partition)
    to results and lives for one sweep; the chain is walked iteratively, so its
    length is not limited by the recursion depth.
    """
    last = len(steps) - 1
    chain = []
    size = sum(lam)
    while True:
        if not lam:
            total = 0
            break
        total = memo.get((i, lam))
        if total is not None:
            break
        step = steps[i]
        if step == _KEEP:
            nxt, nxt_size = lam, size
        elif step == _DROP:
            nxt = tuple(x - 1 for x in lam if x > 1)
            nxt_size = size - len(lam)
        else:
            nxt, nxt_size = lam[1:], size - lam[0]
        if i == last:
            total = 0 if not nxt else _NEVER
            memo[(i, lam)] = total
            break
        chain.append((i, lam, nxt_size))
        i, lam, size = i + 1, nxt, nxt_size
    for j, mu, placed in reversed(chain):
        total += placed
        memo[(j, mu)] = total
    return total


def box_budget(spec, degree):
    """Box count that certifiably covers every monomial of total degree <= degree."""
    if all(w.is_genuine for w in chamber_weights(spec)):
        return degree
    n = conifold_index(spec)
    if n is not None:
        return (degree * (2 * n + 3)) // 3
    raise UnsupportedChamberError(
        "chamber has Laurent weights outside the conifold theta_n family"
    )


def sweep_window(spec, degree, budget):
    peaks = peak_slices(spec)
    L = spec.L
    lo = min(-degree * L - L, min(peaks) - budget - L)
    hi = max(degree * L + L, max(peaks) + budget + L)
    return lo, hi


def _sweep(spec, degree, budget, transposed, max_rows, window=None):
    L = spec.L
    lo, hi = window if window is not None else sweep_window(spec, degree, budget)
    rules = []
    for i in range(lo - 1, hi + 1):
        rule = slice_rule(spec, i)
        rules.append(rule.flipped() if transposed else rule)
    # steps[j] leaves slice lo + j; the last one is the step out of the window
    steps = [_least_step(rule) for rule in rules[1:]]
    memo = {}
    # frontier: partition at the current slice -> {class counts + (total,): count}
    frontier = {(): {(0,) * (L + 1): 1}}
    for s in range(lo, hi + 1):
        i = s - lo
        rule = rules[i]
        ascending = rule.direction == "ascending"
        plus = rule.relation == "plus"
        cls = s % L
        new = {}
        rooms = {}  # successor -> most boxes its predecessors may have spent
        for mu, tabs in frontier.items():
            if ascending:
                # every successor contains mu, so its future is at least mu's
                least_spent = min(acc[L] for acc in tabs)
                cap = budget - least_spent - least_future(steps, i, mu, memo)
                if cap < 0:
                    continue
                succs = _succ_grow_plus(mu, cap) if plus else _succ_grow_minus(mu, cap)
            else:
                succs = _succ_shrink_plus(mu) if plus else _succ_shrink_minus(mu)
            for nu in succs:
                if max_rows is not None and len(nu) > max_rows:
                    continue
                room = rooms.get(nu)
                if room is None:
                    room = rooms[nu] = budget - sum(nu) - least_future(steps, i, nu, memo)
                if room < 0:
                    continue
                boxes = sum(nu)
                bucket = new.get(nu)
                if bucket is None:
                    bucket = new[nu] = {}
                for acc, count in tabs.items():
                    if acc[L] > room:
                        continue
                    if boxes:
                        acc = list(acc)
                        acc[cls] += boxes
                        acc[L] += boxes
                        acc = tuple(acc)
                    bucket[acc] = bucket.get(acc, 0) + count
                if not bucket:
                    del new[nu]
        frontier = new

    # the step out of the window must land on the empty partition; the
    # lookahead already ensures it, this keeps the sum right for any bound
    closing = rules[-1]
    rel = interlace_plus if closing.relation == "plus" else interlace_minus
    totals = {}
    for mu, tabs in frontier.items():
        if closing.direction == "ascending":
            ok = rel((), mu)
        else:
            ok = rel(mu, ())
        if ok:
            for acc, count in tabs.items():
                key = acc[:L]
                totals[key] = totals.get(key, 0) + count
    return totals


def _class_counts_to_terms(spec, degree, totals):
    weights = [w.exponents for w in chamber_weights(spec)]
    L = spec.L
    terms = {}
    for acc, count in totals.items():
        exps = [0] * L
        for cls in range(L):
            for v in range(L):
                exps[v] += acc[cls] * weights[cls][v]
        assert all(e >= 0 for e in exps), f"negative exponent from class counts {acc}"
        if sum(exps) <= degree:
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + count
    return terms


def _enumerate(spec, degree, transposed, max_rows=None, window=None, budget=None):
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if budget is None:
        budget = box_budget(spec, degree)
    totals = _sweep(spec, degree, budget, transposed, max_rows, window)
    terms = _class_counts_to_terms(spec, degree, totals)
    return TruncatedSeries(spec.L, degree, terms)


def enumerate_z(spec, degree):
    """Z as an exact truncated series: one term per configuration monomial."""
    return _enumerate(spec, degree, transposed=False)


def enumerate_z_transposed(spec, degree):
    """Same sum with every rule's relation flipped (all slices transposed)."""
    return _enumerate(spec, degree, transposed=True)


def enumerate_z_rows(spec, degree, max_rows):
    """Z restricted to configurations whose slices all have at most max_rows
    rows. An N-walker path determinant computes exactly this sum, so the
    walker cross-checks compare against it."""
    if max_rows < 0:
        raise ValueError("max_rows must be >= 0")
    return _enumerate(spec, degree, transposed=False, max_rows=max_rows)
