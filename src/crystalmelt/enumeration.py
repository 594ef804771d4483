"""Direct enumeration of chamber configurations by a slice-sweep DP.

A configuration is a bi-infinite partition sequence, empty at both ends,
obeying the chamber's interlacing rule at every step. The sweep walks the
finite window that can carry boxes in three stages. It first walks the
partitions alone under the degree and records the kept steps between them;
then it bounds, per partition, the degree still to come; last it runs a
frontier of states (current partition, boxes spent per slice class, degree
so far) with multiplicity counts over the recorded steps only.

Potential: the sweep reads its rules, its window and its step costs from
the potential step table (chambers.potential_steps), and step t costs e_t,
the degree of the table's exponent vector, per box it adds or removes. The
table's lemma proves that every e_t is >= 0, that a configuration's degree is
the potential it pays step by step,

    sum_t W_t |lam_t| = sum_t e_t ||lam_{t+1}| - |lam_t||,

where W_t is the total degree of the weight of slice t's class, and that
every configuration of degree <= D lies within the table's steps, which are
therefore the sweep's window. The first stage carries the least potential
paid(mu) over the recorded histories of each partition, and records the step
mu -> nu at t when paid(mu) + e_t ||nu| - |mu|| + ahead(t, nu) <= D, with
ahead the lower bound below on the potential every continuation of nu still
pays. By induction over t every step of a configuration of degree <= D is
recorded: its history's steps are, so paid(mu) is at most what that history
paid, and the test passes on its degree. A step is dropped only when no
configuration through it has degree <= D, so the result is the same as
without the test.

Lookahead: every step has a componentwise-least successor of mu. Ascending,
both relations only add boxes, so it is mu itself; descending "+" drops one box
from every row (mu_i - 1); descending "-" reads mu_1 >= nu_1 >= mu_2 >= ..., so
it is mu shifted up (mu_2, mu_3, ...). Every valid successor contains the least
one, and the least-successor map is monotone under containment. By induction,
if nu_t contains g_t then nu_{t+1} contains least(nu_t), which contains
least(g_t) = g_{t+1}: every continuation of nu dominates the greedy chain g of
least successors slice by slice, and it can close on the empty partition only
if the chain does (the step out of the window accepts () exactly when its
least successor is ()). Let the chain drop k_j boxes at each descending step
j > t, and let c(j) be the least e over the descending steps from j on. Then

    ahead(t, nu) = sum_j k_j c(j),

infinite when the chain does not close, is at most the potential any
continuation lam of nu still pays: for each j it holds |lam_{j-1}| >=
|g_{j-1}| boxes before step j and drops them all at j or later, and its rises
cost >= 0 and only add later drops. So at least as many of its drops fall at
j or later as the chain makes from j on; by Hall's theorem each box the chain
drops at j matches a distinct drop of lam at a step from j on, which costs at
least c(j). The chain drops |nu| boxes, so ahead(t, nu) >= m |nu| with
m = c(t + 1); c grows with j, so by summation by parts ahead is monotone in
the chain's slice sizes and hence under containment. When the costs rise
along the steps (on c3) c(j) = e_j and the chain, itself a valid
continuation, attains the bound. On an ascending step every successor
contains mu, so the sweep skips mu when paid(mu) + ahead(t, mu) > D, and
m |nu| caps the successors generated: (e_t + m) |nu| <= D - paid(mu) +
e_t |mu|, where e_t + m >= 1 by the table's lemma. With no descending step
after t nothing but the empty partition closes, and nothing grows.

Degree lookahead: a configuration's monomial has total degree
sum_t W_t |lam_t|, and it is kept only when that sum is at most D. One
backward min-plus pass over the recorded steps gives least_degree(t, nu): the
least sum_{t' > t} W_t' |lam_t'| over recorded paths from nu to a closing
partition, infinite if none. The graph records every step of every
configuration of degree <= D, so a minimum over a superset of the real
continuations is a lower bound on the degree any continuation still adds. So
a state whose degree so far plus W_t |nu| plus least_degree(t, nu) exceeds D
has no completion of degree <= D, and dropping it removes only configurations
that the final degree filter would drop anyway: the result is the same as
without the bound.
"""

from functools import lru_cache
from itertools import groupby, product

from .chambers import chamber_weights, potential_steps
from .partitions import interlace_minus, interlace_plus
from .series import TruncatedSeries

# least-successor maps of one step (module docstring); _NEVER: cannot close
_KEEP, _DROP, _SHIFT = 0, 1, 2
_NEVER = float("inf")


def _extend(heads, options, limit):
    """Each head (parts, boxes) followed by each option (more parts, their
    boxes) that keeps the boxes within limit, in order; options come sorted by
    their boxes. Lazy, so a chain of calls builds a table depth first and
    frees each partial head as soon as its extensions are out."""
    for head, boxes in heads:
        for more, extra in options:
            if boxes + extra > limit:
                break
            yield head + more, boxes + extra


@lru_cache(maxsize=None)
def _succ_grow_plus(mu, cap):
    """All lam >=+ mu with |lam| <= cap: in each block of equal parts, the first
    k rows gain one box, for every k from 0 to the block's length, and any
    number of 1-rows may follow. Blocks are chosen one after the other in
    lexicographic order, keeping only the choices that fit the cap."""
    room = cap - sum(mu)
    heads = [((), 0)]  # (rows so far, boxes gained so far)
    for v, run in groupby(mu):
        m = len(list(run))
        blocks = [((v + 1,) * k + (v,) * (m - k), k) for k in range(m + 1)]
        heads = _extend(heads, blocks, room)
    heads = _extend(heads, [((1,) * k, k) for k in range(room + 1)], room)
    return [lam for lam, _ in heads]


@lru_cache(maxsize=None)
def _succ_grow_minus(mu, cap):
    """All lam >=- mu with |lam| <= cap.

    The chain lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... bounds lam_1 below by mu_1
    and above only by the cap, puts each later lam_(i+1) in [mu_(i+1), mu_i],
    and allows one extra final part in [0, mu_n]; a final 0 is dropped. The
    parts are chosen range by range in lexicographic order, each capped so
    that the least parts still to come fit the cap.
    """
    rest = sum(mu)  # boxes the parts still to come need at least
    heads = [((), 0)]  # (parts so far, their boxes)
    for low, high in zip(mu + (0,), (cap,) + mu):
        rest -= low
        heads = _extend(heads, [((v,), v) for v in range(low, high + 1)], cap - rest)
    return [lam[:-1] if not lam[-1] else lam for lam, _ in heads]


@lru_cache(maxsize=None)
def _succ_shrink_plus(mu):
    """All nu with mu >=+ nu: in each block of equal parts, the last k rows
    lose one box, for every k from 0 to the block's length."""
    blocks = []
    for v, run in groupby(mu):
        m = len(list(run))
        lowered = (v - 1,) if v > 1 else ()
        blocks.append([(v,) * (m - k) + lowered * k for k in range(m + 1)])
    return sorted(sum(parts, ()) for parts in product(*blocks))


@lru_cache(maxsize=None)
def _succ_shrink_minus(mu):
    """All nu with mu >=- nu: mu_1 >= nu_1 >= mu_2 >= nu_2 >= ..., so each nu_i
    ranges over [mu_{i+1}, mu_i] on its own. Only the last part can be 0, and
    dropping it keeps the lexicographic order of the product."""
    ranges = [range(low, high + 1) for high, low in zip(mu, mu[1:] + (0,))]
    return [nu[:-1] if nu and not nu[-1] else nu for nu in product(*ranges)]


def _least_step(rule):
    """Code of the least-successor map of one step (see the module docstring)."""
    if rule.direction == "ascending":
        return _KEEP
    return _DROP if rule.relation == "plus" else _SHIFT


def _least_ahead(steps, i, lam, memo):
    """Least potential that any valid continuation of lam must still pay.

    lam sits at position i; steps[j] = (code, cost) holds the code of the
    least-successor map of the step out of position j and, for a descending
    step, c of that step: the least cost over the descending steps from it on.
    The step out of the last position must land on the empty partition. The
    result charges each box the greedy chain of least successors drops after
    position i at c of its step, or is infinite when that chain does not
    close, in which case no continuation does (module docstring). memo maps
    (position, partition) to results and lives for one sweep; the chain is
    walked iteratively, so its length is not limited by the recursion depth.
    """
    last = len(steps) - 1
    chain = []
    while True:
        if not lam:
            total = 0
            break
        total = memo.get((i, lam))
        if total is not None:
            break
        step, cost = steps[i]
        if step == _KEEP:
            nxt, paid = lam, 0
        elif step == _DROP:
            nxt, paid = tuple(x - 1 for x in lam if x > 1), cost * len(lam)
        else:
            nxt, paid = lam[1:], cost * lam[0]
        chain.append((i, lam, paid))
        if i == last:
            total = 0 if not nxt else _NEVER
            break
        i, lam = i + 1, nxt
    for j, mu, paid in reversed(chain):
        total += paid
        memo[(j, mu)] = total
    return total


def _closes(rule, mu):
    """Whether the step out of the window, under rule, lands on the empty partition."""
    rel = interlace_plus if rule.relation == "plus" else interlace_minus
    return rel((), mu) if rule.direction == "ascending" else rel(mu, ())


def _least_degree(graph, weights, ends):
    """least[i][nu]: the least sum of weights[t] * |lam_t| over t > i along the
    recorded paths from nu at position i to a closing partition (infinite if
    none). graph[i] maps each partition at position i - 1 to its recorded edges
    (nu, boxes) into position i; ends holds the bounds of the last
    position. One backward min-plus pass (module docstring).
    """
    least = [None] * len(graph)
    least[-1] = ends
    for i in range(len(graph) - 1, 0, -1):
        w, after = weights[i], least[i]
        least[i - 1] = {
            mu: min((w * boxes + after[nu] for nu, boxes in edges), default=_NEVER)
            for mu, edges in graph[i].items()
        }
    return least


def _cheapest_drops(rules, pot):
    """c[j]: the least pot over the descending steps from step j on, and
    infinite past the last of them, with one entry more than rules for the
    end; rules[j] is step j's slice rule and pot[j] its cost."""
    c = [_NEVER]
    for e, rule in zip(reversed(pot), reversed(rules)):
        c.append(min(c[-1], e) if rule.direction == "descending" else c[-1])
    c.reverse()
    return c


def _partition_graph(rules, pot, degree, max_rows):
    """Stage 1: the partition graph under the degree, carrying per partition
    only the least potential paid over its recorded histories (module
    docstring). rules[i] is the step into slice i of the window and pot[i]
    its potential cost. Returns (graph, paid): graph[i] maps each partition
    at slice i - 1 to its recorded edges (nu, boxes) into slice i, and paid
    maps the partitions of the last slice to their least potential paid."""
    c = _cheapest_drops(rules, pot)
    # steps[j] leaves slice j; the last one is the step out of the window
    steps = [(_least_step(rule), cost) for rule, cost in zip(rules[1:], c[1:])]
    memo = {}
    graph = []
    paid = {(): 0}
    for i, rule in enumerate(rules[:-1]):
        plus = rule.relation == "plus"
        e, m = pot[i], c[i + 1]
        edges_of = {}
        new = {}
        looked = {}  # successor -> (its boxes, the least potential it still pays)
        for mu, least_paid in paid.items():
            size = sum(mu)
            edges = edges_of[mu] = []
            if rule.direction == "ascending":
                # every successor contains mu, so it pays at least mu's lookahead
                if least_paid + _least_ahead(steps, i, mu, memo) > degree:
                    continue
                # (e + m) |nu| <= degree - paid + e |mu|; with no drop ahead, nothing grows
                cap = (degree - least_paid + e * size) // (e + m) if m < _NEVER else 0
                succs = _succ_grow_plus(mu, cap) if plus else _succ_grow_minus(mu, cap)
            else:
                succs = _succ_shrink_plus(mu) if plus else _succ_shrink_minus(mu)
            for nu in succs:
                if max_rows is not None and len(nu) > max_rows:
                    continue
                sized = looked.get(nu)
                if sized is None:
                    sized = looked[nu] = (sum(nu), _least_ahead(steps, i, nu, memo))
                boxes, ahead = sized
                reached = least_paid + e * abs(boxes - size)
                if reached + ahead > degree:
                    continue
                edges.append((nu, boxes))
                if new.get(nu, _NEVER) > reached:
                    new[nu] = reached
        graph.append(edges_of)
        paid = new
    return graph, paid


def _sweep(spec, degree, transposed, max_rows, window=None):
    L = spec.L
    table = potential_steps(spec, degree, window)
    if len(table) < 2:  # no slice in the window: only the empty configuration
        return {(0,) * L: 1}
    rules = [rule.flipped() if transposed else rule for _, rule, _ in table]
    pot = [sum(e) for _, _, e in table]
    classes = [(t + 1) % L for t, _, _ in table[:-1]]
    total_degree = [w.total_degree for w in chamber_weights(spec)]
    weights = [total_degree[c] for c in classes]

    # stage 1: the partition graph; graph[i] holds the edges into slice i of the window
    graph, paid = _partition_graph(rules, pot, degree, max_rows)

    # stage 2: the least degree any recorded continuation still adds
    closing = rules[-1]
    least = _least_degree(
        graph, weights, {nu: 0 if _closes(closing, nu) else _NEVER for nu in paid}
    )

    # stage 3: the class-count sweep over the recorded edges; a count vector
    # (class counts, degree) is dropped once no recorded continuation can
    # keep it within the degree
    frontier = {(): {(0,) * (L + 1): 1}}
    for edges_of, bound, w, cls in zip(graph, least, weights, classes):
        new = {}
        for mu, tabs in frontier.items():
            for nu, boxes in edges_of[mu]:
                step = w * boxes
                limit = degree - step - bound[nu]
                bucket = new.get(nu)
                if bucket is None:
                    bucket = new[nu] = {}
                for acc, count in tabs.items():
                    if acc[-1] > limit:
                        continue
                    if boxes:
                        acc = list(acc)
                        acc[cls] += boxes
                        acc[-1] += step
                        acc = tuple(acc)
                    bucket[acc] = bucket.get(acc, 0) + count
                if not bucket:
                    del new[nu]
        frontier = new

    # the step out of the window must land on the empty partition; the bounds
    # already ensure it, this keeps the sum right for any bound
    totals = {}
    for mu, tabs in frontier.items():
        if _closes(closing, mu):
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


def _enumerate(spec, degree, transposed, max_rows=None, window=None):
    if degree < 0:
        raise ValueError("degree must be >= 0")
    totals = _sweep(spec, degree, transposed, max_rows, window)
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
