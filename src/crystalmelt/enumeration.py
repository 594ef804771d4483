"""Direct enumeration of chamber configurations by a one-pass slice sweep.

A configuration is a bi-infinite partition sequence, empty at both ends,
obeying the chamber's interlacing rule at every step. The sweep walks the
steps of the potential step table (chambers.potential_steps), the 2D + 1
steps priced within the degree D, once, with a frontier of states (current
partition, monomial paid so far) and multiplicity counts.

Runs: the table's lemma proves that a configuration of degree <= D changes
across no other step, so it is empty before the table's first step and after
its last, and the slices from one table step to the next, a run, all hold
one partition. The sweep moves from run to run. No slice between two table
steps is visited, so the sweep's work does not grow with the chamber.

Potential: step t costs e_t, the table's exponent vector, per box it adds or
removes. The table's lemma proves that every e_t is >= 0 componentwise and,
by summation by parts, that a configuration's monomial is the potential it
pays step by step,

    sum_s w_s |lam_s| = sum_t e_t ||lam_{t+1}| - |lam_t||,

with w_s the weight of slice s's class (chamber_weights). So every partial
sum is componentwise at most the final monomial. Below, e_t in a sum of
degrees stands for deg e_t.

Packed counts: the frontier maps each partition to {key: count}, with key the
packed key of a state's monomial so far in the codec of the result's ring
(series._codec(L, D)), and the final counts are the result's terms as they
stand. A move mu -> nu at step t moves d = ||nu| - |mu|| boxes and adds d e_t
to the monomial a. The proof of the series packing lemma holds for key(a) +
d key(e_t) as it stands: its degree fields add up to deg a + d e_t and its
exponent fields to the entries of a + d e_t, each at most that degree. So
when deg a + d e_t <= r <= D no field carries, (ii) the sum is
key(a + d e_t) and (iii) it lies below (r + 1) << shift; otherwise its degree
part alone reaches (r + 1) << shift. By (i), paid(mu) = min(keys) >> shift is
the least degree paid by a state at mu.

The sweep keeps the state (mu, key) through nu when deg a + e_t d +
ahead(t, nu) <= D, with ahead the lower bound below on the potential every
continuation of nu still pays. That is one compare,
key < ((D - ahead + 1) << shift) - d key(e_t). The sweep skips the move
outright when paid(mu) + e_t d + ahead(t, nu) > D, as no state at mu passes
then (and ahead may be infinite). The closing step, out of the last run onto
the empty partition, adds |mu| key(e_t) under the same compare with ahead 0.
By induction over t every state of a configuration of degree <= D is kept:
the potential still to pay is at least ahead, and the degree paid plus it is
the configuration's degree. Every state that closes is a configuration with
its exact monomial, so the counts are exactly those of the configurations of
degree <= D: the prune changes no result.

Lookahead: every step has a componentwise-least successor of mu. Ascending,
both relations only add boxes, so it is mu itself; descending "+" drops one box
from every row (mu_i - 1); descending "-" reads mu_1 >= nu_1 >= mu_2 >= ..., so
it is mu shifted up (mu_2, mu_3, ...). Every valid successor contains the least
one, and the least-successor map is monotone under containment. By induction,
if nu_t contains g_t then nu_{t+1} contains least(nu_t), which contains
least(g_t) = g_{t+1}: every continuation of nu dominates the greedy chain g of
least successors slice by slice, and it can close on the empty partition only
if the chain does (the table's last step accepts () exactly when its least
successor is ()). Let the chain drop k_j boxes at each descending step
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
"""

from functools import lru_cache
from itertools import groupby, product

from .chambers import potential_steps
from .partitions import interlace_minus, interlace_plus
from .series import TruncatedSeries, _codec

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
    """Whether the table's last step, under rule, lands on the empty partition."""
    rel = interlace_plus if rule.relation == "plus" else interlace_minus
    return rel((), mu) if rule.direction == "ascending" else rel(mu, ())


def _cheapest_drops(rules, pot):
    """c[j]: the least pot over the descending steps from step j on, and
    infinite past the last of them, with one entry more than rules for the
    end; rules[j] is step j's slice rule and pot[j] its cost."""
    c = [_NEVER]
    for e, rule in zip(reversed(pot), reversed(rules)):
        c.append(min(c[-1], e) if rule.direction == "descending" else c[-1])
    c.reverse()
    return c


def _sweep(spec, degree, transposed, max_rows):
    """The configurations of degree <= degree counted by their monomials, as
    {packed key of the ring (spec.L, degree): number of configurations}, in
    one pass over the potential step table (module docstring)."""
    table = potential_steps(spec, degree)
    rules = [rule.flipped() if transposed else rule for _, rule, _ in table]
    pot = [sum(e) for _, _, e in table]
    codec = _codec(spec.L, degree)
    shift = codec.shift
    keys = [codec.pack(e) for _, _, e in table]
    c = _cheapest_drops(rules, pot)
    # steps[j] leaves run j; the last one is the table's last step
    steps = [(_least_step(rule), cost) for rule, cost in zip(rules[1:], c[1:])]
    memo = {}
    last = len(rules) - 1
    # each partition of the current run -> {key of the monomial paid so far: count}
    frontier = {(): {0: 1}}
    for i, rule in enumerate(rules):
        plus = rule.relation == "plus"
        e, m, key_e = pot[i], c[i + 1], keys[i]
        new = {}
        looked = {}  # successor -> (its boxes, the least potential it still pays)
        for mu, counts in frontier.items():
            size = sum(mu)
            paid = min(counts) >> shift  # the least degree paid at mu
            if i == last:
                # the table's last step must land on the empty partition; the
                # lookahead already ensures it, this keeps the sum right for any bound
                succs = [()] if _closes(rule, mu) else []
            elif rule.direction == "ascending":
                # every successor contains mu, so it pays at least mu's lookahead
                if paid + _least_ahead(steps, i, mu, memo) > degree:
                    continue
                # (e + m) |nu| <= degree - paid + e |mu|; with no drop ahead, nothing grows
                cap = (degree - paid + e * size) // (e + m) if m < _NEVER else 0
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
                moved = abs(boxes - size)
                if paid + e * moved + ahead > degree:
                    continue  # no state at mu stays within the degree through nu
                step = moved * key_e
                below = ((degree - ahead + 1) << shift) - step
                bucket = new.get(nu)
                if bucket is None:
                    bucket = new[nu] = {}
                for key, count in counts.items():
                    if key < below:
                        key += step
                        bucket[key] = bucket.get(key, 0) + count
        frontier = new
    return frontier.get((), {})


def _enumerate(spec, degree, transposed, max_rows=None):
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return TruncatedSeries._trusted(spec.L, degree, _sweep(spec, degree, transposed, max_rows))


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
