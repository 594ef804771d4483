"""Non-intersecting walker representation of the crystal sums.

A configuration of interlacing partitions becomes N strictly ordered walkers
via h_k(t) = lambda_{N-k+1}(t) + k - 1; non-intersecting path families on a
weighted DAG count the same thing, and the path-counting determinant (the
Lindstrom/Gessel/Viennot identity) computes their weighted sum.

Graph geometry: step i of the step table runs from column 2i to column
2i + 2, so the run of slices before it lives at the even column 2i. A "plus"
step is drawn with straight and diagonal edges between consecutive even
columns; a "minus" step (where a walker may jump by any amount) routes
through a rail column at odd x whose vertical edges carry the per-unit
weight, so a jump of size j occupies j+1 rail vertices and vertex
disjointness enforces exactly the strict inequalities the evolution demands.
All slopes are in {0, +-1} and time only advances, hence any vertex-disjoint
family connects source k to sink k and no signed terms survive beyond the
non-intersecting sum.

Step table. Every walker route reads chambers.potential_steps: a unit of
height raised at ascending step t, or dropped at descending step t, costs
x^{e_t}, and that table's lemmas prove every e_t >= 0, that R walkers
(chambers.row_bound, R <= D) at heights up to walkers - 1 + D carry every
configuration of degree <= D, and that such a configuration changes only at
the table's steps, the 2D + 1 steps priced within the cutoff. walker_graph
builds its edges from the table and profile_bijection_check reads its slice
rules from it.

Transfer lemma. walker_path_matrix reads the same table without building a
graph. A source's row is a vector over the heights 0..walkers-1+D, one path
sum per height, and each step updates it in place. A straight edge is the
identity, so only the rise or drop edges do work: with lift = +1 on
ascending and -1 on descending steps, every height h gains
x^e vec[h - lift]. On a "plus" step the sweep runs against the lift, so the
vec[h - lift] it reads still holds the value from before the step: a walker
moves at most one unit. On a "minus" step it runs with the lift, so that
value is already updated, which is exactly the rail column's running sum: a
walker climbs any number of units, paying x^e for each. Heights outside
0..walkers-1+D are the graph's own boundary, and the vector after the last
step holds the sink entries at the heights below walkers. The cut is the
sink lemma of path_matrix, per step: one backward pass over the table, the
same updates in reverse sweep order with min and + in place of + and x^e,
gives least[i][h], the least degree from height h before step i down to a
sink height. A term of degree delta moved into h survives iff
delta + deg e + live[h] <= D. On a "plus" step live is the table after the
step, since the term has crossed it; on a "minus" step it is the table
before the step, since a term on the rail may still climb, and that table
is the rail's own least degree at h. Weight-1 moves are never filtered, and
a dead term stays dead along them, as in path_matrix; so every entry is the
path sum of walker_graph's path_matrix, term for term.
"""

from heapq import heapify, heappop, heappush
from itertools import product as iter_product

from .chambers import chamber_weights, potential_steps, residue_counts
from .errors import InvalidGraphError, OracleTooLargeError
from .partitions import interlace_minus, interlace_plus
from .series import TruncatedSeries, _codec, det_division_free

_NEVER = float("inf")


class WeightedDag:
    """Directed acyclic graph with series edge weights and paired endpoints.

    vertices are (t, h) integer pairs; edges is an iterable of (tail, head,
    weight) with weight a TruncatedSeries. Walker graphs use a single monomial
    or 1, which the bijection check relies on; path_matrix and lgv_det take
    any series. sources and sinks are equal-length sequences of vertices,
    pairwise distinct on each side.
    """

    __slots__ = ("num_vars", "cutoff", "adjacency", "vertices", "sources", "sinks")

    def __init__(self, num_vars, cutoff, edges, sources, sinks):
        self.num_vars = num_vars
        self.cutoff = cutoff
        self.sources = tuple(sources)
        self.sinks = tuple(sinks)
        if len(set(self.sources)) != len(self.sources):
            raise InvalidGraphError("sources must be pairwise distinct")
        if len(set(self.sinks)) != len(self.sinks):
            raise InvalidGraphError("sinks must be pairwise distinct")
        if len(self.sources) != len(self.sinks):
            raise InvalidGraphError("need as many sinks as sources")
        adjacency = {}
        vertices = set(self.sources) | set(self.sinks)
        for tail, head, weight in edges:
            if weight.num_vars != num_vars or weight.cutoff != cutoff:
                raise InvalidGraphError("edge weight from a different ring")
            adjacency.setdefault(tail, []).append((head, weight))
            vertices.add(tail)
            vertices.add(head)
        self.adjacency = adjacency
        self.vertices = frozenset(vertices)


def _topological_order(g):
    """Vertices in dependency order, always taking the smallest ready vertex."""
    indeg = {v: 0 for v in g.vertices}
    for tail, outs in g.adjacency.items():
        for head, _ in outs:
            indeg[head] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapify(ready)
    order = []
    while ready:
        v = heappop(ready)
        order.append(v)
        for head, _ in g.adjacency.get(v, ()):
            indeg[head] -= 1
            if indeg[head] == 0:
                heappush(ready, head)
    if len(order) != len(g.vertices):
        raise InvalidGraphError("graph has a directed cycle")
    return order


def _least_to_sink(g, order, sinks=None):
    """least[v]: the lowest total degree of any path from v to one of sinks
    (default: every sink of g), 0 at such a sink and infinite when no path
    reaches one; one backward pass over the topological order."""
    sinks = set(g.sinks if sinks is None else sinks)
    shift = _codec(g.num_vars, g.cutoff).shift
    least = {}
    for v in reversed(order):
        if v in sinks:
            least[v] = 0
            continue
        best = _NEVER
        for head, weight in g.adjacency.get(v, ()):
            if weight._packed:
                # the least key has the least degree (series packing lemma (i))
                best = min(best, (min(weight._packed) >> shift) + least[head])
        least[v] = best
    return least


def path_matrix(g):
    """Entry (i, j) = sum of path weights from source i to sink j.

    ways[v] is the running path sum into v as a plain {packed key:
    coefficient} dict in the ring's codec (series module docstring),
    complete once the topological order reaches v and then added into each
    head in place. An edge of weight exactly 1 merges ways[v] into the head
    unmultiplied; any other edge multiplies by the weight's packed terms,
    taken in ascending key order, which is ascending degree, so each term of
    ways[v] stops at the first product that cannot reach a sink within the
    cutoff: by the packing lemma (iii), that is the first weight key at or
    past ((cutoff - least[head] + 1) << shift) - key, and every product kept
    is the exact integer sum of the keys. Only the sink entries become
    series, dropping the coefficients that cancelled; every key at a sink
    lies within the cutoff (the sink lemma below).

    Sink lemma. Let least[v] be the lowest total degree of any path from v to
    a sink (_least_to_sink). Every exponent is non-negative (the clean-terms
    invariant), so along any path degrees only add up: a term of degree delta
    at v reaches a sink only at degree >= delta + least[v]. A term with
    delta + least[v] > cutoff is therefore dead, and so is everything it
    spawns. So heads with least > cutoff are skipped, and a weighted edge into
    head stops its products at cutoff - least[head] instead of at the cutoff.
    A weight-1 merge into head is left unfiltered: least[v] <= least[head]
    there, so a dead term stays dead along it, and no dead term ever sits at
    a sink, where least is 0 and every stored term lies within the cutoff. A
    term that does reach a sink within the cutoff was live at every vertex on
    its way and is never cut, so every entry is the same sum as without the
    cut. The lemma holds for any WeightedDag.
    """
    order = _topological_order(g)
    least = _least_to_sink(g, order)
    cutoff = g.cutoff
    codec = _codec(g.num_vars, cutoff)
    unit = {0: 1}

    def by_key(weight):
        return None if weight._packed == unit else sorted(weight._packed.items())

    # (head, weight terms in key order or None for a unit edge, the bound
    # below which lie the keys within the degree budget at head)
    steps = {
        v: [
            (head, by_key(weight), (cutoff - least[head] + 1) << codec.shift)
            for head, weight in outs
            if least[head] <= cutoff
        ]
        for v, outs in g.adjacency.items()
    }
    matrix = []
    for a in g.sources:
        ways = {a: dict(unit)}
        for v in order:
            wv = ways.get(v)
            if wv is None:
                continue
            for head, weight, reach in steps.get(v, ()):
                into = ways.get(head)
                if weight is None:
                    if into is None:
                        ways[head] = dict(wv)
                    else:
                        for e, c in wv.items():
                            into[e] = into.get(e, 0) + c
                    continue
                if into is None:
                    into = ways[head] = {}
                for e, c in wv.items():
                    below = reach - e
                    for kw, cw in weight:
                        if kw >= below:
                            break
                        key = e + kw
                        into[key] = into.get(key, 0) + c * cw
        matrix.append(
            [
                TruncatedSeries._trusted(
                    g.num_vars, cutoff, {k: c for k, c in ways.get(b, {}).items() if c}
                )
                for b in g.sinks
            ]
        )
    return matrix


def lgv_det(g):
    """Weighted count of vertex-disjoint path families, as a determinant."""
    return det_division_free(path_matrix(g))


def _paths_between(g, start, goal):
    """All directed paths start -> goal as (vertex frozenset, weight) pairs."""
    out = []
    one = TruncatedSeries.one(g.num_vars, g.cutoff)

    def walk(v, seen, weight):
        if v == goal:
            out.append((frozenset(seen), weight))
            return
        for head, w in g.adjacency.get(v, ()):
            walk(head, seen + [head], weight * w)

    walk(start, [start], one)
    return out


def _path_counts(g):
    """Integer path counts from every vertex to each sink, for guard sizing."""
    order = _topological_order(g)
    counts = {b: {} for b in g.sinks}
    for b in g.sinks:
        cnt = {b: 1}
        for v in reversed(order):
            if v == b:
                continue
            total = 0
            for head, _ in g.adjacency.get(v, ()):
                total += cnt.get(head, 0)
            if total:
                cnt[v] = total
        counts[b] = cnt
    return counts


def nonintersecting_bruteforce(g, guard=200_000):
    """Sum of weight products over vertex-disjoint path families, by listing.

    Families are products of per-walker path choices (source k to sink k);
    the guard bounds that product count before any path is materialized.
    """
    counts = _path_counts(g)
    total = 1
    for a, b in zip(g.sources, g.sinks):
        total *= counts[b].get(a, 0)
        if total > guard:
            raise OracleTooLargeError(
                f"family count exceeds the exhaustive-oracle guard ({guard})"
            )
    result = TruncatedSeries.zero(g.num_vars, g.cutoff)
    if total == 0:
        return result
    choices = [_paths_between(g, a, b) for a, b in zip(g.sources, g.sinks)]
    for family in iter_product(*choices):
        used = set()
        weight = TruncatedSeries.one(g.num_vars, g.cutoff)
        ok = True
        for verts, w in family:
            if used & verts:
                ok = False
                break
            used |= verts
            weight = weight * w
        if ok:
            result = result + weight
    return result


def random_layered_dag(rng, cutoff=12):
    """Seeded random test graph: 2 to 4 edge layers over rows 0..3, edges only
    from (layer, r) to (layer+1, r) or (layer+1, r+1), one-variable monomial
    weights q^0..q^2. The slope restriction makes every vertex-disjoint family
    order-preserving, so the determinant must equal the non-intersecting sum.
    """
    layers = rng.randint(2, 4)
    rows = 4
    weights = [TruncatedSeries.monomial(1, cutoff, (k,)) for k in range(3)]
    edges = []
    for layer in range(layers):
        for r in range(rows):
            for dr in (0, 1):
                if r + dr >= rows or rng.random() < 0.3:
                    continue
                edges.append(((layer, r), (layer + 1, r + dr), weights[rng.randint(0, 2)]))
    n = rng.randint(1, 3)
    sources = tuple((0, r) for r in sorted(rng.sample(range(rows), n)))
    sinks = tuple((layers, r) for r in sorted(rng.sample(range(rows), n)))
    return WeightedDag(1, cutoff, edges, sources, sinks)


def _walker_table(spec, walkers, degree):
    """The top height walkers - 1 + degree of spec's walker routes and their
    step table (chambers.potential_steps), once the walker count and the
    degree are checked."""
    if walkers < 1:
        raise ValueError("need at least one walker")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return walkers - 1 + degree, potential_steps(spec, degree)


def _sweep_order(hmax, lift, rail):
    """Heights in the order a step's in-place update visits them: with the
    lift on a rail ("minus") step, against it on a "plus" step."""
    up = range(hmax + 1)
    return up if (lift > 0) == rail else up[::-1]


def _live_table(least, i, rail):
    """The sink table that cuts terms moved at step i: the one before the
    step on a rail, which a term may still climb, else the one after it."""
    return least[i] if rail else least[i + 1]


def _least_by_step(steps, walkers, hmax):
    """least[i][h]: the lowest degree of any walker path from height h before
    step i (after the last step for i = len(steps)) to a sink height below
    walkers, infinite when none is reached; the transfer updates run
    backwards, with min in place of the sum."""
    least = [[0] * walkers + [_NEVER] * (hmax + 1 - walkers)]
    for _, rule, exps in reversed(steps):
        lift = 1 if rule.direction == "ascending" else -1
        cost = sum(exps)
        row = list(least[-1])
        for h in reversed(_sweep_order(hmax, lift, rule.relation == "minus")):
            if 0 <= h + lift <= hmax:
                row[h] = min(row[h], cost + row[h + lift])
        least.append(row)
    least.reverse()
    return least


def walker_path_matrix(spec, walkers, degree):
    """path_matrix(walker_graph(spec, walkers, degree)), entry for entry,
    summed by in-place transfer over the step table without building the
    graph (the transfer lemma in the module docstring)."""
    hmax, steps = _walker_table(spec, walkers, degree)
    least = _least_by_step(steps, walkers, hmax)
    codec = _codec(spec.L, degree)
    # per step: its packed exponents and, in sweep order, the moves it makes
    # as (head, tail, bound): a term at the tail moves iff its key is below
    # bound, that is iff its degree is within what the move leaves (series
    # packing lemma (i)), and its sum with the step's key is then exact (ii)
    plan = []
    for i, (_, rule, exps) in enumerate(steps):
        lift = 1 if rule.direction == "ascending" else -1
        rail = rule.relation == "minus"
        live = _live_table(least, i, rail)
        room = degree - sum(exps)
        moves = [
            (h, h - lift, (room - live[h] + 1) << codec.shift)
            for h in _sweep_order(hmax, lift, rail)
            if 0 <= h - lift <= hmax and live[h] <= room
        ]
        plan.append((codec.pack(exps), moves))
    matrix = []
    for k in range(walkers):
        vec = [{} for _ in range(hmax + 1)]
        vec[k][0] = 1
        for step, moves in plan:
            for head, tail, below in moves:
                terms = vec[tail]
                if not terms:
                    continue
                into = vec[head]
                for e, c in terms.items():
                    if e < below:
                        key = e + step
                        into[key] = into.get(key, 0) + c
        # trusted: each coefficient sums positive terms; every key moved stays within the degree
        matrix.append([TruncatedSeries._trusted(spec.L, degree, vec[j]) for j in range(walkers)])
    return matrix


def walker_graph(spec, walkers, degree):
    """DAG whose N-walker non-intersecting families are the configurations of
    spec with at most N rows per slice, weighted as in enumerate_z.

    A unit of height raised at step s and dropped at a later step s' is
    elevated through slices s+1..s', so it must cost the product of the slice
    weights over that range; the rise edge carries x^{e_s} and the fall edge
    x^{e_s'} of chambers.potential_steps, which multiply to exactly that. The
    graph spans only the steps of that table (the module docstring). The lgv
    route sums the same paths without this graph (walker_path_matrix); the
    graph stays as its oracle.
    """
    return _walker_graph(spec.L, walkers, degree, *_walker_table(spec, walkers, degree))


def _walker_graph(L, walkers, degree, hmax, steps):
    """walker_graph up to height hmax over a potential step table."""
    one = TruncatedSeries.one(L, degree)
    edges = []
    for i, (_, rule, exps) in enumerate(steps):
        unit = TruncatedSeries.monomial(L, degree, exps)
        lift = 1 if rule.direction == "ascending" else -1
        x0, x1 = 2 * i, 2 * i + 2
        if rule.relation == "plus":
            for h in range(hmax + 1):
                edges.append(((x0, h), (x1, h), one))
                if 0 <= h + lift <= hmax:
                    edges.append(((x0, h), (x1, h + lift), unit))
        else:
            rail = x0 + 1
            for h in range(hmax + 1):
                edges.append(((x0, h), (rail, h), one))
                edges.append(((rail, h), (x1, h), one))
                if 0 <= h + lift <= hmax:
                    edges.append(((rail, h), (rail, h + lift), unit))
    sources = tuple((0, k) for k in range(walkers))
    sinks = tuple((2 * len(steps), k) for k in range(walkers))
    return WeightedDag(L, degree, edges, sources, sinks)


def _gadget_moves(g, rule, x0, start):
    """All ways one walker crosses the step starting at column x0 from height
    start within the cutoff, straight from the adjacency lists: (end height,
    vertices used beyond the start, packed key of the weight's exponents).
    An edge whose weight truncated to zero adds nothing to any path sum, so
    no move takes it. Nor does one past the cutoff: in
    profile_bijection_check a move from v to w costs its degree plus
    least_k[w] - least_k[v], and the room it is checked against is at most
    the degree less least_k[v], so a move of degree above the degree never
    fits. So every key summed here stays within the cutoff, where the sum is
    exact (series packing lemma)."""
    cap = _codec(g.num_vars, g.cutoff).cap

    def edges(v):
        for head, w in g.adjacency.get(v, ()):
            if w._packed:
                yield head, next(iter(w._packed))

    out = []
    if rule.relation == "plus":
        for head, exps in edges((x0, start)):
            out.append((head[1], frozenset([head]), exps))
        return out
    for mid, exps_in in edges((x0, start)):
        if mid[0] != x0 + 1:
            continue
        stack = [(mid, [mid], exps_in)]
        while stack:
            v, seen, acc = stack.pop()
            for head, step in edges(v):
                exps = acc + step
                if exps >= cap:
                    continue
                if head[0] == x0 + 2:
                    out.append((head[1], frozenset(seen + [head]), exps))
                elif head[0] == x0 + 1:
                    stack.append((head, seen + [head], exps))
    return out


def _heights_to_partition(heights):
    lam = []
    for k in range(len(heights) - 1, -1, -1):
        part = heights[k] - k
        if part < 0:
            return None
        lam.append(part)
    return tuple(p for p in lam if p)


def _family_verdict(steps, weights, profile, gadget_vertices, total_exp):
    """The reason one family fails the round trip, or None when it passes.

    steps is the potential step table, profile[i] the heights before step i
    (after the last step for i = len(steps)), held across the run of slices
    from step i - 1 to step i, gadget_vertices[i] the vertices the family
    uses crossing step i and total_exp its weight exponent vector.
    """
    walkers = len(profile[0])
    L = len(weights)
    # strict ordering and partition validity at each slice
    lams = []
    for heights in profile:
        if any(heights[i] >= heights[i + 1] for i in range(walkers - 1)):
            return "walker ordering violated"
        lam = _heights_to_partition(heights)
        if lam is None or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            return "slice is not a partition"
        lams.append(lam)
    if lams[0] or lams[-1]:
        return "configuration not empty at the window edge"
    for (_, rule, _), before, after in zip(steps, lams, lams[1:]):
        rel = interlace_plus if rule.relation == "plus" else interlace_minus
        if rule.direction == "ascending":
            ok = rel(after, before)
        else:
            ok = rel(before, after)
        if not ok:
            return "interlacing rule violated"
    # every slice of the run from step t to the next step u holds lam
    class_counts = [0] * L
    for (t, _, _), (u, _, _), lam in zip(steps, steps[1:], lams[1:]):
        for cls, n in enumerate(residue_counts(t + 1, u + 1, L)):
            class_counts[cls] += n * sum(lam)
    mapped = [0] * L
    for cls in range(L):
        for i in range(L):
            mapped[i] += class_counts[cls] * weights[cls][i]
    if tuple(mapped) != total_exp:
        return "family weight disagrees with the configuration weight"
    # rebuild the paths from the profile and compare vertex sets
    for i, ((_, rule, _), before, after, used) in enumerate(
        zip(steps, profile, profile[1:], gadget_vertices)
    ):
        x0 = 2 * i
        rebuilt = set()
        for h0, h1 in zip(before, after):
            if rule.relation == "minus":
                rebuilt.update((x0 + 1, h) for h in range(min(h0, h1), max(h0, h1) + 1))
            rebuilt.add((x0 + 2, h1))
        if rebuilt != used:
            return "profile does not rebuild the original paths"
    return None


def profile_bijection_check(spec, walkers, degree, node_guard=5_000_000):
    """Round-trip every bounded non-intersecting family through the height
    profile: paths -> h_k(t) -> partitions lambda(t) -> paths again.

    Returns True when every family of total degree <= degree reconstructs
    itself exactly and its profile obeys the interlacing rules, the strict
    ordering h_k < h_{k+1}, the empty boundary, and the weight accounting of
    enumerate_z. A failure returns a falsy diagnostic carrying the first
    offending family.

    The families are listed by a depth-first search over the potential step
    table that moves every walker across one step at a time and hands each
    family that closes on the ground state (0, 1, ..., N-1) within the
    degree budget to the per-family verdict. One exact bound
    keeps it from exploring branches that cannot get there; it removes no
    family that can.

    Sink bound lemma. Walker k ends at sink k, so from vertex v its path
    still costs at least least_k[v], the least degree of any path from v to
    sink k (_least_to_sink run towards sink k only). Every edge weight is a
    monomial with non-negative exponents (every e_t >= 0), so
    degrees only add up along a path, and any family completing a partial
    set of moves has degree at least the degree spent so far, plus, for each
    walker already moved, its move's degree and least_k from where it
    landed, plus, for each walker not yet moved, least_k from where it
    stands. A partial set of moves is extended only while that sum stays
    within the budget, so the families that reach the verdict are exactly
    those the unpruned search would reach. The search carries the budget
    less that sum as room: moving walker k from v to w at degree delta
    takes delta + least_k[w] - least_k[v] from it, never a negative amount.
    At the last slice least_k is 0 at sink k and infinite at every other
    sink, so the bound also holds the walkers to the ground state there, and
    since it includes each move's degree it also cuts any partial set of
    moves that already spends more than the budget. Nor is it weaker than
    a bound that spreads the height still to drop over the steps ahead,
    cheapest first and at most N units per "plus" step: each walker's
    cheapest schedule on its own drops its own excess and puts at most one
    unit on a "plus" step, so together they are one such spread.

    node_guard caps the number of nodes entered; past it the search raises
    OracleTooLargeError.
    """
    hmax, steps = _walker_table(spec, walkers, degree)
    g = _walker_graph(spec.L, walkers, degree, hmax, steps)
    weights = [w.exponents for w in chamber_weights(spec)]
    codec = _codec(spec.L, degree)
    order = _topological_order(g)
    least = [_least_to_sink(g, order, (b,)) for b in g.sinks]
    ground = tuple(range(walkers))
    visited = 0
    moves = {}  # (walker, x0, start) -> moves with what they add to the bound
    failures = []

    def advance(i, heights, spent, room, profile, gadget_vertices):
        # room: the budget less the bound of the lemma at this node, which
        # keeps spent, the packed exponents so far, within the degree
        nonlocal visited
        visited += 1
        if visited > node_guard:
            raise OracleTooLargeError("bijection sweep exceeded the node guard")
        if i == len(steps):
            total_exp = codec.unpack(spent)
            verdict = _family_verdict(steps, weights, profile, gadget_vertices, total_exp)
            if verdict is not None:
                failures.append((verdict, profile))
            return
        rule = steps[i][1]
        x0 = 2 * i
        options = []
        for k, h in enumerate(heights):
            got = moves.get((k, x0, h))
            if got is None:
                here = least[k][x0, h]
                got = moves[k, x0, h] = [
                    (h1, verts, exps, (exps >> codec.shift) + least[k][x0 + 2, h1] - here)
                    for h1, verts, exps in _gadget_moves(g, rule, x0, h)
                ]
            options.append(got)

        def pick(k, chosen_next, used, exp_acc, room):
            if k == walkers:
                advance(
                    i + 1,
                    tuple(chosen_next),
                    spent + exp_acc,
                    room,
                    profile + [tuple(chosen_next)],
                    gadget_vertices + [frozenset(used)],
                )
                return
            for h1, verts, exps, cost in options[k]:
                if cost > room or used & verts:
                    continue
                pick(k + 1, chosen_next + [h1], used | verts, exp_acc + exps, room - cost)

        pick(0, [], frozenset(), 0, room)

    room = degree - sum(least[k][a] for k, a in enumerate(g.sources))
    advance(0, ground, 0, room, [ground], [])
    if failures:
        return _BijectionFailure(failures[0])
    return True


class _BijectionFailure:
    """Falsy result carrying the first failing family for inspection."""

    def __init__(self, detail):
        self.reason, self.profile = detail

    def __bool__(self):
        return False

    def __repr__(self):
        return f"BijectionFailure({self.reason!r})"
