"""Non-intersecting walker representation of the crystal sums.

A configuration of interlacing partitions becomes N strictly ordered walkers
via h_k(t) = lambda_{N-k+1}(t) + k - 1; non-intersecting path families on a
weighted DAG count the same thing, and the path-counting determinant (the
Lindstrom/Gessel/Viennot identity) computes their weighted sum.

Graph geometry: integer time slices t live at even columns x = 2t. A "plus"
step is drawn with straight and diagonal edges between consecutive even
columns; a "minus" step (where a walker may jump by any amount) routes
through a rail column at odd x whose vertical edges carry the per-unit
weight, so a jump of size j occupies j+1 rail vertices and vertex
disjointness enforces exactly the strict inequalities the evolution demands.
All slopes are in {0, +-1} and time only advances, hence any vertex-disjoint
family connects source k to sink k and no signed terms survive beyond the
non-intersecting sum.
"""

from itertools import product as iter_product

from .chambers import chamber_weights, peak_slices, slice_rule
from .errors import InvalidGraphError, OracleTooLargeError, UnsupportedChamberError
from .partitions import interlace_minus, interlace_plus
from .series import TruncatedSeries, det_division_free


class WeightedDag:
    """Directed acyclic graph with monomial edge weights and paired endpoints.

    vertices are (t, h) integer pairs; edges is an iterable of (tail, head,
    weight) with weight a TruncatedSeries (a single monomial or 1). sources
    and sinks are equal-length sequences of vertices, pairwise distinct on
    each side.
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

    @property
    def n_paths(self):
        return len(self.sources)

    def to_json_dict(self):
        """Adjacency-list form for dumping graphs while debugging."""
        edges = []
        for tail in sorted(self.adjacency):
            for head, weight in self.adjacency[tail]:
                terms = sorted(weight.terms.items())
                exp, coef = terms[0] if terms else ((0,) * self.num_vars, 0)
                edges.append(
                    {"from": list(tail), "to": list(head), "exp": list(exp), "coef": coef}
                )
        return {
            "num_vars": self.num_vars,
            "cutoff": self.cutoff,
            "sources": [list(v) for v in self.sources],
            "sinks": [list(v) for v in self.sinks],
            "edges": edges,
        }


def _topological_order(g):
    indeg = {v: 0 for v in g.vertices}
    for tail, outs in g.adjacency.items():
        for head, _ in outs:
            indeg[head] += 1
    ready = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for head, _ in g.adjacency.get(v, ()):
            indeg[head] -= 1
            if indeg[head] == 0:
                ready.append(head)
        ready.sort(reverse=True)  # deterministic pop order, smallest first
    if len(order) != len(g.vertices):
        raise InvalidGraphError("graph has a directed cycle")
    return order


def path_matrix(g):
    """Entry (i, j) = sum of path weights from source i to sink j.

    Edges of weight exactly 1 pass ways[v] through unmultiplied (series are
    immutable values); most walker-graph edges are such edges.
    """
    order = _topological_order(g)
    zero = TruncatedSeries.zero(g.num_vars, g.cutoff)
    one = TruncatedSeries.one(g.num_vars, g.cutoff)
    steps = {
        v: [(head, None if weight == one else weight) for head, weight in outs]
        for v, outs in g.adjacency.items()
    }
    matrix = []
    for a in g.sources:
        ways = {a: one}
        for v in order:
            wv = ways.get(v)
            if wv is None:
                continue
            for head, weight in steps.get(v, ()):
                step = wv if weight is None else wv * weight
                ways[head] = ways[head] + step if head in ways else step
        matrix.append([ways.get(b, zero) for b in g.sinks])
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
    edges = []
    for layer in range(layers):
        for r in range(rows):
            for dr in (0, 1):
                if r + dr >= rows or rng.random() < 0.3:
                    continue
                weight = TruncatedSeries.monomial(1, cutoff, (rng.randint(0, 2),))
                edges.append(((layer, r), (layer + 1, r + dr), weight))
    n = rng.randint(1, 3)
    sources = tuple((0, r) for r in sorted(rng.sample(range(rows), n)))
    sinks = tuple((layers, r) for r in sorted(rng.sample(range(rows), n)))
    return WeightedDag(1, cutoff, edges, sources, sinks)


def _single_peak(spec):
    peaks = peak_slices(spec)
    if len(peaks) != 1:
        raise UnsupportedChamberError(
            "walker graphs need a chamber with a single ascending/descending turn"
        )
    if not all(w.is_genuine for w in chamber_weights(spec)):
        raise UnsupportedChamberError("walker graphs need genuine weight monomials")
    return peaks[0]


def walker_graph(spec, walkers, degree):
    """DAG whose N-walker non-intersecting families are the configurations of
    spec with at most N rows per slice, weighted as in enumerate_z.

    A unit of height raised at step s and dropped at step s' is elevated
    through slices s+1..s', so it must cost prod of the slice weights over
    that range; the rise edge carries the run from s+1 up to the peak and the
    fall edge the run from the peak through s', which multiply to exactly
    that. Edges whose monomial exceeds the cutoff are omitted (their families
    could only contribute beyond the truncation).
    """
    if walkers < 1:
        raise ValueError("need at least one walker")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    peak = _single_peak(spec)
    L = spec.L
    weights = [w.exponents for w in chamber_weights(spec)]
    t_min = -(degree + 2) * L
    t_max = (degree + 2) * L
    hmax = walkers - 1 + degree
    one = TruncatedSeries.one(L, degree)

    def run_monomial(lo, hi):
        exps = [0] * L
        for u in range(lo, hi + 1):
            wu = weights[u % L]
            for i in range(L):
                exps[i] += wu[i]
        if sum(exps) > degree:
            return None
        return TruncatedSeries.monomial(L, degree, tuple(exps))

    edges = []
    for t in range(t_min, t_max):
        rule = slice_rule(spec, t)
        ascending = rule.direction == "ascending"
        x0, x1 = 2 * t, 2 * t + 2
        unit = run_monomial(t + 1, peak - 1) if ascending else run_monomial(peak, t)
        if rule.relation == "plus":
            for h in range(hmax + 1):
                edges.append(((x0, h), (x1, h), one))
                if unit is not None:
                    if ascending and h < hmax:
                        edges.append(((x0, h), (x1, h + 1), unit))
                    if not ascending and h > 0:
                        edges.append(((x0, h), (x1, h - 1), unit))
        else:
            rail = x0 + 1
            for h in range(hmax + 1):
                edges.append(((x0, h), (rail, h), one))
                edges.append(((rail, h), (x1, h), one))
                if unit is not None:
                    if ascending and h < hmax:
                        edges.append(((rail, h), (rail, h + 1), unit))
                    if not ascending and h > 0:
                        edges.append(((rail, h), (rail, h - 1), unit))
    sources = tuple((2 * t_min, k) for k in range(walkers))
    sinks = tuple((2 * t_max, k) for k in range(walkers))
    return WeightedDag(L, degree, edges, sources, sinks)


def _gadget_moves(g, rule, x0, start):
    """All ways one walker crosses the step starting at column x0 from height
    start, straight from the adjacency lists: (end height, vertices used
    beyond the start, weight exponent vector)."""
    L = g.num_vars
    zero_exp = (0,) * L

    def exp_of(w):
        terms = list(w.terms.items())
        return terms[0][0] if terms else zero_exp

    out = []
    if rule.relation == "plus":
        for head, w in g.adjacency.get((x0, start), ()):
            out.append((head[1], frozenset([head]), exp_of(w)))
        return out
    for mid, w_in in g.adjacency.get((x0, start), ()):
        if mid[0] != x0 + 1:
            continue
        stack = [(mid, [mid], exp_of(w_in))]
        while stack:
            v, seen, acc = stack.pop()
            for head, w in g.adjacency.get(v, ()):
                exps = tuple(a + b for a, b in zip(acc, exp_of(w)))
                if head[0] == x0 + 2:
                    out.append((head[1], frozenset(seen + [head]), exps))
                elif head[0] == x0 + 1:
                    stack.append((head, seen + [head], exps))
    return out


def profile_bijection_check(spec, walkers, degree, node_guard=5_000_000):
    """Round-trip every bounded non-intersecting family through the height
    profile: paths -> h_k(t) -> partitions lambda(t) -> paths again.

    Returns True when every family of total degree <= degree reconstructs
    itself exactly and its profile obeys the interlacing rules, the strict
    ordering h_k < h_{k+1}, the empty boundary, and the weight accounting of
    enumerate_z. A failure returns a falsy diagnostic carrying the first
    offending family.
    """
    g = walker_graph(spec, walkers, degree)
    peak = _single_peak(spec)
    L = spec.L
    weights = [w.exponents for w in chamber_weights(spec)]
    t_min = -(degree + 2) * L
    t_max = (degree + 2) * L
    ground = tuple(range(walkers))
    budget = degree
    visited = 0

    failures = []

    def heights_to_partition(heights):
        lam = []
        for k in range(walkers - 1, -1, -1):
            part = heights[k] - k
            if part < 0:
                return None
            lam.append(part)
        return tuple(p for p in lam if p)

    def check_family(profile, gadget_vertices, total_exp):
        # strict ordering and partition validity at each slice
        lams = []
        for heights in profile:
            if any(heights[i] >= heights[i + 1] for i in range(walkers - 1)):
                return "walker ordering violated"
            lam = heights_to_partition(heights)
            if lam is None or any(
                lam[i] < lam[i + 1] for i in range(len(lam) - 1)
            ):
                return "slice is not a partition"
            lams.append(lam)
        if lams[0] or lams[-1]:
            return "configuration not empty at the window edge"
        class_counts = [0] * L
        for idx in range(len(lams) - 1):
            t = t_min + idx
            rule = slice_rule(spec, t)
            rel = interlace_plus if rule.relation == "plus" else interlace_minus
            if rule.direction == "ascending":
                ok = rel(lams[idx + 1], lams[idx])
            else:
                ok = rel(lams[idx], lams[idx + 1])
            if not ok:
                return "interlacing rule violated"
            class_counts[(t + 1) % L] += sum(lams[idx + 1])
        mapped = [0] * L
        for cls in range(L):
            for i in range(L):
                mapped[i] += class_counts[cls] * weights[cls][i]
        if tuple(mapped) != total_exp:
            return "family weight disagrees with the configuration weight"
        # rebuild the paths from the profile and compare vertex sets
        for idx in range(len(profile) - 1):
            t = t_min + idx
            rule = slice_rule(spec, t)
            x0 = 2 * t
            rebuilt = set()
            for k in range(walkers):
                h0, h1 = profile[idx][k], profile[idx + 1][k]
                if rule.relation == "plus":
                    rebuilt.add((x0 + 2, h1))
                else:
                    lo, hi = min(h0, h1), max(h0, h1)
                    rebuilt.update((x0 + 1, h) for h in range(lo, hi + 1))
                    rebuilt.add((x0 + 2, h1))
            if rebuilt != gadget_vertices[idx]:
                return "profile does not rebuild the original paths"
        return None

    def advance(t, heights, spent, profile, gadget_vertices):
        nonlocal visited
        visited += 1
        if visited > node_guard:
            raise OracleTooLargeError("bijection sweep exceeded the node guard")
        if t == t_max:
            if heights != ground:
                return
            verdict = check_family(profile, gadget_vertices, spent)
            if verdict is not None:
                failures.append((verdict, profile))
            return
        rule = slice_rule(spec, t)
        x0 = 2 * t
        options = [_gadget_moves(g, rule, x0, h) for h in heights]
        def pick(k, chosen_next, used, exp_acc):
            if k == walkers:
                total = tuple(a + b for a, b in zip(spent, exp_acc))
                if sum(total) <= budget:
                    advance(
                        t + 1,
                        tuple(chosen_next),
                        total,
                        profile + [tuple(chosen_next)],
                        gadget_vertices + [frozenset(used)],
                    )
                return
            for h1, verts, exps in options[k]:
                if used & verts:
                    continue
                pick(
                    k + 1,
                    chosen_next + [h1],
                    used | verts,
                    tuple(a + b for a, b in zip(exp_acc, exps)),
                )
        pick(0, [], frozenset(), (0,) * L)

    advance(t_min, ground, (0,) * L, [ground], [])
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
