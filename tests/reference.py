"""Reference oracles: direct, unmemoized transcriptions of the definitions.

Deliberately naive and exponential; callers keep inputs small (depth <= 3).
The package's memoized code paths share nothing with these functions, so
agreement is meaningful evidence.  ``ref_value_at`` is the per-coloring
scorer of board payoffs; the package scores them only by restriction
(``compiled``), so the payoff tables are checked against it.
"""


def ref_leq(G, H):
    ok = (all(ref_tri(gl, H) for gl in G.left)
          and all(ref_tri(G, hr) for hr in H.right))
    if ok and (G.is_atomic or H.is_atomic):
        ok = ref_tri(G, H)
    return ok


def ref_tri(G, H):
    if G.is_atomic and H.is_atomic:
        return G.poset.le(G.atom, H.atom)
    return (any(ref_leq(gr, H) for gr in G.right)
            or any(ref_leq(G, hl) for hl in H.left))


def ref_equiv(G, H):
    return ref_leq(G, H) and ref_leq(H, G)


def ref_positions(G):
    seen = {}
    stack = [G]
    while stack:
        g = stack.pop()
        if g.uid in seen:
            continue
        seen[g.uid] = g
        stack.extend(g.left + g.right)
    return list(seen.values())


def ref_fold(G, settled):
    """(entered, built): the positions a memoized recursion over G enters
    and the ones it finishes by building, each in its order.  Left options
    are recursed into before right ones, in stored order; a position for
    which ``settled`` holds is entered, but neither opened nor built."""
    entered, built, seen = [], [], set()

    def visit(g):
        if g.uid in seen:
            return
        seen.add(g.uid)
        entered.append(g)
        if settled(g):
            return
        for x in g.left + g.right:
            visit(x)
        built.append(g)

    visit(G)
    return entered, built


def ref_is_passable(G):
    return all(g.is_atomic or ref_tri(g, g) for g in ref_positions(G))


def ref_is_monotone(G):
    for g in ref_positions(G):
        if g.is_atomic:
            continue
        if not all(ref_leq(g, x) for x in g.left):
            return False
        if not all(ref_leq(x, g) for x in g.right):
            return False
    return True


def ref_sum(G, H):
    """The disjunctive sum by its definition, as an interned raw tree: each
    side's options are G's options summed with H, then G summed with H's
    options, the left side built before the right, each pair once."""
    from scgames.games import atomic, composite
    from scgames.poset import product

    pr = product(G.poset, H.poset)
    memo = {}

    def rec(g, h):
        key = (g.uid, h.uid)
        if key not in memo:
            if g.is_atomic and h.is_atomic:
                memo[key] = atomic(pr.pair(g.atom, h.atom), pr)
            else:
                memo[key] = composite(
                    [rec(x, h) for x in g.left] + [rec(g, y) for y in h.left],
                    [rec(x, h) for x in g.right]
                    + [rec(g, y) for y in h.right], pr)
        return memo[key]

    return rec(G, H)


def ref_value_at(expr, black, n):
    """The payoff at one coloring of n cells, black being the mask of black
    cells, by name: each payoff class by its definition, read off the
    pattern strings and the function table."""
    from scgames.poset import product
    from scgames.setcolor import Compose, Const, Dual, Threshold

    if isinstance(expr, Const):
        return expr.atom
    if isinstance(expr, Threshold):
        val = expr.poset.bot
        for a, patterns in expr.sets.items():
            if any(all(black >> i & 1 for i, c in enumerate(p) if c == "1")
                   for p in patterns):
                val = expr.poset.join2(val, a)
        return val
    if isinstance(expr, Dual):
        flipped = ((1 << n) - 1) & ~black
        return expr.poset.dual_atom_map()[ref_value_at(expr.child, flipped, n)]
    assert isinstance(expr, Compose)
    element = dom = None
    for child, emb in expr.children:
        sub = sum(1 << j for j, i in enumerate(emb) if black >> i & 1)
        v = ref_value_at(child, sub, len(emb))
        if element is None:
            element, dom = v, child.poset
        else:
            dom = product(dom, child.poset)
            element = dom.pair(element, v)
    return expr.fn(element)


def ref_eval(S, position=None):
    """Raw board value by the textbook recursion, no simplification.

    position is a string over 1/0/. in cell order; defaults to all empty.
    Each partial coloring is valued once, so a carrier of n cells costs
    3^n positions; keep carriers at 10 or fewer cells.
    """
    from scgames.games import atomic, composite

    n = len(S.cells)
    cells = position if position is not None else "." * n
    assert len(cells) == n
    memo = {}

    def rec(state):
        if state in memo:
            return memo[state]
        if "." not in state:
            black = sum(1 << i for i, c in enumerate(state) if c == "1")
            out = atomic(ref_value_at(S.payoff, black, n), S.poset)
        else:
            lefts, rights = [], []
            for i, c in enumerate(state):
                if c == ".":
                    lefts.append(rec(state[:i] + "1" + state[i + 1:]))
                    rights.append(rec(state[:i] + "0" + state[i + 1:]))
            out = composite(lefts, rights, S.poset)
        memo[state] = out
        return out

    return rec(cells)


def ref_count_antichains(n):
    """Count antichains of subsets of an n-set by checking all mask sets."""
    count = 0
    for bits in range(1 << (1 << n)):
        chosen = [m for m in range(1 << n) if bits >> m & 1]
        if all(x & y != x and x & y != y
               for i, x in enumerate(chosen) for y in chosen[i + 1:]):
            count += 1
    return count


def ref_orbit_minima(n):
    """The smallest board_at(n) index in each orbit of the n-cell boards
    under cell permutations: every board's patterns are permuted all n!
    ways and the permuted boards looked up by their pattern sets."""
    from itertools import permutations
    from scgames.catalog import DEDEKIND, board_at

    boards = [board_at(n, i).payoff.sets for i in range(DEDEKIND[n] ** 2)]
    index = {(frozenset(s["a"]), frozenset(s["b"])): i
             for i, s in enumerate(boards)}
    conditions = {s[x] for s in boards for x in "ab"}
    images = [{c: frozenset("".join(p[k] for k in perm) for p in c)
               for c in conditions}
              for perm in permutations(range(n))]
    return {min(index[img[s["a"]], img[s["b"]]] for img in images)
            for s in boards}


def ref_cell_permutations(n):
    """For each permutation of the n cells, the antichains(n) index of the
    image of each antichain, every image built from the masks."""
    from itertools import permutations
    from scgames.catalog import antichains

    acs = antichains(n)
    index = {ac: j for j, ac in enumerate(acs)}
    tables = []
    for perm in permutations(range(n)):
        image = [sum(1 << perm[c] for c in range(n) if m >> c & 1)
                 for m in range(1 << n)]
        tables.append([index[tuple(sorted(image[m] for m in ac))]
                       for ac in acs])
    return tables


def ref_restrictions(n):
    """For each n-cell antichain and each cell i, the (n-1)-cell antichain
    indices of the condition with i black and with i white, every cell
    restricted and squeezed out directly."""
    from scgames.catalog import antichains

    index = {ac: j for j, ac in enumerate(antichains(n - 1))}
    rows = []
    for ac in antichains(n):
        row = []
        for i in range(n):
            low = (1 << i) - 1

            def squeeze(m):
                return m & low | m >> (i + 1) << i
            met = {squeeze(m) for m in ac}
            black = tuple(sorted(m for m in met
                                 if not any(o != m and o & m == o
                                            for o in met)))
            white = tuple(squeeze(m) for m in ac if not m >> i & 1)
            row.append((index[black], index[white]))
        rows.append(tuple(row))
    return tuple(rows)
