"""Independent verdicts for finite graph JSON literals, from one strongly
connected component decomposition (stdlib only, no ``fullgroups``).

- (L): a cycle without an exit is exactly a cyclic component whose every
  vertex has one single out-edge and no omega bundle.
- cofinal: every vertex reaches every vertex on a cycle.
- minimal: cofinal, and every vertex reaches every singular vertex (a sink
  or the source of an omega bundle).
- strongly connected: one component.
"""

from __future__ import annotations


def _components(vertices, succ):
    """Iterative Tarjan; returns vertex -> component id."""
    index, low, comp = {}, {}, {}
    stack, onstack = [], set()
    counter = 0
    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        while work:
            u, it = work[-1]
            for x in it:
                if x not in index:
                    index[x] = low[x] = counter
                    counter += 1
                    stack.append(x)
                    onstack.add(x)
                    work.append((x, iter(succ[x])))
                    break
                if x in onstack:
                    low[u] = min(low[u], index[x])
            else:
                work.pop()
                if work:
                    p = work[-1][0]
                    low[p] = min(low[p], low[u])
                if low[u] == index[u]:
                    while True:
                        x = stack.pop()
                        onstack.discard(x)
                        comp[x] = u
                        if x == u:
                            break
    return comp


def _reaches_all(vertices, pred, targets):
    """True iff every vertex reaches every vertex of ``targets``."""
    for t in targets:
        seen, todo = {t}, [t]
        while todo:
            for x in pred[todo.pop()]:
                if x not in seen:
                    seen.add(x)
                    todo.append(x)
        if len(seen) != len(vertices):
            return False
    return True


def verdicts(data):
    vertices = list(data["vertices"])
    succ = {v: [] for v in vertices}
    pred = {v: [] for v in vertices}
    singles = {v: 0 for v in vertices}
    omega = set()
    for e in data["edges"]:
        succ[e["src"]].append(e["rng"])
        pred[e["rng"]].append(e["src"])
        if e.get("mult", "1") == "omega":
            omega.add(e["src"])
        else:
            singles[e["src"]] += 1
    comp = _components(vertices, succ)
    members = {}
    for v in vertices:
        members.setdefault(comp[v], []).append(v)
    cyclic = [v for v in vertices
              if len(members[comp[v]]) > 1 or v in succ[v]]
    exitless = any(
        all(singles[v] == 1 and v not in omega for v in ms)
        and (len(ms) > 1 or ms[0] in succ[ms[0]])
        for ms in members.values())
    # one representative per component is enough for reachability
    cyc_reps = {comp[v] for v in cyclic}
    cofinal = _reaches_all(vertices, pred, cyc_reps)
    singular = {comp[v] for v in vertices if not succ[v] or v in omega}
    return {
        "L": not exitless,
        "cofinal": cofinal,
        "minimal": cofinal and _reaches_all(vertices, pred, singular - cyc_reps),
        "strongly_connected": len(members) == 1,
    }
