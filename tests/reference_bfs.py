"""Object BFS over the covering tree: the reference the path layers of
``covertree.cover`` are tested against.

Every set here is built one CoverVertex at a time by breadth-first search
over tree neighbours, with no path blocks, no arc table and no transfer, so
it shares nothing with the enumeration it checks but the cover vertex
encoding itself.
"""

from covertree.cover import CoverEdge, cover_children, cover_parent, validate_subtree


def cover_neighbors(g, cv):
    out = cover_children(g, cv)
    parent = cover_parent(g, cv)
    if parent is not None:
        out.append(parent)
    return out


def tree_distance(u, v):
    """Distance between two cover vertices sharing a root (path algebra)."""
    if u.root != v.root:
        raise ValueError("cover vertices live in trees with different roots")
    c = 0
    for a, b in zip(u.path, v.path):
        if a != b:
            break
        c += 1
    return (len(u.path) - c) + (len(v.path) - c)


def _tube_layers(g, members, max_radius):
    """Yield layers of vertices at tree distance 0 .. R from the member set."""
    visited = set(members)
    layer = list(members)
    yield list(layer)
    for _ in range(max_radius):
        nxt = []
        for cv in layer:
            for nb in cover_neighbors(g, cv):
                if nb not in visited:
                    visited.add(nb)
                    nxt.append(nb)
        layer = nxt
        yield list(layer)


def tube_edges(g, members, r):
    """Tree edges whose nearer endpoint is at tree distance exactly r from the subtree."""
    seen, _ = validate_subtree(g, members)
    dist = {}
    for k, layer in enumerate(_tube_layers(g, seen, r + 1)):
        for cv in layer:
            dist[cv] = k
    out = set()
    for cv, d in dist.items():
        if cv.depth == 0:
            continue
        parent = cover_parent(g, cv)
        if parent in dist and min(d, dist[parent]) == r:
            out.add(CoverEdge(cv, g.edge_of(cv.path[-1])))
    return frozenset(out)


def tree_sphere(g, center, r):
    """Sphere of radius r around an arbitrary cover vertex."""
    return frozenset(list(_tube_layers(g, {center}, r))[r])


def tree_arc(g, base_cv, toward_cv, radius):
    """Vertices at tree distance ``radius`` from ``base_cv`` on the branch through
    its neighbour ``toward_cv``."""
    if tree_distance(base_cv, toward_cv) != 1:
        raise ValueError("tree_arc requires adjacent cover vertices")
    if radius == 0:
        return frozenset([base_cv])
    visited = {base_cv, toward_cv}
    layer = [toward_cv]
    for _ in range(radius - 1):
        nxt = []
        for cv in layer:
            for nb in cover_neighbors(g, cv):
                if nb not in visited:
                    visited.add(nb)
                    nxt.append(nb)
        layer = nxt
    return frozenset(layer)


def busemann_value(g, geodesic, w, horizon):
    """Finite-truncation Busemann value  d(w, v_n) - n  at n = horizon."""
    return tree_distance(w, geodesic.vertex_at(g, horizon)) - horizon
