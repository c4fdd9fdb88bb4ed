"""Ring perception: connected components, bridges, a smallest set of
smallest rings (SSSR), and the bonds of each ring.

All of them read the molecule's neighbour view.  ``sssr`` returns exactly
the cyclomatic number (bonds - atoms + components) of rings.  Each ring is
an atom cycle normalised to start at its lowest atom and run towards that
atom's lower ring neighbour, and the rings are sorted by (length, atoms).
Where the minimum cycle basis is not unique, which one is chosen depends on
the atom indices.  ``ring_bonds`` gives a ring's bonds in the same order as
its atoms.

Ring perception is on demand: ``Molecule.rings`` calls ``sssr`` on first
read, and a parse calls it only for a molecule whose Kekule rings
``aromatize`` might convert (``valence.may_aromatize``).  Ring membership
needs no SSSR: the ring atoms are the atoms on the bonds that
``find_bridges`` does not return, and a parse finds that set once and
hands it to both.

The SSSR is assembled greedily from candidate cycles.  The bonds that are
not bridges fall into ring systems, the connected components of those
bonds.  A ring system in which every atom has exactly two ring bonds is one
simple cycle, walked once as its own candidate; in any other (fused, spiro
or bridged) system, the shortest cycle through each bond is a candidate.
Candidates are taken shortest-first while linearly independent over GF(2) on
the bond set, until the cyclomatic number is reached.  Fundamental cycles
from a spanning forest are appended as fallback candidates so the count is
always exact.
"""

from __future__ import annotations

from collections import deque

from .model import Bond, NeighborView, neighbor_view


def connected_components(n_atoms: int, bonds: tuple[Bond, ...]) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted atom-index tuples, ordered by first atom."""
    return components(neighbor_view(n_atoms, bonds))


def components(view: NeighborView) -> tuple[tuple[int, ...], ...]:
    """connected_components over an already built neighbour view."""
    seen = [False] * len(view)
    comps: list[tuple[int, ...]] = []
    for root, pairs in enumerate(view):
        if seen[root]:
            continue
        if not pairs:  # a bondless atom is a component of its own
            comps.append((root,))
            continue
        seen[root] = True
        comp = [root]
        for x in comp:  # grows while it is read: a breadth-first search
            for y, _ in view[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
        comp.sort()
        comps.append(tuple(comp))
    return tuple(comps)


def cyclomatic_number(n_atoms: int, bonds: tuple[Bond, ...]) -> int:
    return len(bonds) - n_atoms + len(connected_components(n_atoms, bonds))


def sssr(
    bonds: tuple[Bond, ...],
    view: NeighborView,
    fragments: tuple[tuple[int, ...], ...],
    bridges: frozenset[int] | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Smallest set of smallest rings as normalized atom cycles.

    ``view`` is ``neighbor_view`` of the bonds, ``fragments`` their
    ``components`` and ``bridges``, when given, their ``find_bridges``.
    Returns exactly the cyclomatic number of rings, sorted by (length,
    atoms).
    """
    mu = len(bonds) - len(view) + len(fragments)
    if mu == 0:
        return ()

    adj = [sorted(pairs) for pairs in view]  # by neighbour index
    if bridges is None:
        bridges = find_bridges(view)
    # a shortest cycle never crosses a bridge, so its search can skip them
    ring_adj = [[(j, k) for j, k in pairs if k not in bridges] for pairs in adj]
    candidates: dict[tuple[int, ...], None] = {}
    for system in components(ring_adj):
        if len(system) == 1:  # an atom on no ring bond
            continue
        if all(len(ring_adj[x]) == 2 for x in system):
            candidates.setdefault(_normalize_cycle(_walk_cycle(ring_adj, system[0])))
            continue
        for x in system:
            for _, k in ring_adj[x]:
                bond = bonds[k]
                if x == bond.a:  # each bond once, searched from its first atom
                    cycle = _shortest_cycle_through(ring_adj, x, bond.b, k)
                    candidates.setdefault(_normalize_cycle(cycle))
    for cycle in _fundamental_cycles(adj):
        candidates.setdefault(_normalize_cycle(cycle))

    basis: dict[int, int] = {}  # highest set bit -> reduced mask
    chosen: list[tuple[int, ...]] = []
    for cycle in sorted(candidates, key=lambda c: (len(c), c)):
        mask = 0
        for k in ring_bonds(cycle, view):
            mask |= 1 << k
        while mask:
            high = mask.bit_length() - 1
            if high not in basis:
                basis[high] = mask
                chosen.append(cycle)
                break
            mask ^= basis[high]
        if len(chosen) == mu:
            break
    return tuple(sorted(chosen, key=lambda c: (len(c), c)))


def find_bridges(view: NeighborView) -> frozenset[int]:
    """Indices of the bridge bonds, the bonds on no cycle, via iterative
    Tarjan lowlink traversal of ``view``, a ``neighbor_view``."""
    n = len(view)
    disc = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    timer = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # (atom, bond it was entered by, its untried neighbours)
        stack = [(root, -1, iter(view[root]))]
        while stack:
            node, in_edge, nbrs = stack[-1]
            for nbr, edge_idx in nbrs:
                if edge_idx == in_edge:
                    continue
                if disc[nbr] == -1:
                    disc[nbr] = low[nbr] = timer
                    timer += 1
                    stack.append((nbr, edge_idx, iter(view[nbr])))
                    break
                if disc[nbr] < low[node]:
                    low[node] = disc[nbr]
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                    if low[node] > disc[parent]:
                        bridges.add(in_edge)
    return frozenset(bridges)


def _walk_cycle(ring_adj: list[list[tuple[int, int]]], start: int) -> list[int]:
    """The atoms of a ring system that is one simple cycle, in cycle order."""
    cycle = [start]
    prev, x = start, ring_adj[start][0][0]
    while x != start:
        cycle.append(x)
        a, b = ring_adj[x]
        prev, x = x, (b[0] if a[0] == prev else a[0])
    return cycle


def _shortest_cycle_through(
    adj: list[list[tuple[int, int]]], u: int, v: int, edge: int
) -> list[int]:
    """Shortest path u..v avoiding their bond ``edge``, a non-bridge bond."""
    prev: dict[int, int | None] = {u: None}
    queue = deque([u])
    while True:
        x = queue.popleft()
        for y, k in adj[x]:
            if k == edge or y in prev:
                continue
            prev[y] = x
            if y == v:
                path = [v]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return path  # v back to u; normalising ignores direction
            queue.append(y)


def _fundamental_cycles(adj: list[list[tuple[int, int]]]) -> list[list[int]]:
    n_atoms = len(adj)
    parent = [-1] * n_atoms
    depth = [-1] * n_atoms
    cycles: list[list[int]] = []
    used: set[int] = set()  # tree bonds, then back bonds already closed
    for root in range(n_atoms):
        if depth[root] != -1:
            continue
        depth[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y, k in adj[x]:
                if depth[y] == -1:
                    depth[y] = depth[x] + 1
                    parent[y] = x
                    used.add(k)
                    queue.append(y)
    for x in range(n_atoms):
        for y, k in adj[x]:
            if k in used:
                continue
            used.add(k)
            cycles.append(_tree_cycle(parent, depth, x, y))
    return cycles


def _tree_cycle(parent: list[int], depth: list[int], u: int, v: int) -> list[int]:
    left, right = [u], [v]
    while depth[left[-1]] > depth[right[-1]]:
        left.append(parent[left[-1]])
    while depth[right[-1]] > depth[left[-1]]:
        right.append(parent[right[-1]])
    while left[-1] != right[-1]:
        left.append(parent[left[-1]])
        right.append(parent[right[-1]])
    return left + right[-2::-1]


def _normalize_cycle(cycle: list[int]) -> tuple[int, ...]:
    """The least rotation or reflection: the one from the lowest atom
    towards its lower ring neighbour."""
    i = cycle.index(min(cycle))
    forward = tuple(cycle[i:] + cycle[:i])
    backward = forward[:1] + forward[:0:-1]
    return min(forward, backward)


def ring_bonds(ring: tuple[int, ...], view: NeighborView) -> list[int]:
    """The index of the bond from each ring atom to the next, in ring order:
    bond ``i`` joins ``ring[i]`` and ``ring[(i + 1) % len(ring)]``.

    ``view`` is ``neighbor_view`` of the molecule's bonds.
    """
    bonds = []
    for a, b in zip(ring, ring[1:] + ring[:1]):
        for j, k in view[a]:
            if j == b:
                bonds.append(k)
                break
    return bonds
