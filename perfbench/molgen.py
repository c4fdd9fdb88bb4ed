"""Drug-like molecules built as graphs, with chemistry kept apart from moltrip.

The benchmark must know, before the program sees a single string, which
inputs are valid and which are the same molecule.  This module therefore
never imports ``moltrip``: it keeps its own graph, its own valence
bookkeeping, its own SMILES writer and reader, and its own "same molecule"
test (colour refinement followed by an exact isomorphism search).

Molecules are assembled from ring, linker and end-group fragments.  Each
fragment is written once as a SMILES template and read with the reader
below, so the templates are checked by the same code that checks the
program's outputs.  A *blueprint* fixes the fragment classes and therefore
the heavy-atom count of a molecule; the workload seed only picks the
variant within each class, the attachment sites and the spelling.
"""

from __future__ import annotations

import random
import re

AROMATIC = 4  # bond order code for an aromatic bond

# Lowest-first permitted valences of uncharged atoms written without brackets.
VALENCES = {
    "B": (3,), "C": (4,), "N": (3,), "O": (2,), "P": (3, 5), "S": (2, 4, 6),
    "F": (1,), "Cl": (1,), "Br": (1,), "I": (1,),
}
# Ring neighbours an aromatic atom written bare may carry (c keeps one H).
AROMATIC_CAPACITY = {"C": 3, "N": 2, "O": 2, "S": 2}

_BOND_TEXT = {1: "", 2: "=", 3: "#", AROMATIC: ""}


class Graph:
    """Heavy-atom graph: per-atom labels plus a symmetric adjacency map."""

    __slots__ = ("elements", "aromatic", "explicit_h", "charges", "adj")

    def __init__(self) -> None:
        self.elements: list[str] = []
        self.aromatic: list[bool] = []
        self.explicit_h: list[int | None] = []  # None unless written in brackets
        self.charges: list[int] = []
        self.adj: list[dict[int, int]] = []

    def __len__(self) -> int:
        return len(self.elements)

    def add_atom(self, element, aromatic=False, explicit_h=None, charge=0) -> int:
        self.elements.append(element)
        self.aromatic.append(aromatic)
        self.explicit_h.append(explicit_h)
        self.charges.append(charge)
        self.adj.append({})
        return len(self.elements) - 1

    def add_bond(self, a: int, b: int, order: int) -> None:
        if a == b or b in self.adj[a]:
            raise ValueError(f"bond {a}-{b} is a self-bond or a duplicate")
        self.adj[a][b] = order
        self.adj[b][a] = order

    def copy(self) -> "Graph":
        g = Graph()
        g.elements = list(self.elements)
        g.aromatic = list(self.aromatic)
        g.explicit_h = list(self.explicit_h)
        g.charges = list(self.charges)
        g.adj = [dict(a) for a in self.adj]
        return g

    def absorb(self, other: "Graph") -> int:
        """Append another graph's atoms and bonds; returns the index offset."""
        offset = len(self)
        for i in range(len(other)):
            self.add_atom(other.elements[i], other.aromatic[i],
                          other.explicit_h[i], other.charges[i])
        for i, nbrs in enumerate(other.adj):
            for j, order in nbrs.items():
                if i < j:
                    self.add_bond(i + offset, j + offset, order)
        return offset


# ---------------------------------------------------------------------------
# valence bookkeeping

def bond_sum(g: Graph, i: int) -> int:
    return sum(1 if o == AROMATIC else o for o in g.adj[i].values())


def hydrogens(g: Graph, i: int) -> int:
    """Hydrogens on atom i: explicit in brackets, else implied by valence."""
    if g.explicit_h[i] is not None:
        return g.explicit_h[i]
    if g.aromatic[i]:
        return max(AROMATIC_CAPACITY.get(g.elements[i], 0) - len(g.adj[i]), 0)
    used = bond_sum(g, i)
    for v in VALENCES.get(g.elements[i], ()):
        if v >= used:
            return v - used
    return 0


def free_sites(g: Graph, i: int) -> int:
    """Hydrogens on atom i that a substituent may replace."""
    if g.explicit_h[i] is not None:
        return 0
    return hydrogens(g, i)


def atom_valid(g: Graph, i: int) -> bool:
    """Valence check of one atom, by this module's own rules."""
    element, nbrs, h = g.elements[i], g.adj[i], g.explicit_h[i]
    if g.aromatic[i]:
        if element not in AROMATIC_CAPACITY:
            return False
        if sum(1 for o in nbrs.values() if o == AROMATIC) < 2:
            return False
        if any(o not in (1, AROMATIC) for o in nbrs.values()):
            return False
        if h is None:
            return len(nbrs) <= AROMATIC_CAPACITY[element]
        return len(nbrs) + h <= 3  # e.g. [nH]: two ring bonds and one H
    if any(o == AROMATIC for o in nbrs.values()):
        return False
    allowed = VALENCES.get(element)
    if allowed is None:
        return True
    return bond_sum(g, i) + (h or 0) - g.charges[i] <= max(allowed)


def is_valid(g: Graph) -> bool:
    return len(g) > 0 and all(atom_valid(g, i) for i in range(len(g)))


# ---------------------------------------------------------------------------
# SMILES reader

_TOKEN = re.compile(
    r"\[(?P<bracket>[^\]]*)\]|(?P<organic>Cl|Br|[BCNOPSFI])|(?P<arom>[bcnops])"
    r"|(?P<bond>[-=#:])|(?P<open>\()|(?P<close>\))|(?P<ring>%\d\d|\d)"
)
_BRACKET = re.compile(
    r"(?P<symbol>[A-Z][a-z]?|se|as|[bcnops])(?P<h>H\d?)?(?P<charge>[+-]\d?)?$"
)
_BOND_CODE = {"-": 1, "=": 2, "#": 3, ":": AROMATIC}


def read_smiles(text: str) -> Graph:
    """Parse a single-component SMILES string; raises ValueError if malformed."""
    g = Graph()
    pos = 0
    prev: int | None = None
    pending: int | None = None
    stack: list[int | None] = []
    rings: dict[str, tuple[int, int | None]] = {}

    def implicit(a: int, b: int) -> int:
        return AROMATIC if g.aromatic[a] and g.aromatic[b] else 1

    text = text.strip()
    if not text:
        raise ValueError("empty string")
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"unexpected {text[pos]!r} at {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind in ("bracket", "organic", "arom"):
            if kind == "bracket":
                b = _BRACKET.match(m.group("bracket"))
                if b is None:
                    raise ValueError(f"bad bracket atom {m.group(0)!r}")
                symbol = b.group("symbol")
                h = b.group("h")
                charge_text = b.group("charge")
                charge = 0
                if charge_text:
                    charge = int(charge_text[1:] or "1") * (
                        1 if charge_text[0] == "+" else -1)
                atom = g.add_atom(symbol.capitalize(), symbol[0].islower(),
                                  int(h[1:] or "1") if h else 0, charge)
            elif kind == "organic":
                atom = g.add_atom(m.group(kind))
            else:
                atom = g.add_atom(m.group(kind).upper(), True)
            if prev is not None:
                g.add_bond(prev, atom, pending or implicit(prev, atom))
            elif pending is not None:
                raise ValueError("bond before the first atom")
            prev, pending = atom, None
        elif kind == "bond":
            if prev is None or pending is not None:
                raise ValueError(f"misplaced bond at {m.start()}")
            pending = _BOND_CODE[m.group(kind)]
        elif kind == "open":
            if prev is None or pending is not None:
                raise ValueError(f"misplaced branch at {m.start()}")
            stack.append(prev)
        elif kind == "close":
            if not stack or pending is not None:
                raise ValueError(f"unbalanced ')' at {m.start()}")
            prev = stack.pop()
        else:
            label = m.group(kind)
            if prev is None:
                raise ValueError("ring bond before the first atom")
            if label in rings:
                other, order = rings.pop(label)
                if order is not None and pending is not None and order != pending:
                    raise ValueError(f"ring {label} has two bond orders")
                g.add_bond(other, prev, order or pending or implicit(other, prev))
            else:
                rings[label] = (prev, pending)
            pending = None
    if pending is not None:
        raise ValueError("dangling bond at the end")
    if stack:
        raise ValueError("unclosed branch")
    if rings:
        raise ValueError(f"unclosed ring {sorted(rings)}")
    if len(components(g)) != 1:
        raise ValueError("more than one component")
    return g


def components(g: Graph) -> list[list[int]]:
    seen = [False] * len(g)
    out = []
    for s in range(len(g)):
        if seen[s]:
            continue
        seen[s] = True
        todo, comp = [s], []
        while todo:
            a = todo.pop()
            comp.append(a)
            for b in g.adj[a]:
                if not seen[b]:
                    seen[b] = True
                    todo.append(b)
        out.append(comp)
    return out


# ---------------------------------------------------------------------------
# SMILES writer

def _atom_text(g: Graph, i: int) -> str:
    symbol = g.elements[i].lower() if g.aromatic[i] else g.elements[i]
    if g.explicit_h[i] is None and g.charges[i] == 0:
        return symbol
    h = g.explicit_h[i] or 0
    text = symbol + ("H" if h == 1 else f"H{h}" if h else "")
    if g.charges[i]:
        text += ("+" if g.charges[i] > 0 else "-") + (
            str(abs(g.charges[i])) if abs(g.charges[i]) > 1 else "")
    return f"[{text}]"


def _bond_text(g: Graph, a: int, b: int) -> str:
    order = g.adj[a][b]
    if order == 1 and g.aromatic[a] and g.aromatic[b]:
        return "-"
    return _BOND_TEXT[order]


def write_smiles(g: Graph, rng: random.Random) -> str:
    """A random valid spelling: random root, random neighbour order."""
    n = len(g)
    order = [rng.sample(sorted(g.adj[i]), len(g.adj[i])) for i in range(n)]
    root = rng.randrange(n)
    seen = [False] * n
    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    ring_ends: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    # first pass: depth-first tree, ring bonds opened at the earlier atom
    seen[root] = True
    stack = [(root, iter(order[root]))]
    while stack:
        atom, it = stack[-1]
        for nbr in it:
            if nbr == parent[atom]:
                continue
            if seen[nbr]:
                if not any(p == atom for p, _ in ring_ends[nbr]):
                    ring_ends[nbr].append((atom, True))    # opens at nbr
                    ring_ends[atom].append((nbr, False))   # closes at atom
                continue
            seen[nbr] = True
            parent[nbr] = atom
            children[atom].append(nbr)
            stack.append((nbr, iter(order[nbr])))
            break
        else:
            stack.pop()
    # second pass: emit, allocating the lowest free ring digit
    digits: dict[tuple[int, int], int] = {}
    free: list[int] = []
    next_digit = [1]
    out: list[str] = []

    def take() -> int:
        if free:
            free.sort()
            return free.pop(0)
        next_digit[0] += 1
        return next_digit[0] - 1

    def emit(atom: int) -> None:
        out.append(_atom_text(g, atom))
        for other, opens in ring_ends[atom]:
            key = (min(atom, other), max(atom, other))
            if opens:
                digits[key] = take()
                out.append(_ring_label(digits[key]))
            else:
                d = digits.pop(key)
                out.append(_bond_text(g, atom, other) + _ring_label(d))
                free.append(d)
        kids = children[atom]
        for k, child in enumerate(kids):
            branch = k < len(kids) - 1
            if branch:
                out.append("(")
            out.append(_bond_text(g, atom, child))
            emit(child)
            if branch:
                out.append(")")

    emit(root)
    return "".join(out)


def _ring_label(d: int) -> str:
    return str(d) if d < 10 else f"%{d}"


# ---------------------------------------------------------------------------
# same-molecule test

class Palette:
    """Shared colour names, so refined colours compare across graphs."""

    def __init__(self) -> None:
        self._names: dict[tuple, int] = {}

    def name(self, signature: tuple) -> int:
        return self._names.setdefault(signature, len(self._names))


def refine(g: Graph, palette: Palette) -> list[int]:
    """Colour refinement from atom labels until the partition is stable."""
    colours = [
        palette.name(("atom", g.elements[i], g.aromatic[i], g.charges[i],
                      hydrogens(g, i), len(g.adj[i])))
        for i in range(len(g))
    ]
    classes = len(set(colours))
    while True:
        new = [
            palette.name((colours[i], tuple(sorted(
                (order, colours[j]) for j, order in g.adj[i].items()))))
            for i in range(len(g))
        ]
        new_classes = len(set(new))
        colours = new
        if new_classes == classes:
            return colours
        classes = new_classes


def invariant(g: Graph, palette: Palette) -> tuple:
    """Equal for the same molecule; a differing value proves difference."""
    return tuple(sorted(refine(g, palette)))


def same_molecule(g1: Graph, g2: Graph, palette: Palette | None = None) -> bool:
    """Exact labelled-graph isomorphism, pruned by refined colours."""
    palette = palette or Palette()
    if len(g1) != len(g2):
        return False
    c1 = refine(g1, palette)
    c2 = refine(g2, palette)
    if sorted(c1) != sorted(c2):
        return False
    if not len(g1):
        return True
    # breadth-first order over g1 from an atom of its rarest colour
    counts: dict[int, int] = {}
    for c in c1:
        counts[c] = counts.get(c, 0) + 1
    root = min(range(len(g1)), key=lambda i: (counts[c1[i]], i))
    order, via, seen = [root], {root: None}, {root}
    for a in order:
        for b in sorted(g1.adj[a]):
            if b not in seen:
                seen.add(b)
                via[b] = a
                order.append(b)
    if len(order) != len(g1):
        raise ValueError("same_molecule compares connected graphs only")
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def fits(a: int, b: int) -> bool:
        if c1[a] != c2[b] or b in used:
            return False
        for x, o in g1.adj[a].items():
            if x in mapping and g2.adj[b].get(mapping[x]) != o:
                return False
        mapped_a = sum(1 for x in g1.adj[a] if x in mapping)
        inverse = {v for v in mapping.values()}
        mapped_b = sum(1 for y in g2.adj[b] if y in inverse)
        return mapped_a == mapped_b

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        a = order[k]
        pool = range(len(g2)) if via[a] is None else g2.adj[mapping[via[a]]]
        for b in sorted(pool):
            if fits(a, b):
                mapping[a] = b
                used.add(b)
                if extend(k + 1):
                    return True
                del mapping[a]
                used.discard(b)
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# fragments

# Ring classes: every variant in a class has the same ring topology.
RING_CLASSES = {
    "A6": ["c1ccccc1", "c1ccncc1", "c1cncnc1", "c1cnccn1", "c1ccnnc1"],
    "A5": ["c1ccsc1", "c1ccoc1", "c1cc[nH]c1", "c1cscn1", "c1cocn1",
           "c1c[nH]cn1"],
    "F66": ["c1ccc2ccccc2c1", "c1ccc2ncccc2c1", "c1ccc2cnccc2c1",
            "c1ccc2ncncc2c1", "c1ccc2nccnc2c1"],
    "F65": ["c1ccc2[nH]ccc2c1", "c1ccc2occc2c1", "c1ccc2sccc2c1",
            "c1ccc2[nH]cnc2c1", "c1ccc2ocnc2c1", "c1ccc2scnc2c1"],
    "S6": ["C1CCCCC1", "C1CCNCC1", "C1COCCN1", "C1CNCCN1", "C1CCOCC1"],
    "S5": ["C1CCCC1", "C1CCNC1", "C1CCOC1"],
}
# Linker classes by heavy-atom count (0 is a direct bond); anchors are the
# two bonded ends.
LINKER_CLASSES = {
    1: [("C", (0, 0)), ("O", (0, 0)), ("N", (0, 0)), ("S", (0, 0))],
    2: [("CC", (0, 1)), ("CO", (0, 1)), ("CN", (0, 1)), ("C=C", (0, 1)),
        ("C#C", (0, 1))],
    3: [("C(=O)N", (0, 2)), ("C(=O)O", (0, 2)), ("CC(=O)", (0, 1)),
        ("CNC", (0, 2)), ("COC", (0, 2))],
    4: [("S(=O)(=O)N", (0, 3)), ("C(=O)NC", (0, 3)), ("NC(=O)N", (0, 3)),
        ("CCOC", (0, 3))],
}
# End-group classes by heavy-atom count; the anchor is atom 0.
END_CLASSES = {
    1: ["C", "F", "Cl", "O", "N", "Br"],
    2: ["C#N", "OC", "CC", "NC", "C=O", "SC"],
    3: ["C(=O)O", "C(=O)N", "C(=O)C", "OCC", "CCO", "N(C)C"],
    4: ["C(F)(F)F", "S(C)(=O)=O", "C(=O)OC", "OC(F)F", "CC(C)C"],
}
RING_SIZES = {"A6": 6, "A5": 5, "F66": 10, "F65": 9, "S6": 6, "S5": 5}


def blueprint(atoms: int, rng: random.Random) -> dict:
    """Fragment classes that add up to exactly ``atoms`` heavy atoms.

    Drawn from a generator seeded by the molecule's slot, not by the
    workload seed, so the size and shape classes of every slot are fixed.
    """
    rings_wanted = 2 if atoms < 23 else 3 if atoms < 33 else 4
    for _ in range(1000):
        rings = [rng.choice(["A6", "A6", "A5", "F66", "F65", "S6", "S5"])
                 for _ in range(rings_wanted)]
        if not any(r[0] in "AF" for r in rings):
            continue
        linkers = [rng.choice([0, 1, 1, 2, 3, 3, 4]) for _ in range(rings_wanted - 1)]
        if not any(linkers) and not any(r[0] == "S" for r in rings):
            continue  # the over-valent edit needs a non-aromatic chain atom
        rest = atoms - sum(RING_SIZES[r] for r in rings) - sum(linkers)
        if rest < 0 or rest > 4 * (rings_wanted + 2):
            continue
        ends = []
        while rest:
            size = rng.randint(1, min(4, rest))
            ends.append(size)
            rest -= size
        return {"rings": rings, "linkers": linkers, "ends": ends}
    raise RuntimeError(f"no blueprint for {atoms} atoms")


def _pick_site(g: Graph, atoms, rng: random.Random, need: int = 1) -> int:
    sites = [i for i in atoms if free_sites(g, i) >= need]
    if not sites:
        raise LookupError("no free site")
    return rng.choice(sites)


def build(plan: dict, rng: random.Random) -> Graph:
    """Assemble a molecule from a blueprint; the rng picks variants and sites."""
    for _ in range(100):
        try:
            return _build_once(plan, rng)
        except LookupError:
            continue
    raise RuntimeError(f"cannot assemble {plan}")


def _build_once(plan: dict, rng: random.Random) -> Graph:
    g = read_smiles(rng.choice(RING_CLASSES[plan["rings"][0]]))
    ring_atoms = list(range(len(g)))
    for ring_class, linker in zip(plan["rings"][1:], plan["linkers"]):
        ring = read_smiles(rng.choice(RING_CLASSES[ring_class]))
        start = _pick_site(g, ring_atoms, rng)
        if linker:
            text, (a, b) = rng.choice(LINKER_CLASSES[linker])
            off = g.absorb(read_smiles(text))
            g.add_bond(start, off + a, 1)
            start = off + b
            if free_sites(g, start) < 1:
                raise LookupError("linker end is full")
        off = g.absorb(ring)
        new_ring = list(range(off, len(g)))
        g.add_bond(start, _pick_site(g, new_ring, rng), 1)
        ring_atoms += new_ring
    for size in plan["ends"]:
        end = read_smiles(rng.choice(END_CLASSES[size]))
        site = _pick_site(g, range(len(g)), rng)
        off = g.absorb(end)
        g.add_bond(site, off, 1)
    if not is_valid(g):
        raise LookupError("assembled an invalid graph")
    return g


# ---------------------------------------------------------------------------
# derived strings

def edit_one_atom(g: Graph, rng: random.Random) -> Graph:
    """A valid molecule that differs from g in the element of one atom."""
    options = []
    for i in range(len(g)):
        el, deg = g.elements[i], len(g.adj[i])
        if g.aromatic[i]:
            if el == "C" and free_sites(g, i) == 1 and _in_plain_six_ring(g, i):
                options.append((i, "N"))
            continue
        if any(o != 1 for o in g.adj[i].values()):
            continue
        if el == "C":
            options += ([(i, "N")] if deg <= 3 else []) + (
                [(i, "O")] if deg <= 2 else []) + (
                [(i, "F"), (i, "Cl")] if deg == 1 else [])
        elif el in ("F", "Cl", "Br"):
            options += [(i, x) for x in ("F", "Cl", "C") if x != el]
        elif el in ("O", "N") and deg <= 2:
            options.append((i, "C"))
    i, element = rng.choice(options)
    out = g.copy()
    out.elements[i] = element
    if not is_valid(out):
        raise AssertionError(f"edit {element} at {i} broke valence")
    return out


def _in_plain_six_ring(g: Graph, i: int) -> bool:
    """Aromatic atom i sits in one six-membered aromatic ring, unfused."""
    ring = _aromatic_ring_of(g, i)
    return ring is not None and len(ring) == 6 and all(
        sum(1 for o in g.adj[a].values() if o == AROMATIC) == 2 for a in ring)


def _aromatic_ring_of(g: Graph, i: int):
    members, todo = {i}, [i]
    while todo:
        a = todo.pop()
        for b, o in g.adj[a].items():
            if o == AROMATIC and b not in members:
                members.add(b)
                todo.append(b)
    return members


def over_valent(g: Graph, rng: random.Random) -> Graph:
    """g with one non-aromatic atom of bond order two or more turned into F."""
    chain = [i for i in range(len(g))
             if not g.aromatic[i] and bond_sum(g, i) >= 2]
    out = g.copy()
    out.elements[rng.choice(chain)] = "F"
    return out


def malformed(text: str, rng: random.Random) -> str:
    """Break the grammar: drop one ring digit or one closing parenthesis."""
    digit_at = [k for k, ch in enumerate(text) if ch.isdigit()]
    close_at = [k for k, ch in enumerate(text) if ch == ")"]
    spots = digit_at + close_at
    k = rng.choice(spots)
    return text[:k] + text[k + 1:]


def respell(g: Graph, rng: random.Random, avoid: str) -> str:
    """Another spelling of g, different from ``avoid`` when one exists."""
    text = avoid
    for _ in range(20):
        text = write_smiles(g, rng)
        if text != avoid:
            break
    return text
