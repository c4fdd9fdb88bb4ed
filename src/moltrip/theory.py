"""Brute-force verification of the round-trip information bound.

On a small discrete system (molecule symbols X, caption symbols Y, forward
channel X->Y, reconstruction channel Y->X', and a distance over X) every
quantity in the bound chain is an exact finite sum: mutual information, the
variational lower bound, the log-likelihood Lipschitz constant, and the
final distance-penalized bound.  A report records the chain and whether it
holds to tolerance.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .records import checked

_ROW_TOL = 1e-12
_BOUND_TOL = 1e-9
MAX_SYMBOLS = 8


class UnsupportedZero(ValueError):
    """A zero probability appears where a logarithm of it is required."""


Matrix = tuple[tuple[float, ...], ...]


def _check_stochastic(name: str, rows: Matrix) -> None:
    for r, row in enumerate(rows):
        if any(p < 0 for p in row):
            raise ValueError(f"{name} row {r} has a negative entry")
        if abs(sum(row) - 1.0) > _ROW_TOL:
            raise ValueError(f"{name} row {r} sums to {sum(row)!r}, not 1")


@checked
class DiscreteSystem(NamedTuple):
    """Finite round-trip system: p(x), p(y|x), q(x'|y), and a distance d."""

    px: tuple[float, ...]
    p_theta: Matrix  # |X| rows over Y
    q_phi: Matrix    # |Y| rows over X
    dist: Matrix     # |X| x |X|, symmetric, zero diagonal

    def _check(self) -> None:
        nx = len(self.px)
        if not 2 <= nx <= MAX_SYMBOLS:
            raise ValueError(f"|X| = {nx} outside 2..{MAX_SYMBOLS}")
        _check_stochastic("px", (self.px,))
        if len(self.p_theta) != nx:
            raise ValueError("p_theta must have one row per x")
        _check_stochastic("p_theta", self.p_theta)
        ny = len(self.p_theta[0])
        if len(self.q_phi) != ny:
            raise ValueError("q_phi must have one row per y")
        if any(len(row) != nx for row in self.q_phi):
            raise ValueError("q_phi rows must cover X")
        _check_stochastic("q_phi", self.q_phi)
        if len(self.dist) != nx or any(len(row) != nx for row in self.dist):
            raise ValueError("dist must be |X| x |X|")
        for i in range(nx):
            if self.dist[i][i] != 0.0:
                raise ValueError("dist diagonal must be zero")
            for j in range(nx):
                if self.dist[i][j] < 0:
                    raise ValueError("dist entries must be non-negative")
                if self.dist[i][j] != self.dist[j][i]:
                    raise ValueError("dist must be symmetric")

    @property
    def nx(self) -> int:
        return len(self.px)

    @property
    def ny(self) -> int:
        return len(self.p_theta[0])

    def py(self) -> tuple[float, ...]:
        return tuple(
            sum(self.px[x] * self.p_theta[x][y] for x in range(self.nx))
            for y in range(self.ny)
        )


class BoundReport(NamedTuple):
    mi: float
    entropy_x: float
    ba_bound: float
    lipschitz_L: float
    c_term: float
    mi_lower: float
    holds: bool


def entropy(probs: tuple[float, ...]) -> float:
    return -sum(p * math.log(p) for p in probs if p > 0)


def mutual_information(sys: DiscreteSystem) -> float:
    """Exact I(X;Y) from the joint table, natural log, 0 log 0 = 0."""
    py = sys.py()
    total = 0.0
    for x in range(sys.nx):
        for y in range(sys.ny):
            joint = sys.px[x] * sys.p_theta[x][y]
            if joint > 0:
                total += joint * (math.log(sys.p_theta[x][y]) - math.log(py[y]))
    return total


def ba_lower_bound(sys: DiscreteSystem) -> float:
    """H(X) + E[log q(x|y)] under the forward joint."""
    expectation = 0.0
    for x in range(sys.nx):
        for y in range(sys.ny):
            joint = sys.px[x] * sys.p_theta[x][y]
            if joint > 0:
                q = sys.q_phi[y][x]
                if q <= 0:
                    raise UnsupportedZero(
                        f"q_phi({x}|{y}) = 0 on joint support"
                    )
                expectation += joint * math.log(q)
    return entropy(sys.px) + expectation


def lipschitz_constant(sys: DiscreteSystem) -> float:
    """Smallest L with |log q(x|y) - log q(x'|y)| <= L d(x,x') everywhere."""
    worst = 0.0
    for y in range(sys.ny):
        row = sys.q_phi[y]
        if any(q <= 0 for q in row):
            raise UnsupportedZero(f"q_phi row {y} has a zero entry")
        for x in range(sys.nx):
            for xp in range(x + 1, sys.nx):
                gap = abs(math.log(row[x]) - math.log(row[xp]))
                d = sys.dist[x][xp]
                if d <= 0:
                    if gap > 0:
                        raise ValueError(
                            f"zero distance between distinct symbols {x},{xp}"
                        )
                    continue
                worst = max(worst, gap / d)
    return worst


def check_mi_bound(sys: DiscreteSystem) -> BoundReport:
    """Evaluate the full chain MI >= BA bound >= H(X) - alpha E[d] + C.

    The constant is handled per caption symbol: C_y is the negative entropy
    of the reconstruction row, averaged under the caption marginal.
    """
    mi = mutual_information(sys)
    entropy_x = entropy(sys.px)
    ba = ba_lower_bound(sys)
    alpha = lipschitz_constant(sys)
    py = sys.py()
    c_term = 0.0
    expected_distance = 0.0
    for y in range(sys.ny):
        row = sys.q_phi[y]
        c_y = sum(q * math.log(q) for q in row if q > 0)
        c_term += py[y] * c_y
    for x in range(sys.nx):
        for y in range(sys.ny):
            forward = sys.px[x] * sys.p_theta[x][y]
            if forward == 0:
                continue
            for xp in range(sys.nx):
                expected_distance += (
                    forward * sys.q_phi[y][xp] * sys.dist[x][xp]
                )
    mi_lower = entropy_x - alpha * expected_distance + c_term
    holds = mi >= mi_lower - _BOUND_TOL and mi >= ba - _BOUND_TOL
    return BoundReport(
        mi=mi,
        entropy_x=entropy_x,
        ba_bound=ba,
        lipschitz_L=alpha,
        c_term=c_term,
        mi_lower=mi_lower,
        holds=holds,
    )


def random_system(
    rng: random.Random,
    max_symbols: int = 6,
) -> DiscreteSystem:
    """Strictly positive random system, suitable for every operation here.

    |X| and |Y| are drawn from 2..max_symbols, which must lie in
    2..MAX_SYMBOLS.
    """
    if not 2 <= max_symbols <= MAX_SYMBOLS:
        raise ValueError(f"max_symbols must be in 2..{MAX_SYMBOLS}, not {max_symbols}")
    nx = rng.randint(2, max_symbols)
    ny = rng.randint(2, max_symbols)

    def simplex(k: int) -> tuple[float, ...]:
        raw = [rng.random() + 0.05 for _ in range(k)]
        total = sum(raw)
        return tuple(v / total for v in raw)

    dist_rows = [[0.0] * nx for _ in range(nx)]
    for i in range(nx):
        for j in range(i + 1, nx):
            d = rng.uniform(0.1, 2.0)
            dist_rows[i][j] = d
            dist_rows[j][i] = d
    return DiscreteSystem(
        px=simplex(nx),
        p_theta=tuple(simplex(ny) for _ in range(nx)),
        q_phi=tuple(simplex(nx) for _ in range(ny)),
        dist=tuple(tuple(row) for row in dist_rows),
    )


def exact_posterior(px: tuple[float, ...], p_theta: Matrix) -> Matrix:
    """Rows q(x|y) = p(x) p(y|x) / p(y); the optimal reconstruction channel."""
    nx = len(px)
    ny = len(p_theta[0])
    rows = []
    for y in range(ny):
        marginal = sum(px[x] * p_theta[x][y] for x in range(nx))
        if marginal <= 0:
            raise UnsupportedZero(f"caption symbol {y} has zero marginal")
        rows.append(tuple(px[x] * p_theta[x][y] / marginal for x in range(nx)))
    return tuple(rows)
