"""Exact information quantities and the bound chain on finite systems."""

from __future__ import annotations

import math
import random

import pytest

from moltrip.theory import (
    MAX_SYMBOLS,
    BoundReport,
    DiscreteSystem,
    UnsupportedZero,
    ba_lower_bound,
    check_mi_bound,
    entropy,
    exact_posterior,
    lipschitz_constant,
    mutual_information,
    random_system,
)
from oracles import ba_reference, mi_reference


def _posterior_system(px, p_theta, dist=None):
    nx = len(px)
    if dist is None:
        dist = tuple(
            tuple(0.0 if i == j else 1.0 for j in range(nx)) for i in range(nx)
        )
    return DiscreteSystem(
        px=px, p_theta=p_theta,
        q_phi=exact_posterior(px, p_theta), dist=dist,
    )


# ---------------------------------------------------------------------------
# construction and validation

def test_system_validation_rejects_bad_rows():
    good = random_system(random.Random(0))
    assert isinstance(good, DiscreteSystem)
    with pytest.raises(ValueError):
        DiscreteSystem(
            px=(0.5, 0.6), p_theta=((1.0,), (1.0,)),
            q_phi=((0.5, 0.5),), dist=((0.0, 1.0), (1.0, 0.0)),
        )
    with pytest.raises(ValueError):
        DiscreteSystem(
            px=(0.5, 0.5), p_theta=((1.5, -0.5), (0.5, 0.5)),
            q_phi=((0.5, 0.5), (0.5, 0.5)),
            dist=((0.0, 1.0), (1.0, 0.0)),
        )
    with pytest.raises(ValueError):  # asymmetric distance
        DiscreteSystem(
            px=(0.5, 0.5), p_theta=((1.0,), (1.0,)),
            q_phi=((0.5, 0.5),), dist=((0.0, 1.0), (2.0, 0.0)),
        )
    with pytest.raises(ValueError):  # nonzero diagonal
        DiscreteSystem(
            px=(0.5, 0.5), p_theta=((1.0,), (1.0,)),
            q_phi=((0.5, 0.5),), dist=((0.1, 1.0), (1.0, 0.1)),
        )
    with pytest.raises(ValueError):  # |X| too large
        n = 9
        DiscreteSystem(
            px=tuple(1 / n for _ in range(n)),
            p_theta=tuple((1.0,) for _ in range(n)),
            q_phi=(tuple(1 / n for _ in range(n)),),
            dist=tuple(
                tuple(0.0 if i == j else 1.0 for j in range(n))
                for i in range(n)
            ),
        )


def test_random_system_is_seed_deterministic():
    a = random_system(random.Random(42))
    b = random_system(random.Random(42))
    assert a == b


@pytest.mark.parametrize("max_symbols", [-1, 0, 1, MAX_SYMBOLS + 1, 20])
def test_random_system_refuses_sizes_outside_its_range(max_symbols):
    # the range is checked before any draw, whatever the seed would draw
    for seed in range(3):
        rng = random.Random(seed)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"2..{MAX_SYMBOLS}"):
            random_system(rng, max_symbols)
        assert rng.getstate() == state


@pytest.mark.parametrize("max_symbols", [2, MAX_SYMBOLS])
def test_random_system_draws_sizes_within_its_range(max_symbols):
    sizes = set()
    for seed in range(40):
        system = random_system(random.Random(seed), max_symbols)
        sizes.update((system.nx, len(system.q_phi)))
    assert min(sizes) == 2 and max(sizes) == max_symbols


# ---------------------------------------------------------------------------
# mutual information

def test_mi_zero_under_independence():
    sys = DiscreteSystem(
        px=(0.3, 0.7),
        p_theta=((0.6, 0.4), (0.6, 0.4)),
        q_phi=((0.5, 0.5), (0.5, 0.5)),
        dist=((0.0, 1.0), (1.0, 0.0)),
    )
    assert mutual_information(sys) == pytest.approx(0.0, abs=1e-12)


def test_mi_log_n_for_permutation_channel():
    n = 4
    p_theta = tuple(
        tuple(1.0 if y == (x + 1) % n else 0.0 for y in range(n))
        for x in range(n)
    )
    sys = DiscreteSystem(
        px=tuple(1 / n for _ in range(n)),
        p_theta=p_theta,
        q_phi=tuple(tuple(1 / n for _ in range(n)) for _ in range(n)),
        dist=tuple(
            tuple(0.0 if i == j else 1.0 for j in range(n)) for i in range(n)
        ),
    )
    assert mutual_information(sys) == pytest.approx(math.log(n), abs=1e-12)


def test_mi_matches_reference_sum():
    rng = random.Random(77)
    for _ in range(20):
        sys = random_system(rng, max_symbols=4)
        expected = mi_reference(list(sys.px), [list(r) for r in sys.p_theta])
        assert mutual_information(sys) == pytest.approx(expected, abs=1e-12)


def test_mi_bounded_by_entropies():
    rng = random.Random(5)
    for _ in range(50):
        sys = random_system(rng)
        mi = mutual_information(sys)
        assert mi >= -1e-12
        assert mi <= min(entropy(sys.px), entropy(sys.py())) + 1e-9


# ---------------------------------------------------------------------------
# variational lower bound

def test_ba_equals_mi_for_exact_posterior():
    rng = random.Random(9)
    for _ in range(10):
        base = random_system(rng, max_symbols=5)
        sys = _posterior_system(base.px, base.p_theta, base.dist)
        assert ba_lower_bound(sys) == pytest.approx(
            mutual_information(sys), abs=1e-12
        )


def test_ba_never_exceeds_mi():
    rng = random.Random(1234)
    for _ in range(50):
        sys = random_system(rng)
        assert ba_lower_bound(sys) <= mutual_information(sys) + 1e-9


def test_ba_matches_reference_sum():
    rng = random.Random(8)
    for _ in range(20):
        sys = random_system(rng, max_symbols=4)
        expected = ba_reference(
            list(sys.px),
            [list(r) for r in sys.p_theta],
            [list(r) for r in sys.q_phi],
        )
        assert ba_lower_bound(sys) == pytest.approx(expected, abs=1e-12)


def test_ba_unsupported_zero():
    sys = DiscreteSystem(
        px=(0.5, 0.5),
        p_theta=((1.0, 0.0), (0.0, 1.0)),
        q_phi=((0.0, 1.0), (0.5, 0.5)),  # q(x0|y0) = 0 where joint > 0
        dist=((0.0, 1.0), (1.0, 0.0)),
    )
    with pytest.raises(UnsupportedZero):
        ba_lower_bound(sys)


# ---------------------------------------------------------------------------
# Lipschitz constant

def test_lipschitz_zero_for_uniform_rows():
    sys = DiscreteSystem(
        px=(0.5, 0.5), p_theta=((1.0,), (1.0,)),
        q_phi=((0.5, 0.5),), dist=((0.0, 1.0), (1.0, 0.0)),
    )
    assert lipschitz_constant(sys) == 0.0


def test_lipschitz_two_symbol_ln_nine():
    sys = DiscreteSystem(
        px=(0.5, 0.5), p_theta=((1.0,), (1.0,)),
        q_phi=((0.9, 0.1),), dist=((0.0, 1.0), (1.0, 0.0)),
    )
    assert lipschitz_constant(sys) == pytest.approx(math.log(9), abs=1e-12)


def test_lipschitz_is_smallest_valid_constant():
    rng = random.Random(3)
    for _ in range(20):
        sys = random_system(rng)
        L = lipschitz_constant(sys)
        tight = 0.0
        for y in range(sys.ny):
            for x in range(sys.nx):
                for xp in range(sys.nx):
                    if x == xp:
                        continue
                    gap = abs(
                        math.log(sys.q_phi[y][x]) - math.log(sys.q_phi[y][xp])
                    )
                    assert gap <= L * sys.dist[x][xp] + 1e-12
                    tight = max(tight, gap / sys.dist[x][xp])
        assert tight == pytest.approx(L, abs=1e-12)


def test_lipschitz_unsupported_zero():
    sys = DiscreteSystem(
        px=(0.5, 0.5), p_theta=((1.0,), (1.0,)),
        q_phi=((1.0, 0.0),), dist=((0.0, 1.0), (1.0, 0.0)),
    )
    with pytest.raises(UnsupportedZero):
        lipschitz_constant(sys)


# ---------------------------------------------------------------------------
# the full bound chain

def test_bound_holds_with_exact_posterior():
    rng = random.Random(21)
    for _ in range(10):
        base = random_system(rng, max_symbols=5)
        sys = _posterior_system(base.px, base.p_theta, base.dist)
        report = check_mi_bound(sys)
        assert report.holds
        assert report.ba_bound == pytest.approx(report.mi, abs=1e-9)


def test_bound_holds_on_seeded_random_systems():
    rng = random.Random(4096)
    for _ in range(30):
        sys = random_system(rng)
        report = check_mi_bound(sys)
        assert report.holds
        assert report.mi >= report.ba_bound - 1e-9
        assert report.ba_bound >= report.mi_lower - 1e-9
        assert report.alpha == report.lipschitz_L


def test_corrupted_report_fails():
    base = random_system(random.Random(55), max_symbols=4)
    sys = _posterior_system(base.px, base.p_theta, base.dist)
    report = check_mi_bound(sys)
    corrupted = report.mi - 1.0
    assert not (
        corrupted >= report.mi_lower - 1e-9
        and corrupted >= report.ba_bound - 1e-9
    )
    tampered = BoundReport(
        mi=corrupted,
        entropy_x=report.entropy_x,
        ba_bound=report.ba_bound,
        lipschitz_L=report.lipschitz_L,
        alpha=report.alpha,
        c_term=report.c_term,
        mi_lower=report.mi_lower,
        holds=corrupted >= report.mi_lower - 1e-9
        and corrupted >= report.ba_bound - 1e-9,
    )
    assert not tampered.holds


def test_exact_posterior_rows_are_stochastic():
    base = random_system(random.Random(2))
    rows = exact_posterior(base.px, base.p_theta)
    for row in rows:
        assert sum(row) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0 for p in row)
