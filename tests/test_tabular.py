import math

import numpy as np
import pytest

from msgibbs import multiscale as ms
from msgibbs import oracle as mo
from msgibbs import tabular as mt
from msgibbs.errors import (
    AbsoluteContinuityViolation,
    EmptyGeometricMean,
    InvalidOrder,
    NonpositiveTheta,
    NumericalGuard,
    SpaceMismatch,
    UndefinedConditionalRow,
)
from msgibbs.multiscale import TemperatureSchedule
from msgibbs.tolerances import TOL


def random_dist(space, rng, low=0.05):
    return mt.TabularDist.from_weights(space, rng.uniform(low, 1.0, space.size))


def test_space_validation():
    s = mt.ProductSpace((2, 3, 4))
    assert s.size == 24 and s.ndim == 3
    with pytest.raises(ValueError):
        mt.ProductSpace((0, 2))
    with pytest.raises(ValueError):
        mt.ProductSpace((101, 101, 101))  # over the 1e6 cap


def test_space_sizes_must_be_integral():
    with pytest.raises(ValueError, match=r"integers, got \(2, 2\.9\)"):
        mt.ProductSpace((2, 2.9))
    with pytest.raises(ValueError, match=r"integers, got \(2, '2'\)"):
        mt.ProductSpace((2, "2"))
    space = mt.ProductSpace((np.int64(2), 3.0))
    assert space.axis_sizes == (2, 3) and all(type(s) is int for s in space.axis_sizes)


def test_scale_map_entries_must_be_integral():
    source, target = mt.ProductSpace((4,)), mt.ProductSpace((2,))
    for entries, bad in (([0.9, 1.7, 0.2, 1.0], "0.9"), ([0, 1, np.nan, 1], "nan"),
                         (["0", "1", "0", "1"], "'0'")):
        with pytest.raises(ValueError, match=f"map entries must be integers, got {bad}"):
            mt.ScaleMap(source, target, entries)
    for entries in ([0, 1, 0, 1.0], np.array([0, 1, 0, 1], dtype=np.uint8)):
        assert mt.ScaleMap(source, target, entries).map.tolist() == [0, 1, 0, 1]


def test_dist_validation():
    s = mt.ProductSpace((2,))
    with pytest.raises(ValueError):
        mt.TabularDist(s, [0.5, 0.4])  # does not sum to 1
    with pytest.raises(ValueError):
        mt.TabularDist(s, [1.2, -0.2])
    d = mt.TabularDist(s, [0.25, 0.75])
    with pytest.raises(ValueError):
        d.probs[0] = 1.0  # frozen storage


@pytest.mark.parametrize(
    "probs, message",
    [
        ([math.nan, 1.0], "probabilities must be finite"),
        ([math.inf, 0.0], "probabilities must be finite"),
        ([math.inf, -math.inf], "probabilities must be finite"),
        ([-math.inf, 1.0], "probabilities must be finite"),
        ([1.5, -0.5], "probabilities must be nonnegative"),
        ([1e308, 1e308], "probabilities sum to inf, not 1"),
    ],
)
def test_dist_validation_messages(probs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        mt.TabularDist(mt.ProductSpace((2,)), probs)


def test_dist_copies_the_callers_array_and_library_results_are_frozen():
    s = mt.ProductSpace((2, 2))
    given = np.array([0.1, 0.2, 0.3, 0.4])
    p = mt.TabularDist(s, given)
    given[0] = 0.7
    assert p.probs.tolist() == [0.1, 0.2, 0.3, 0.4] and given.flags.writeable
    t = mt.ScaleMap.decimation(s)
    q = mt.TabularDist.uniform(s)
    built = [
        q,
        mt.TabularDist.from_weights(s, given),
        mt.pushforward(p, t),
        mt.refine(mt.pushforward(q, t), [mt.reverse_conditional(p, t)]),
        mt.scale(p, 2.0),
        mt.tilt(p, q, 0.5),
        mt.gibbs(mt.EnergyTable(s, given), q, 1.0),
    ]
    for dist in built:
        assert not dist.probs.flags.writeable


def test_gibbs_needs_a_finite_inverse_temperature():
    s = mt.ProductSpace((2,))
    f, q = mt.EnergyTable(s, [0.1, 0.3]), mt.TabularDist.uniform(s)
    for beta in (math.inf, math.nan):
        with pytest.raises(NumericalGuard, match=f"must be finite, got beta = {beta}"):
            mt.gibbs(f, q, beta)


def test_shannon_entropy():
    s4 = mt.ProductSpace((4,))
    assert mt.shannon_entropy(mt.TabularDist.uniform(s4)) == pytest.approx(math.log(4))
    s2 = mt.ProductSpace((2,))
    assert mt.shannon_entropy(mt.TabularDist(s2, [1.0, 0.0])) == 0.0
    expected = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
    assert mt.shannon_entropy(mt.TabularDist(s2, [0.8, 0.2])) == pytest.approx(
        expected, abs=1e-14
    )


def test_kl():
    s = mt.ProductSpace((2,))
    p = mt.TabularDist(s, [0.3, 0.7])
    assert mt.kl(p, p) == 0.0
    point = mt.TabularDist(s, [1.0, 0.0])
    half = mt.TabularDist(s, [0.5, 0.5])
    assert mt.kl(point, half) == pytest.approx(math.log(2), abs=1e-14)
    with pytest.raises(AbsoluteContinuityViolation):
        mt.kl(half, point)
    with pytest.raises(SpaceMismatch):
        mt.kl(p, mt.TabularDist.uniform(mt.ProductSpace((3,))))


def test_renyi_entropy():
    s5 = mt.ProductSpace((5,))
    for order in (0.3, 2.0, 7.5):
        assert mt.renyi_entropy(mt.TabularDist.uniform(s5), order) == pytest.approx(
            math.log(5)
        )
    s2 = mt.ProductSpace((2,))
    assert mt.renyi_entropy(mt.TabularDist(s2, [1.0, 0.0]), 2.0) == pytest.approx(0.0)
    p = mt.TabularDist(s2, [0.8, 0.2])
    assert mt.renyi_entropy(p, 2.0) == pytest.approx(-math.log(0.68), abs=1e-14)
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(InvalidOrder):
            mt.renyi_entropy(p, bad)


def test_renyi_divergence():
    s = mt.ProductSpace((2,))
    q = mt.TabularDist(s, [0.4, 0.6])
    assert mt.renyi_divergence(q, q, 0.5) == pytest.approx(0.0)
    point = mt.TabularDist(s, [1.0, 0.0])
    half = mt.TabularDist(s, [0.5, 0.5])
    # (1/(theta-1)) log sum q^theta r^(1-theta) at theta=0.5 -> log 2
    assert mt.renyi_divergence(point, half, 0.5) == pytest.approx(
        math.log(2), abs=1e-14
    )
    with pytest.raises(InvalidOrder):
        mt.renyi_divergence(q, half, 1.5)


def test_scale():
    s = mt.ProductSpace((2,))
    p = mt.TabularDist(s, [0.8, 0.2])
    assert np.allclose(mt.scale(p, 1.0).probs, p.probs)
    scaled = mt.scale(p, 0.5)
    assert np.allclose(scaled.probs, [2.0 / 3.0, 1.0 / 3.0])
    u = mt.TabularDist.uniform(mt.ProductSpace((6,)))
    for theta in (0.2, 1.7, 5.0):
        assert np.allclose(mt.scale(u, theta).probs, u.probs)
    with pytest.raises(NonpositiveTheta):
        mt.scale(p, 0.0)
    # NaN is no positive exponent; an infinite one is refused before it zeroes every weight
    with pytest.raises(NonpositiveTheta):
        mt.scale(p, math.nan)
    for dist in (p, u):
        with pytest.raises(NumericalGuard, match="must be finite, got theta = inf"):
            mt.scale(dist, math.inf)


def test_tilt():
    s = mt.ProductSpace((2,))
    p = mt.TabularDist(s, [0.9, 0.1])
    q = mt.TabularDist(s, [0.1, 0.9])
    assert mt.tilt(p, q, 1.0) is p
    assert mt.tilt(p, q, 0.0) is q
    assert np.allclose(mt.tilt(p, p, 0.37).probs, p.probs)
    assert np.allclose(mt.tilt(p, q, 0.5).probs, [0.5, 0.5])
    a = mt.TabularDist(s, [1.0, 0.0])
    b = mt.TabularDist(s, [0.0, 1.0])
    with pytest.raises(EmptyGeometricMean):
        mt.tilt(a, b, 0.5)


def test_gibbs():
    s = mt.ProductSpace((2,))
    q = mt.TabularDist(s, [0.35, 0.65])
    const = mt.EnergyTable(s, [2.5, 2.5])
    assert np.allclose(mt.gibbs(const, q, 3.0).probs, q.probs)
    f = mt.EnergyTable(s, [0.0, math.log(2.0)])
    out = mt.gibbs(f, mt.TabularDist.uniform(s), 1.0)
    assert np.allclose(out.probs, [2.0 / 3.0, 1.0 / 3.0])
    # beta -> 0 limit approaches the reference
    tiny = mt.gibbs(mt.EnergyTable(s, [4.0, -1.0]), q, 1e-8)
    assert mt.total_variation(tiny, q) < 1e-6


def test_pushforward():
    rng = np.random.default_rng(3)
    s = mt.ProductSpace((2, 2))
    p = random_dist(s, rng)
    ident = mt.ScaleMap(s, s, np.arange(s.size))
    assert np.allclose(mt.pushforward(p, ident).probs, p.probs)
    # marginal of an independent product is the first factor
    p1 = np.array([0.3, 0.7])
    p2 = np.array([0.6, 0.4])
    prod = mt.TabularDist(s, np.outer(p1, p2).ravel())
    dec = mt.ScaleMap.decimation(s)
    assert np.allclose(mt.pushforward(prod, dec).probs, p1)
    # 4-state chain collapsed 2 -> 1
    s4 = mt.ProductSpace((4,))
    s2 = mt.ProductSpace((2,))
    coll = mt.ScaleMap(s4, s2, [0, 0, 1, 1])
    p4 = mt.TabularDist(s4, [0.1, 0.25, 0.15, 0.5])
    assert np.allclose(mt.pushforward(p4, coll).probs, [0.35, 0.65])
    with pytest.raises(SpaceMismatch):
        mt.pushforward(p4, dec)


def test_reverse_conditional_and_refine():
    s4 = mt.ProductSpace((4,))
    s2 = mt.ProductSpace((2,))
    coll = mt.ScaleMap(s4, s2, [0, 0, 1, 1])
    p = mt.TabularDist(s4, [0.1, 0.3, 0.6, 0.0])
    cond = mt.reverse_conditional(p, coll)
    idx0, pr0 = cond.rows[0]
    assert np.allclose(pr0, [0.25, 0.75])
    idx1, pr1 = cond.rows[1]
    assert np.allclose(pr1, [1.0, 0.0])

    # identity map: every defined row is a point mass
    ident = mt.reverse_conditional(p, mt.ScaleMap(s4, s4, np.arange(s4.size)))
    for j, row in enumerate(ident.rows):
        if p.probs[j] > 0:
            assert row is not None and np.allclose(row[1], [1.0])
        else:
            assert row is None

    # uniform rows over fibers for uniform p
    u = mt.TabularDist.uniform(s4)
    for _, (idx, pr) in enumerate(mt.reverse_conditional(u, coll).rows):
        assert np.allclose(pr, [0.5, 0.5])

    # Bayes round trip
    back = mt.refine(mt.pushforward(p, coll), [mt.reverse_conditional(p, coll)])
    assert mt.total_variation(back, p) < 1e-15

    # undefined row hit with positive mass
    cond_bad = mt.reverse_conditional(
        mt.TabularDist(s4, [0.5, 0.5, 0.0, 0.0]), coll
    )
    with pytest.raises(UndefinedConditionalRow):
        mt.refine(mt.TabularDist(s2, [0.9, 0.1]), [cond_bad])


def test_refine_empty_and_zero_mass_fibers():
    # target 1 has an empty fiber (non-surjective map), target 2 a zero-mass one
    s5 = mt.ProductSpace((5,))
    s4 = mt.ProductSpace((4,))
    t = mt.ScaleMap(s5, s4, [0, 0, 2, 3, 3])
    p = mt.TabularDist(s5, [0.2, 0.3, 0.0, 0.1, 0.4])
    cond = mt.reverse_conditional(p, t)
    assert cond.defined.tolist() == [True, False, False, True]
    assert cond.rows[1] is None and cond.rows[2] is None

    # zero coarse mass on the undefined rows: refinement succeeds
    coarse = mt.TabularDist(s4, [0.25, 0.0, 0.0, 0.75])
    out = mt.refine(coarse, [cond])
    assert np.allclose(out.probs, [0.1, 0.15, 0.0, 0.15, 0.6], atol=1e-15)

    # positive mass on the first undefined state is named in the message
    for probs, state in (([0.5, 0.1, 0.0, 0.4], 1), ([0.5, 0.0, 0.1, 0.4], 2),
                         ([0.5, 0.1, 0.1, 0.3], 1)):
        with pytest.raises(UndefinedConditionalRow, match=f"conditioning state {state} "):
            mt.refine(mt.TabularDist(s4, probs), [cond])


def test_conditional_rows_match_fibers():
    rng = np.random.default_rng(13)
    source = mt.ProductSpace((40,))
    target = mt.ProductSpace((12,))
    t = mt.ScaleMap(source, target, rng.integers(0, 10, source.size))  # 10, 11 empty
    probs = rng.uniform(0.0, 1.0, source.size)
    probs[t.map == 3] = 0.0  # a zero-mass fiber
    p = mt.TabularDist.from_weights(source, probs)
    cond = mt.reverse_conditional(p, t)
    assert len(cond.rows) == target.size
    for j, row in enumerate(cond.rows):
        fiber = np.flatnonzero(t.map == j)
        mass = p.probs[fiber].sum()
        if fiber.size == 0 or mass == 0.0:
            assert row is None
            continue
        idx, pr = row
        assert np.array_equal(idx, fiber)
        assert np.allclose(pr, p.probs[fiber] / mass, rtol=1e-15, atol=0.0)
    with pytest.raises(AttributeError):
        cond.rows = ()

    # the one construction path: t's map is shared, the derived arrays are frozen
    assert cond.map is t.map
    given = mt.reverse_conditional(p, t, mt.pushforward(p, t))  # an image held already
    assert np.array_equal(given.probs, cond.probs) and np.array_equal(given.defined, cond.defined)
    assert cond.given_space is target and cond.output_space is source
    for arr in (cond.probs, cond.defined):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    assert np.all(cond.probs >= 0.0)
    assert not cond.probs[~cond.defined[t.map]].any()
    sums = np.bincount(t.map, weights=cond.probs, minlength=target.size)
    assert cond.defined.tolist() == [row is not None for row in cond.rows]
    assert np.all(np.abs(sums[cond.defined] - 1.0) <= TOL.normalization)
    with pytest.raises(SpaceMismatch):
        mt.reverse_conditional(mt.TabularDist.uniform(target), t)


def test_solver_matches_oracle_on_uneven_chain():
    rng = np.random.default_rng(19)
    sizes = (512, 60, 7)
    spaces = [mt.ProductSpace((n,)) for n in sizes]
    chain = []
    for source, target in zip(spaces, spaces[1:]):
        weights = rng.exponential(size=target.size) ** 2
        extra = rng.choice(target.size, source.size - target.size, p=weights / weights.sum())
        mapping = rng.permutation(np.concatenate([np.arange(target.size), extra]))
        chain.append(mt.ScaleMap(source, target, mapping))
    f = mt.EnergyTable(spaces[0], rng.uniform(0.0, 2.0, sizes[0]))
    q = random_dist(spaces[0], rng)
    sched = TemperatureSchedule(0.9, (1.0, 0.6, 0.3))
    solver = ms.solve_min_relative_entropy(f, q, sched, ms.TabularBackend(chain))
    oracle = mo.minimize_tabular("min-relative-entropy", f, q, sched, chain)
    assert mt.total_variation(solver, oracle) < 1e-4


def test_refine_roundtrip_three_level():
    rng = np.random.default_rng(11)
    space = mt.ProductSpace((2, 2, 2))
    p = random_dist(space, rng)
    chain = []
    cur = space
    for _ in range(2):
        step = mt.ScaleMap.decimation(cur)
        chain.append(step)
        cur = step.target
    p1 = mt.pushforward(p, chain[0])
    p2 = mt.pushforward(p1, chain[1])
    conds = [mt.reverse_conditional(p1, chain[1]), mt.reverse_conditional(p, chain[0])]
    back = mt.refine(p2, conds)
    assert mt.total_variation(back, p) < 1e-12


def test_multiscale_entropies():
    rng = np.random.default_rng(5)
    space = mt.ProductSpace((2, 2))
    p = random_dist(space, rng)
    q = random_dist(space, rng)
    dec = mt.ScaleMap.decimation(space)
    single = TemperatureSchedule(1.0, (1.0, 0.0))
    assert ms.multiscale_relative_entropy(p, q, single, [dec]) == mt.kl(p, q)
    assert ms.multiscale_entropy(p, single, [dec]) == mt.shannon_entropy(p)

    both = TemperatureSchedule(1.0, (1.0, 1.0))
    assert ms.multiscale_relative_entropy(p, p, both, [dec]) == 0.0
    expected = mt.kl(p, q) + mt.kl(mt.pushforward(p, dec), mt.pushforward(q, dec))
    assert ms.multiscale_relative_entropy(p, q, both, [dec]) == pytest.approx(
        expected, abs=1e-14
    )
    expected_h = mt.shannon_entropy(p) + mt.shannon_entropy(mt.pushforward(p, dec))
    assert ms.multiscale_entropy(p, both, [dec]) == pytest.approx(
        expected_h, abs=1e-14
    )


def test_pushforward_mass_preservation():
    rng = np.random.default_rng(17)
    for _ in range(20):
        sizes = tuple(rng.integers(2, 4, size=rng.integers(1, 4)))
        space = mt.ProductSpace(sizes)
        p = random_dist(space, rng, low=0.0)
        t_size = int(rng.integers(1, space.size + 1))
        mapping = rng.integers(0, t_size, size=space.size)
        t = mt.ScaleMap(space, mt.ProductSpace((t_size,)), mapping)
        out = mt.pushforward(p, t)
        assert abs(out.probs.sum() - p.probs.sum()) <= 1e-12


def test_chain_rule_identity():
    # D(p || q) = D(Tp || Tq) + sum_j Tp(j) D(p_j || q_j)
    rng = np.random.default_rng(23)
    for _ in range(100):
        space = mt.ProductSpace((2, 3))
        p = random_dist(space, rng)
        q = random_dist(space, rng)
        t_size = int(rng.integers(2, 5))
        t = mt.ScaleMap(
            space, mt.ProductSpace((t_size,)), rng.integers(0, t_size, space.size)
        )
        lhs = mt.kl(p, q)
        tp = mt.pushforward(p, t)
        tq = mt.pushforward(q, t)
        rhs = mt.kl(tp, tq)
        cp = mt.reverse_conditional(p, t)
        cq = mt.reverse_conditional(q, t)
        for j in range(t_size):
            if tp.probs[j] > 0:
                idx, pr = cp.rows[j]
                _, qr = cq.rows[j]
                mask = pr > 0
                rhs += tp.probs[j] * float(
                    (pr[mask] * np.log(pr[mask] / qr[mask])).sum()
                )
        assert abs(lhs - rhs) < 1e-10


def test_entropy_kl_mixing_identity():
    # H(p) - theta D(p||q) = Renyi_{theta/(1+theta)}(q) - (1+theta) D(p || scale(q))
    rng = np.random.default_rng(29)
    for _ in range(100):
        space = mt.ProductSpace((int(rng.integers(2, 7)),))
        p = random_dist(space, rng)
        q = random_dist(space, rng)
        theta = float(rng.uniform(1e-3, 2.0))
        lhs = mt.shannon_entropy(p) - theta * mt.kl(p, q)
        order = theta / (1.0 + theta)
        rhs = mt.renyi_entropy(q, order) - (1.0 + theta) * mt.kl(
            p, mt.scale(q, order)
        )
        assert abs(lhs - rhs) < 1e-10


def test_renyi_tilt_identity():
    # theta D(p||q) + (1-theta) D(p||r) = D(p || tilt(q,r,theta)) + (1-theta) Dtheta(q||r)
    rng = np.random.default_rng(31)
    for _ in range(100):
        space = mt.ProductSpace((2, int(rng.integers(2, 5))))
        p = random_dist(space, rng)
        q = random_dist(space, rng)
        r = random_dist(space, rng)
        theta = float(rng.uniform(0.01, 0.99))
        lhs = theta * mt.kl(p, q) + (1.0 - theta) * mt.kl(p, r)
        rhs = mt.kl(p, mt.tilt(q, r, theta)) + (1.0 - theta) * mt.renyi_divergence(
            q, r, theta
        )
        assert abs(lhs - rhs) < 1e-10


def test_gibbs_optimality():
    # E_p[f] + lam KL(p||q) >= E_g[f] + lam KL(g||q) for the Gibbs g
    rng = np.random.default_rng(37)
    space = mt.ProductSpace((3, 2))
    f = mt.EnergyTable(space, rng.uniform(-1.0, 1.0, space.size))
    q = random_dist(space, rng)
    lam = 0.7
    g = mt.gibbs(f, q, 1.0 / lam)
    g_obj = float(g.probs @ f.values) + lam * mt.kl(g, q)
    for _ in range(100):
        p = random_dist(space, rng, low=0.0)
        obj = float(p.probs @ f.values) + lam * mt.kl(p, q)
        assert obj >= g_obj - 1e-12


def test_tabular_dist_to_json():
    rng = np.random.default_rng(41)
    space = mt.ProductSpace((2, 3))
    p = random_dist(space, rng)
    assert p.to_json() == {"axis_sizes": [2, 3], "probs": p.probs.tolist()}
