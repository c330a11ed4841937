import math
import tracemalloc

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
    assert cond.defined.tolist() == [True, True]
    assert np.allclose(cond.probs[coll.map == 0], [0.25, 0.75])
    assert np.allclose(cond.probs[coll.map == 1], [1.0, 0.0])

    # identity map: every defined row is a point mass, an undefined one holds a zero
    ident = mt.reverse_conditional(p, mt.ScaleMap(s4, s4, np.arange(s4.size)))
    assert ident.defined.tolist() == (p.probs > 0).tolist()
    assert np.allclose(ident.probs, ident.defined)

    # uniform rows over fibers for uniform p
    cond_u = mt.reverse_conditional(mt.TabularDist.uniform(s4), coll)
    assert cond_u.defined.all() and np.allclose(cond_u.probs, 0.5)

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
    assert not cond.probs[np.isin(t.map, [1, 2])].any()  # undefined rows hold zeros

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
    assert cond.defined.shape == (target.size,)
    for j in range(target.size):
        fiber = np.flatnonzero(t.map == j)
        mass = p.probs[fiber].sum()
        if fiber.size == 0 or mass == 0.0:
            assert not cond.defined[j] and not cond.probs[fiber].any()
            continue
        assert cond.defined[j]
        assert np.allclose(cond.probs[fiber], p.probs[fiber] / mass, rtol=1e-15, atol=0.0)
    with pytest.raises(AttributeError):
        cond.given_space = source

    # the one construction path: the table holds t itself, the derived arrays are frozen
    assert cond.scale_map is t
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
                fiber = t.map == j
                pr, qr = cp.probs[fiber], cq.probs[fiber]
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


def test_renyi_entropy_at_extreme_orders():
    p = mt.TabularDist(mt.ProductSpace((3,)), [0.2, 0.3, 0.5])
    # p ** 1e308 underflows to zero everywhere; the order tends to the min-entropy
    assert mt.renyi_entropy(p, 1e308) == pytest.approx(-math.log(0.5), abs=1e-12)
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidOrder):
            mt.renyi_entropy(p, bad)


def test_only_block_maps_wider_than_their_target_call_bincount(monkeypatch):
    calls = []
    real = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(a) or real(*a, **k))
    rng = np.random.default_rng(17)
    for lead in (3, 1000):  # fibers wider and no wider than the target
        for last in (1, 8, 9, 12, 1000):
            space = mt.ProductSpace((lead, last))
            t = mt.ScaleMap.decimation(space)
            assert t.fiber == last
            w = rng.uniform(0.05, 1.0, space.size)
            w[:last] = -0.0  # bincount sums this fiber to +0.0
            p = mt.TabularDist.from_weights(space, w)
            image = mt.pushforward(p, t)
            assert len(calls) == (last > lead)
            calls.clear()
            want = real(np.arange(space.size) // last, weights=p.probs, minlength=lead)
            assert image.probs.tobytes() == want.tobytes()
    # an explicit map that is not a block map sums by bincount
    explicit = mt.ScaleMap(space, t.target, t.map[::-1])
    assert explicit.fiber is None
    mt.pushforward(p, explicit)
    assert len(calls) == 1


def traced_bytes(fn, peak=False):
    """``fn()`` and the bytes that tracemalloc sees it leave allocated, or with ``peak``
    the most it saw allocated at once while ``fn`` ran."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1 if peak else 0] - before
    finally:
        tracemalloc.stop()


def test_decimation_map_is_computed_on_each_read(monkeypatch):
    # the block kernels read only the fiber width: a decimation holds no index array
    wide = mt.ProductSpace((2,) * 18)
    backend, held = traced_bytes(lambda: ms.TabularBackend.decimation(wide, 10))
    assert held < 64 * 1024  # the nine maps would take 4.0 MiB

    def read_every_map_twice():
        for t in backend.chain:
            for _ in range(2):
                mapping = t.map
                assert mapping.dtype == np.int64
                assert np.array_equal(mapping, np.arange(t.source.size) // t.fiber)

    _, held = traced_bytes(read_every_map_twice)
    assert held < 64 * 1024  # nothing is stored on the chain by a read
    rng = np.random.default_rng(29)
    space = mt.ProductSpace((4, 8, 3, 8))
    f = mt.EnergyTable(space, rng.uniform(-1.0, 1.0, space.size))
    w = rng.uniform(0.05, 1.0, space.size)
    w[:8] = 0.0  # a fiber without reference mass: the masked divide runs too
    q = mt.TabularDist.from_weights(space, w)
    sched = TemperatureSchedule(1.3, (0.9, 0.4, 0.6, 0.7))
    gibbs = mt.gibbs(f, q, 1.0 / (sched.lam * sched.sigma[0]))
    backend = ms.TabularBackend.decimation(space, sched.depth)
    read = []
    with monkeypatch.context() as m:
        plain = mt.ScaleMap.map.fget
        m.setattr(mt.ScaleMap, "map", property(lambda t: read.append(t) or plain(t)))
        for with_trace in (False, True):
            ms.solve_max_entropy(f, sched, backend, with_trace)
            ms.solve_min_relative_entropy(f, q, sched, backend, with_trace)
            ms.solve_mt(gibbs, q, sched, backend, with_trace)
    # only pushforward's bincount reads a map: the last one, 8 wide onto 4 target states
    assert [t.fiber > t.target.size for t in backend.chain] == [False, False, True]
    assert read and all(t is backend.chain[-1] for t in read)
    for t in backend.chain:
        assert t.map is not t.map  # computed afresh on each read
        assert np.array_equal(t.map, np.arange(t.source.size) // t.fiber)
    # an explicit map is stored when the ScaleMap is built: a read-only copy of the entries
    explicit = mt.ScaleMap(space, backend.chain[0].target, backend.chain[0].map)
    assert explicit.fiber == 8 and explicit.map is explicit.map
    assert np.array_equal(explicit.map, backend.chain[0].map) and not explicit.map.flags.writeable


def test_refinement_step_holds_no_source_size_copy():
    # a 2^16-state decimation step with k = 2, with every row defined and with one not:
    # the table builds no source-size array, and refine allocates only its output
    space = mt.ProductSpace((2,) * 16)
    t = mt.ScaleMap.decimation(space)
    rng = np.random.default_rng(37)
    for undefined in (0, 2):
        w = rng.uniform(0.05, 1.0, space.size)
        w[:undefined] = 0.0
        p = mt.TabularDist.from_weights(space, w)
        image = mt.pushforward(p, t)
        coarse = mt.TabularDist.from_weights(t.target, rng.random(t.target.size) * (image.probs > 0))
        cond, held = traced_bytes(lambda: mt.reverse_conditional(p, t, image))
        assert held < 8 * space.size  # a stored probs would take 512 KiB
        out, peak = traced_bytes(lambda: mt.refine(coarse, [cond]), peak=True)
        assert peak <= out.probs.nbytes + 8 * t.target.size  # a lifted copy would hit this


def test_oracles_store_nothing_on_the_chain():
    rng = np.random.default_rng(31)
    for axes, oracle in (((2,) * 16, mo.exact_tabular), ((4,) * 6, mo.minimize_tabular)):
        space = mt.ProductSpace(axes)
        f = mt.EnergyTable(space, rng.uniform(-1.0, 1.0, space.size))
        q = random_dist(space, rng)
        sched = TemperatureSchedule(0.8, (1.0,) * space.ndim)
        chain = ms.TabularBackend.decimation(space, sched.depth).chain
        for objective in ("min-relative-entropy", "max-entropy"):  # each result is dropped
            _, held = traced_bytes(lambda: oracle(objective, f, q, sched, chain) and None)
            assert held < 64 * 1024  # caching the maps of 2^16 states would hold 1.0 MiB


def test_guards_reject_invalid_inputs():
    s4, s2 = mt.ProductSpace((4,)), mt.ProductSpace((2,))
    p = mt.TabularDist.uniform(s4)
    t = mt.ScaleMap(s4, s2, [0, 0, 1, 1])
    flat = mt.EnergyTable(s4, np.zeros(s4.size))
    s22 = mt.ProductSpace((2, 2))
    p22, off_target = mt.TabularDist.uniform(s22), mt.TabularDist.uniform(mt.ProductSpace((3,)))
    cases = [
        (lambda: mt.ProductSpace(()), ValueError, "at least one axis"),
        (lambda: mt.TabularDist.from_weights(s4, np.zeros(s4.size)), ValueError,
         "positive total mass"),
        (lambda: mt.reverse_conditional(mt.TabularDist.uniform(s2), t, mt.pushforward(p, t)),
         SpaceMismatch, "source differs"),
        (lambda: mt.refine(p, [mt.reverse_conditional(p, t)]), SpaceMismatch,
         "does not match the current space"),
        (lambda: mt.reverse_conditional(p22, mt.ScaleMap(s22, s2, [0, 1, 1, 0]), off_target),
         SpaceMismatch, "image space differs"),
        (lambda: mt.reverse_conditional(p22, mt.ScaleMap.decimation(s22), off_target),
         SpaceMismatch, "image space differs"),
        (lambda: mt.tilt(p, p, 1.5), ValueError, r"in \[0,1\]"),
        (lambda: mt.tilt(p, p, -0.5), ValueError, r"in \[0,1\]"),
        (lambda: mt.gibbs(flat, p, 0.0), ValueError, "must be > 0"),
        (lambda: mt.gibbs(flat, p, -1.0), ValueError, "must be > 0"),
    ]
    for build, error, message in cases:
        with pytest.raises(error, match=message):
            build()
    # disjoint supports: the Renyi divergence is infinite
    left, right = mt.TabularDist(s2, [1.0, 0.0]), mt.TabularDist(s2, [0.0, 1.0])
    assert mt.renyi_divergence(left, right, 0.5) == math.inf
