"""Exact probability computations on finite product alphabets.

Distributions are dense probability tables over a product space
``W_1 x ... x W_k`` indexed row-major (the last axis varies fastest).
All entropies are in nats and use the convention ``0 log 0 = 0``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AbsoluteContinuityViolation,
    EmptyGeometricMean,
    InvalidOrder,
    NonpositiveTheta,
    NumericalGuard,
    SpaceMismatch,
    UndefinedConditionalRow,
    VanishingPartitionFunction,
)
from .tolerances import TOL

#: hard cap on the number of joint states of a ProductSpace
MAX_STATES = 10**6


@dataclass(frozen=True)
class ProductSpace:
    """Finite product alphabet; coordinates are indexed alphabets of the given sizes."""

    axis_sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.axis_sizes)
        if sizes != tuple(self.axis_sizes):
            raise ValueError(f"axis sizes must be integers, got {self.axis_sizes}")
        if len(sizes) == 0:
            raise ValueError("a product space needs at least one axis")
        if any(s < 1 for s in sizes):
            raise ValueError(f"axis sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "axis_sizes", sizes)
        if self.size > MAX_STATES:
            raise ValueError(
                f"space has {self.size} states, exceeding the cap of {MAX_STATES}"
            )

    @property
    def size(self):
        return math.prod(self.axis_sizes)

    @property
    def ndim(self):
        return len(self.axis_sizes)


def _readonly(arr, dtype=float):
    arr = np.array(arr, dtype=dtype, copy=True).reshape(-1)
    arr.setflags(write=False)
    return arr


class TabularDist:
    """Dense probability table over a :class:`ProductSpace` (row-major joint index)."""

    __slots__ = ("space", "probs")

    def __init__(self, space, probs):
        self._keep(space, _readonly(probs))

    @classmethod
    def _adopt(cls, space, probs):
        """Distribution that takes over ``probs``, a fresh 1-D float array, without a copy."""
        probs.setflags(write=False)
        return cls.__new__(cls)._keep(space, probs)

    def _keep(self, space, probs):
        if probs.shape != (space.size,):
            raise SpaceMismatch(
                f"probs has length {probs.size}, space has {space.size} states"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # both caught just below
            total = float(probs.sum())
        # a finite sum has finite terms, so only a non-finite one needs the scan
        if not math.isfinite(total) and not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        if probs.min(initial=0.0) < 0.0:
            raise ValueError("probabilities must be nonnegative")
        if abs(total - 1.0) > TOL.normalization:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.space = space
        self.probs = probs
        return self

    @classmethod
    def uniform(cls, space):
        return cls._adopt(space, np.full(space.size, 1.0 / space.size))

    @classmethod
    def from_weights(cls, space, weights):
        """Normalize a nonnegative weight vector into a distribution."""
        w = np.asarray(weights, dtype=float).reshape(-1)
        total = w.sum()
        if not total > 0.0:
            raise ValueError("weights must have positive total mass")
        return cls._adopt(space, w / total)

    def to_json(self):
        return {"axis_sizes": list(self.space.axis_sizes), "probs": self.probs.tolist()}

    def __repr__(self):
        return f"TabularDist(axes={self.space.axis_sizes}, size={self.space.size})"


class EnergyTable:
    """Energy value per joint state of a product space."""

    __slots__ = ("space", "values")

    def __init__(self, space, values):
        values = _readonly(values)
        if values.shape != (space.size,):
            raise SpaceMismatch(
                f"values has length {values.size}, space has {space.size} states"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("energy values must be finite")
        self.space = space
        self.values = values


class ScaleMap:
    """Deterministic coarse-graining: assigns each source state a target state.

    ``fiber`` is the width k when the fibers are contiguous blocks of k source
    states, ``map == arange(source.size) // k`` with ``source.size == k * target.size``
    (a decimation's, for one), else ``None``.  A decimation stores only ``fiber``;
    no ``ScaleMap`` changes after it is built.  The block kernels of :func:`refine`
    (and of ``ConditionalTable.probs``) read ``fiber``, never ``map``; so does
    :func:`pushforward` unless the fibers are wider than the target has states.
    """

    __slots__ = ("source", "target", "fiber", "_map")

    def __init__(self, source, target, mapping):
        given = np.asarray(mapping).reshape(-1)
        with np.errstate(invalid="ignore"):
            mapping = _readonly(given, np.int64)
        off = mapping != given
        if off.any():
            raise ValueError(f"map entries must be integers, got {given[off][0].item()!r}")
        if mapping.shape != (source.size,):
            raise SpaceMismatch(
                f"map has length {mapping.size}, source has {source.size} states"
            )
        if mapping.min(initial=0) < 0 or mapping.max(initial=0) >= target.size:
            raise ValueError("map entries must be valid target indices")
        self.source = source
        self.target = target
        self._map = mapping
        k = source.size // target.size  # the blocks are too short unless k divides
        blocks = k * target.size == source.size and (
            mapping.reshape(-1, k) == np.arange(target.size)[:, None]).all()
        self.fiber = k if blocks else None

    @classmethod
    def decimation(cls, source):
        """Project onto all but the last coordinate (drop the deepest axis)."""
        t = cls.__new__(cls)  # the map is valid by construction
        t.source, t.target = source, ProductSpace(source.axis_sizes[:-1])
        t.fiber, t._map = source.axis_sizes[-1], None
        return t

    @property
    def map(self):
        """Target index per source state (int64): an explicit map's stored read-only
        copy, a decimation's ``arange(source.size) // fiber`` computed afresh on each read."""
        return np.arange(self.source.size) // self.fiber if self._map is None else self._map


class ConditionalTable:
    """Reverse conditional of ``p`` along the scale map ``t``, with the fiber masses
    of ``image``; ``p`` is checked already, and ``image`` must be ``pushforward(p, t)``.

    Row j, over ``output_space`` (t's source) given state j of ``given_space``
    (t's target), is p on the fiber of j, renormalized.  Output state i lies in
    row ``scale_map.map[i]`` with probability ``probs[i]``; rows whose fiber carries
    no mass are undefined (``defined[j]`` False) and hold zeros.  The table holds p's and
    the image's probabilities, no source-size array: ``probs`` is computed on each read.
    """

    __slots__ = ("scale_map", "defined", "_p", "_image")

    def __init__(self, p, t, image):
        if t.source.axis_sizes != p.space.axis_sizes:
            raise SpaceMismatch("scale map source differs from the distribution's space")
        if t.target.axis_sizes != image.space.axis_sizes:
            raise SpaceMismatch("image space differs from the scale map's target")
        defined = image.probs > 0.0
        defined.setflags(write=False)
        self.scale_map = t
        self.defined = defined
        self._p, self._image = p.probs, image.probs

    @property
    def given_space(self):
        return self.scale_map.target

    @property
    def output_space(self):
        return self.scale_map.source

    @property
    def probs(self):
        """Row probability of each output state (read-only): the composition with ones."""
        probs = self._compose(np.ones(self.given_space.size))
        probs.setflags(write=False)
        return probs

    def _compose(self, coarse):
        """``p / image[t.map] * coarse[t.map]`` in one fresh array: the divide is masked to
        the defined rows (0.0 elsewhere) unless all are, and the product runs on every
        entry, so a -0.0 keeps its sign.  Blocks up to 3 wide take one pass per fiber
        column (k strided passes beat n/k rows of k only that narrow, at 2^12 to 2^20
        states), wider blocks a row broadcast, and other maps a gather by ``t.map``."""
        t, k, p, image = self.scale_map, self.scale_map.fiber, self._p, self._image
        where = True if self.defined.all() else self.defined
        out = np.empty(p.size) if where is True else np.zeros(p.size)
        if k is not None and k <= 3:
            views = zip(out.reshape(-1, k).T, p.reshape(-1, k).T)
        else:
            at, shape = (t.map, -1) if k is None else ((slice(None), None), (-1, k))
            image, coarse = image[at], coarse[at]
            where = where if where is True else where[at]
            views = [(out.reshape(shape), p.reshape(shape))]
        for column, p_column in views:
            np.divide(p_column, image, out=column, where=where)
            np.multiply(column, coarse, out=column)
        return out


def _require_same_space(p, q):
    if p.space.axis_sizes != q.space.axis_sizes:
        raise SpaceMismatch(
            f"spaces differ: {p.space.axis_sizes} vs {q.space.axis_sizes}"
        )


def shannon_entropy(p):
    """Shannon entropy of ``p`` in nats (``0 log 0 = 0``)."""
    pr = p.probs[p.probs > 0.0]
    return float(-(pr * np.log(pr)).sum())


def kl(p, q):
    """Relative entropy D(p || q) in nats.

    Raises :class:`AbsoluteContinuityViolation` if p has mass where q has none.
    """
    _require_same_space(p, q)
    mask = p.probs > 0.0
    if np.any(q.probs[mask] <= 0.0):
        raise AbsoluteContinuityViolation("p is not absolutely continuous w.r.t. q")
    pp = p.probs[mask]
    qq = q.probs[mask]
    return max(float((pp * np.log(pp / qq)).sum()), 0.0)


def total_variation(p, q):
    """Total variation distance 0.5 * sum |p - q|."""
    _require_same_space(p, q)
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def renyi_entropy(p, order):
    """Renyi entropy of the given order, for order in (0,1) or (1,inf)."""
    order = float(order)
    if not 0.0 < order < math.inf or order == 1.0:
        raise InvalidOrder(f"Renyi entropy order must be in (0,1) or (1,inf), got {order}")
    # max-normalised: the sum is in [1, n], and order / (1 - order) is finite
    support = p.probs[p.probs > 0.0]
    peak = support.max()
    total = float(np.power(support / peak, order).sum())
    return order / (1.0 - order) * math.log(peak) + math.log(total) / (1.0 - order)


def renyi_divergence(q, r, order):
    """Renyi divergence of order theta in (0,1) between q and r.

    Returns ``inf`` when the supports are disjoint.
    """
    _require_same_space(q, r)
    order = float(order)
    if not 0.0 < order < 1.0:
        raise InvalidOrder(f"Renyi divergence order must be in (0,1), got {order}")
    mask = (q.probs > 0.0) & (r.probs > 0.0)
    total = float(
        (np.power(q.probs[mask], order) * np.power(r.probs[mask], 1.0 - order)).sum()
    )
    if total == 0.0:
        return math.inf
    return math.log(total) / (order - 1.0)


def _from_log_weights(space, logw, error):
    """Distribution proportional to ``exp(logw)``, built in place in ``logw``, which it
    takes over; raises ``error`` if no weight is finite."""
    peak = logw.max()
    if not np.isfinite(peak):
        raise error
    np.exp(np.subtract(logw, peak, out=logw), out=logw)
    logw /= logw.sum()
    return TabularDist._adopt(space, logw)


def scale(p, theta):
    """Scaled (escort) distribution proportional to ``p ** theta``."""
    theta = float(theta)
    if not theta > 0.0:
        raise NonpositiveTheta(f"scaling exponent must be > 0, got {theta}")
    if theta == math.inf:
        raise NumericalGuard(f"scaling exponent must be finite, got theta = {theta}")
    with np.errstate(divide="ignore"):
        logw = theta * np.log(p.probs)
    empty = VanishingPartitionFunction("scaled weights carry no finite mass")
    return _from_log_weights(p.space, logw, empty)


def tilt(p, q, theta):
    """Tilted distribution proportional to ``p**theta * q**(1-theta)``.

    Endpoints return the respective argument verbatim; for theta in (0,1)
    the support is supp(p) & supp(q).
    """
    _require_same_space(p, q)
    theta = float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"tilt exponent must be in [0,1], got {theta}")
    if theta == 1.0:
        return p
    if theta == 0.0:
        return q
    with np.errstate(divide="ignore"):
        logw = theta * np.log(p.probs)
        logw += (1.0 - theta) * np.log(q.probs)
    disjoint = EmptyGeometricMean("supports of p and q do not intersect")
    return _from_log_weights(p.space, logw, disjoint)


def gibbs(f, q, beta):
    """Gibbs reweighting: distribution proportional to ``exp(-beta * f) * q``."""
    _require_same_space(f, q)
    beta = float(beta)
    if beta <= 0.0:
        raise ValueError(f"inverse temperature must be > 0, got {beta}")
    if not math.isfinite(beta):
        raise NumericalGuard(f"inverse temperature must be finite, got beta = {beta}")
    with np.errstate(divide="ignore"):
        logw = -beta * f.values + np.log(q.probs)
    empty = VanishingPartitionFunction("no state carries finite weight")
    return _from_log_weights(q.space, logw, empty)


def pushforward(p, t):
    """Image distribution of ``p`` under the scale map ``t`` (mass-preserving)."""
    if t.source.axis_sizes != p.space.axis_sizes:
        raise SpaceMismatch("scale map source differs from the distribution's space")
    k = t.fiber
    if k is None or k > t.target.size:  # more columns than rows: bincount beats a k-step loop
        out = np.bincount(t.map, weights=p.probs, minlength=t.target.size)
    else:  # bincount's order: each fiber's terms added left to right onto 0.0
        out = np.zeros(t.target.size)
        for column in p.probs.reshape(-1, k).T:
            out += column
    return TabularDist._adopt(t.target, out)


def reverse_conditional(p, t, image=None):
    """Conditional of ``p`` given its image under ``t`` (Bayes inversion): the
    ``ConditionalTable(p, t, image)``, where ``image`` defaults to ``pushforward(p, t)``."""
    return ConditionalTable(p, t, pushforward(p, t) if image is None else image)


def refine(coarsest, conditionals):
    """Compose a coarse distribution with a chain of reverse conditionals.

    ``conditionals`` are applied in order, each mapping the current distribution onto the
    next finer space as ``p / image[t.map] * current[t.map]`` in one fresh array, with no
    lifted copy: one divide and one multiply per fiber column on narrow blocks.  Raises
    :class:`UndefinedConditionalRow` if a conditioning state with positive mass has no defined row.
    """
    current = coarsest
    for cond in conditionals:
        if cond.given_space.axis_sizes != current.space.axis_sizes:
            raise SpaceMismatch("conditional does not match the current space")
        if not cond.defined.all():  # the scan takes three coarse-size passes
            undefined = (current.probs > 0.0) & ~cond.defined
            if undefined.any():
                j = int(np.argmax(undefined))
                raise UndefinedConditionalRow(
                    f"conditioning state {j} has mass {current.probs[j]!r} but no defined row"
                )
        current = TabularDist._adopt(cond.output_space, cond._compose(current.probs))
    return current
