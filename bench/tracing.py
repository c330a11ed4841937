"""Span tracing installed from outside the msgibbs package.

Timing wrappers replace the public functions of each module for the length
of a traced run and are removed afterwards.  A function that other modules
bind by name (``nn`` imports ``gibbs_gaussian``, ``sample`` and ``solve_mt``)
is replaced in every module that holds it, so calls through either name are
traced.  Spans (id, name, start, end, parent) and counters stay in memory and
are written once, when the run ends.
"""

import functools
import math
import sys
import time
from collections import Counter, defaultdict, namedtuple

Span = namedtuple("Span", "id name start end parent")

#: (module, attribute, span name).  An attribute "Class.method" names a
#: classmethod, which is wrapped on its class.  The three multiscale solvers
#: share one span name: they are one orchestration layer.
TRACED = (
    ("msgibbs.cli", "cmd_experiment", "cli.experiment"),
    ("msgibbs.cli", "cmd_solve_tabular", "cli.solve_tabular"),
    ("msgibbs.nn", "multiscale_posterior", "nn.multiscale_posterior"),
    ("msgibbs.nn", "population_risk_mc", "nn.population_risk_mc"),
    ("msgibbs.nn", "forward_batch", "nn.forward_batch"),
    ("msgibbs.nn", "gauss_newton_energy", "nn.gauss_newton_energy"),
    ("msgibbs.nn", "teacher_student_data", "nn.teacher_student_data"),
    ("msgibbs.multiscale", "solve_mt", "multiscale.solve"),
    ("msgibbs.multiscale", "solve_min_relative_entropy", "multiscale.solve"),
    ("msgibbs.multiscale", "solve_max_entropy", "multiscale.solve"),
    ("msgibbs.gaussian", "gibbs_gaussian", "gaussian.gibbs_gaussian"),
    ("msgibbs.gaussian", "marginalize", "gaussian.marginalize"),
    ("msgibbs.gaussian", "tilt_gaussian", "gaussian.tilt_gaussian"),
    ("msgibbs.gaussian", "concat", "gaussian.concat"),
    ("msgibbs.gaussian", "sample", "gaussian.sample"),
    ("msgibbs.gaussian", "GaussianDist.from_precision", "gaussian.from_precision"),
    ("msgibbs.tabular", "reverse_conditional", "tabular.reverse_conditional"),
    ("msgibbs.tabular", "refine", "tabular.refine"),
    ("msgibbs.tabular", "pushforward", "tabular.pushforward"),
    ("msgibbs.tabular", "gibbs", "tabular.gibbs"),
    ("msgibbs.tabular", "tilt", "tabular.tilt"),
    ("msgibbs.tabular", "scale", "tabular.scale"),
    ("msgibbs.oracle", "minimize_tabular", "oracle.minimize_tabular"),
)

LINALG = ("cholesky", "inv", "solve")


def _refined_states(coarsest, conditionals):
    return "tabular.refine.states", sum(c.output_space.size for c in conditionals)


#: span name -> function of the call's arguments giving (counter, increment)
COUNT_HOOKS = {"tabular.refine": _refined_states}


def replace_everywhere(owner, attr, make_wrapper, package):
    """Wrap ``owner.attr`` and every binding of the same object in ``package``.

    Returns the undo records ``(holder, name, original)`` for :func:`restore`.
    A classmethod is rewrapped on its class; other modules reach it through
    the class, so no further binding exists.
    """
    raw = vars(owner).get(attr) if isinstance(owner, type) else None
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
        return [(owner, attr, raw)]
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    holders = {id(owner): owner}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == package or name.startswith(package + ".")):
            holders[id(module)] = module
    undo = []
    for holder in holders.values():
        for name, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, name, wrapper)
                undo.append((holder, name, original))
    return undo


def restore(undo):
    for holder, name, original in reversed(undo):
        setattr(holder, name, original)


def linalg_flop(op, args):
    """Floating-point operations of one LAPACK call, computed from argument shapes.

    cholesky n^3/3; inv (LU, then n right-hand sides) 8n^3/3; solve (LU, then
    k right-hand sides) 2n^3/3 + 2n^2 k.  Leading batch dimensions multiply.
    Integer, so that sums repeat exactly.
    """
    a = args[0]
    n = a.shape[-1]
    batch = math.prod(a.shape[:-2])
    if op == "cholesky":
        flop = n**3 // 3
    elif op == "inv":
        flop = 8 * n**3 // 3
    else:
        b = args[1]
        k = 1 if b.ndim == 1 else b.shape[-1]
        flop = 2 * n**3 // 3 + 2 * n**2 * k
    return batch * flop


class Tracer:
    """In-memory span stack and counters fed by the installed wrappers."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._next_id = 0
        self._undo = []

    def wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                key, n = hook(*args, **kwargs)
                self.counters[key] += n
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append((span_id, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent))

        return traced

    def wrap_linalg(self, op, fn):
        """Count a numpy.linalg call when the innermost open span is gaussian."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack and self._stack[-1][1].startswith("gaussian."):
                self.counters[f"gaussian.linalg.{op}.calls"] += 1
                self.counters["gaussian.linalg.flop_computed"] += linalg_flop(op, args)
            return fn(*args, **kwargs)

        return counted

    def install(self):
        import numpy.linalg

        for module_name, attr, name in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            self._undo += replace_everywhere(
                owner, attr, functools.partial(self.wrap, name), "msgibbs"
            )
        for op in LINALG:
            self._undo += replace_everywhere(
                numpy.linalg, op, functools.partial(self.wrap_linalg, op), "msgibbs"
            )

    def uninstall(self):
        restore(self._undo)
        self._undo = []


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans):
    """Per span name: calls, inclusive seconds and self seconds; per layer: self seconds.

    Inclusive time counts only the outermost span of a name, so a function
    reached again inside itself is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    calls, inclusive, self_s, layer_self = Counter(), Counter(), Counter(), Counter()
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.id]
        layer_self[s.name.split(".")[0]] += own[s.id]
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            inclusive[s.name] += s.end - s.start
    return {"calls": calls, "s": inclusive, "self_s": self_s, "layer_self_s": layer_self}
