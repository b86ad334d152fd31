"""In-memory spans around the public functions of jetlift's layers.

The benchmark traces the program from outside: ``instrument`` replaces a
layer's public functions with wrappers *where they are looked up*, records
one span per call, and restores the originals on exit.  Spans carry a parent
link, so a layer's self time is its span minus what its child spans cover.

Per-cell helpers (``TableEvaluator.monomials_by_index``, ``sort_with_sign``)
are called millions of times and are deliberately not wrapped: the
evaluator's share stays inside the verifier and oracle spans that call it.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Spans of one command at a time, plus the return values the counters
    are read from once the command has finished."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._open: list[list] = []
        self._stack: list[int] = []
        self._kept: list[tuple[str, tuple, object]] = []

    def wrap(self, name: str, fn: Callable, keep: bool = False) -> Callable:
        """``fn`` recording a span named ``name``; with ``keep`` its
        arguments and result are held for counting after the command."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if keep:
                self._kept.append((name, args, out))
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self._open)
        self._open.append([name, self._clock(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self._open[idx][2] = self._clock()

    def take(self) -> tuple[list[Span], list[tuple[str, tuple, object]]]:
        """Hand over and forget the closed spans and kept results."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans = [Span(*s) for s in self._open]
        kept = self._kept
        self._open, self._kept = [], []
        return spans, kept


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            children[sp.parent].append(i)
    out = []
    for sp, kids in zip(spans, children):
        covered = 0.0
        reach = sp.start
        for start, end in sorted((spans[c].start, spans[c].end) for c in kids):
            start, end = max(start, reach), min(end, sp.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(sp.end - sp.start - covered)
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the public functions of ``cli``, ``lift_space``, ``verifier``,
    ``oracle`` and ``weil_algebra`` for the duration of the block."""
    from jetlift import cli, lift_space, oracle, verifier, weil_algebra

    saved: list[tuple[object, str, object]] = []

    def patch(owners, attr, name, keep=False):
        # ``cli`` and ``oracle`` import these functions by name, so each
        # module that looks one up gets its own reference replaced.
        wrapped = tracer.wrap(name, getattr(owners[0], attr), keep)
        for owner in owners:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def patch_method(cls, attr, name):
        raw = cls.__dict__[attr]
        saved.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
        elif isinstance(raw, functools.cached_property):
            prop = functools.cached_property(tracer.wrap(name, raw.func))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
        else:
            setattr(cls, attr, tracer.wrap(name, raw))

    try:
        patch([verifier], "check_skew", "verifier.skew", keep=True)
        patch([verifier], "check_leibniz_basis", "verifier.leibniz", keep=True)
        patch([verifier], "check_truncation", "verifier.truncation", keep=True)
        patch([verifier, cli], "run_all_checks", "verifier.run_all_checks")

        # ``cmd_construct`` imports ``construct`` from ``lift_space`` at call time.
        patch([lift_space, oracle], "construct", "lift_space.construct")
        patch([lift_space, cli, oracle], "free_cells", "lift_space.free_cells")
        ca = lift_space.CoefficientAssignment
        for attr in ("__post_init__", "zeros", "unit", "random"):
            patch_method(ca, attr, "lift_space.assignment")
        for cls in (ca, lift_space.LiftTable):
            patch_method(cls, "to_json_dict", "lift_space.json")
            patch_method(cls, "from_json_dict", "lift_space.json")

        patch([oracle, cli], "build_constraints", "oracle.build", keep=True)
        patch([oracle, cli], "nullspace", "oracle.nullspace", keep=True)
        patch([oracle, cli], "check_iso", "oracle.check_iso")
        patch([oracle, cli], "compare_with_construction", "oracle.compare", keep=True)
        patch([oracle], "expand_table", "oracle.expand_table")
        patch([oracle], "rank_of", "oracle.rank_of")

        for attr in ("basis", "basis_index", "degrees", "supports", "product_index"):
            patch_method(weil_algebra.AlgebraParams, attr, "weil_algebra.tables")
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
