"""In-memory spans for the traced benchmark run.

A `Tracer` replaces library functions with timing wrappers at the places
where their callers look them up (a module global or a class attribute),
records one span per call, and puts every original back when the traced
call ends.  Nothing in the library is edited; spans stay in memory until the
run writes them out.

Given a `probe` (a callable that times a fixed piece of work), the tracer
runs it right before and right after every span and keeps the mean reading
on the span, so a duration can be scaled by how fast the machine was at the
time.  Probe time counts as the parent's child time, never as self time.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# float noise allowed when a parent's child time is compared with its length
_TOLERANCE_S = 1e-9


@dataclass(frozen=True)
class Site:
    """A lookup place `owner.attr` and the span name its calls are recorded under.

    `value` maps a call's result to a number that is summed per span name,
    e.g. the size of the clique a clique search returned.
    """

    owner: object
    attr: str
    name: str
    value: Callable[[object], float] | None = None


@dataclass
class Span:
    name: str
    call: int
    start: float
    parent: int | None
    end: float = 0.0
    child_time: float = 0.0
    value: float = 0.0
    probe_s: float = 0.0
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by direct children."""
        return self.duration - self.child_time


class Tracer:
    def __init__(self, sites, clock=time.perf_counter, probe=None):
        self.sites = tuple(sites)
        self.clock = clock
        self.probe = probe
        self.spans: list[Span] = []
        self.call = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def recording(self, call: int, name: str = "call"):
        """Trace one closed-loop call: install the wrappers, record a root
        span around the block, and restore every original on the way out."""
        self.install()
        self.call = call
        try:
            with self.span(name):
                yield
        finally:
            self.restore()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        for site in self.sites:
            raw = vars(site.owner)[site.attr]
            self._saved.append((site.owner, site.attr, raw))
            setattr(site.owner, site.attr, self._wrap(raw, site))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        outer = self.clock()
        before = self.probe() if self.probe else 0.0
        sp = Span(name, self.call, self.clock(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            sp.end = self.clock()
            self._stack.pop()
            if self.probe:
                sp.probe_s = (before + self.probe()) / 2
            if parent is not None:
                self.spans[parent].child_time += self.clock() - outer

    def _wrap(self, raw, site: Site):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, site))

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            with self.span(site.name) as sp:
                result = raw(*args, **kwargs)
                if site.value is not None:
                    sp.value = site.value(result)
            return result

        return wrapper


@dataclass
class Total:
    time: float = 0.0
    self_time: float = 0.0
    calls: int = 0
    value: float = 0.0


def totals(spans, calls=None) -> dict[str, Total]:
    """Per span name: summed duration, self time, call count and value.
    `calls`, when given, keeps only spans recorded during those calls."""
    out: dict[str, Total] = {}
    for sp in spans:
        if calls is not None and sp.call not in calls:
            continue
        t = out.setdefault(sp.name, Total())
        t.time += sp.duration
        t.self_time += sp.self_time
        t.calls += 1
        t.value += sp.value
    return out


def inconsistent_spans(spans, root: str) -> int:
    """Spans inside a `root`-named span whose children cover more time than
    the span itself (a negative self time); 0 for a sound trace."""
    inside = [False] * len(spans)
    bad = 0
    for i, sp in enumerate(spans):  # parents precede their children
        inside[i] = sp.name == root or (sp.parent is not None and inside[sp.parent])
        if inside[i] and sp.self_time < -_TOLERANCE_S:
            bad += 1
    return bad
