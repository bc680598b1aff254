"""Spans recorded from outside mahaknn by rebinding its public layer functions.

`patch` rebinds a function in every loaded mahaknn module that holds it, so a
call is seen whether it goes through `mahaknn.registration.knn` or
`mahaknn.neighborhood.knn`. The package is never edited; every binding is
restored when the context exits.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import ExitStack, contextmanager

PACKAGE = "mahaknn"


def _package_modules():
    prefix = PACKAGE + "."
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(prefix))
    ]


def lookup(qualname):
    """The function `module.function` of the package, or None if it has none."""
    module_name, _, attr = qualname.rpartition(".")
    module = sys.modules.get(f"{PACKAGE}.{module_name}")
    return getattr(module, attr, None) if module is not None else None


@contextmanager
def patch(qualname, make_wrapper):
    """Rebind `qualname` to make_wrapper(original) wherever a package module binds it."""
    original = lookup(qualname)
    if original is None:
        raise AttributeError(f"{PACKAGE}.{qualname} not found")
    wrapper = make_wrapper(original)
    sites = [
        (module, name)
        for module in _package_modules()
        for name, value in list(vars(module).items())
        if value is original
    ]
    for module, name in sites:
        setattr(module, name, wrapper)
    try:
        yield
    finally:
        for module, name in sites:
            setattr(module, name, original)


class Span:
    __slots__ = ("id", "name", "parent", "trial", "unit", "start", "end", "child_s", "sizes", "outcome", "error")

    def __init__(self, span_id, name, parent, trial, unit):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.trial = trial
        self.unit = unit
        self.start = self.end = 0.0
        self.child_s = 0.0  # children run one at a time, so their durations never overlap
        self.sizes = None
        self.outcome = None
        self.error = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def record(self):
        rec = {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "trial": self.trial,
            "unit": self.unit,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
        }
        for key in ("sizes", "outcome", "error"):
            if getattr(self, key) is not None:
                rec[key] = getattr(self, key)
        return rec


class Tracer:
    """Keeps every span in memory; one span per call of a traced function.

    `unit` labels the stretch of work in progress (a set-up repetition or a
    scenario pass). A call of `trial_marker` opens the next trial, and later
    spans of the unit carry that trial's index.
    `sizes[name]` and `outcomes[name]` map the call's bound arguments (and,
    for outcomes, its return value) to small dicts stored on the span.
    """

    def __init__(self, trial_marker, sizes=None, outcomes=None):
        self.spans = []
        self.unit = None
        self.missing = []
        self._stack = []
        self._trial = None
        self._trial_marker = trial_marker
        self._sizes = sizes or {}
        self._outcomes = outcomes or {}

    def begin_unit(self, label):
        self.unit = label
        self._trial = None

    def _wrap(self, name, fn):
        size_of = self._sizes.get(name)
        outcome_of = self._outcomes.get(name)
        signature = inspect.signature(fn) if size_of or outcome_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == self._trial_marker:
                self._trial = 0 if self._trial is None else self._trial + 1
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent.id if parent else None, self._trial, self.unit)
            arguments = None
            if signature is not None:
                try:
                    arguments = signature.bind(*args, **kwargs).arguments
                    if size_of:
                        span.sizes = size_of(arguments)
                except (TypeError, KeyError, AttributeError):
                    arguments = None  # a changed signature loses the sizes, not the span
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if outcome_of and arguments is not None:
                span.outcome = outcome_of(arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self, qualnames):
        """Trace every function in qualnames; names the package lacks are listed in `missing`."""
        with ExitStack() as stack:
            for qualname in qualnames:
                if lookup(qualname) is None:
                    if qualname not in self.missing:
                        self.missing.append(qualname)
                    continue
                stack.enter_context(patch(qualname, functools.partial(self._wrap, qualname)))
            yield self
