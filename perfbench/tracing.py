"""In-memory span tracer wrapped around the library's layer boundaries.

Each wrapped function records a span (id, parent id, request id, name,
start, end) and accumulates call counts and self time: a span's duration
minus the time its child spans cover.  Names bound with ``from ... import``
are replaced in every module that holds them, and class attributes that
alias a wrapped method (``__radd__ = __add__``) are replaced with it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

from coulombalg import coulomb, fracs, groebner, morphisms, poly, shmodel

# (owner, attribute, span name).  Owners are modules or classes.
SPANS = (
    (poly, "exact_divide", "poly.exact_divide"),
    (poly.ExactPolynomial, "__mul__", "poly.mul"),
    (fracs.FactoredFraction, "__add__", "fracs.add"),
    (fracs.FactoredFraction, "__mul__", "fracs.mul"),
    (fracs, "unit_decompose", "fracs.unit_decompose"),
    (morphisms.RingMorphism, "__call__", "morphisms.apply"),
    (morphisms.RingMorphism, "__post_init__", "morphisms.build"),
    (groebner, "buchberger", "groebner.buchberger"),
    (groebner, "normal_form", "groebner.normal_form"),
    (groebner, "ring_map_kernel", "groebner.ring_map_kernel"),
    (coulomb, "matter_membership", "coulomb.matter_membership"),
    (coulomb, "expand", "coulomb.expand"),
    (coulomb, "reynolds", "coulomb.reynolds"),
    (coulomb, "to_blowup_polynomial", "coulomb.to_blowup_polynomial"),
    (coulomb, "matter_presentation", "coulomb.matter_presentation"),
    (shmodel, "section_homomorphism", "shmodel.section_homomorphism"),
    ("coulombalg.rootdata", "ambient_table", "rootdata.ambient_table"),
    ("coulombalg.parsing", "parse_expression", "parsing.parse_expression"),
    ("coulombalg.printing", "format_element", "printing.format_element"),
    ("coulombalg.problems", "parse_problem_text", "problems.parse_problem_text"),
)

# Counted without a span: each S-polynomial is one S-pair that survived the
# pruning criteria, the base of groebner.spair_zero_ratio.
COUNTED = ((groebner, "_s_polynomial", "groebner.spairs"),)

CACHES = (
    ("coulomb.euler_translation", coulomb.euler_translation),
    ("coulomb.expansion_morphism", coulomb.expansion_morphism),
    ("coulomb.weyl_group", coulomb.weyl_group),
    ("shmodel.section_homomorphism_map", shmodel.section_homomorphism_map),
)


def _count_outcomes(name: str, result, parent: str | None, counts: Counter):
    if name == "poly.exact_divide" and result is None:
        counts["poly.exact_divide.none"] += 1
    elif name == "groebner.normal_form" and parent == "groebner.buchberger":
        remainder = result[0] if isinstance(result, tuple) else result
        if remainder.is_zero:
            counts["groebner.spairs.zero"] += 1
    elif name == "groebner.buchberger":
        counts["groebner.bases"] += 1
        counts["groebner.basis_elements"] += len(result.basis)


# Spans kept for the trace file; counts and self times cover every call.
SPAN_CAP = 100_000


class Tracer:
    """Span recorder for the requests between ``begin`` and ``end``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.cache_lookups: dict[str, tuple[int, int]] = {n: (0, 0) for n, _ in CACHES}
        self.request: str | None = None
        self.active = False  # spans are recorded only between begin() and end()
        self._stack: list[list] = []  # [name, span id, child seconds]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}

    # -- wrapping -----------------------------------------------------------

    def _span(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [name, self._next_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (frame[1], parent[1] if parent else None, self.request, name, start, end)
                    )
                else:
                    self.dropped += 1
            _count_outcomes(name, result, parent[0] if parent else None, self.counts)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, make):
        if isinstance(owner, str):
            owner = sys.modules[owner]
        original = vars(owner)[attr]
        wrapper = make(original)
        namespaces = [owner]
        namespaces += [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "coulombalg"]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._undo.append((ns, key, value))
                    setattr(ns, key, wrapper)

    def install(self):
        for owner, attr, name in SPANS:
            self._replace(owner, attr, lambda fn, name=name: self._span(name, fn))
        for owner, attr, name in COUNTED:
            self._replace(owner, attr, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        while self._undo:
            ns, key, value = self._undo.pop()
            setattr(ns, key, value)

    def begin(self, request: str):
        """Start recording one request; cache lookups are counted from here."""
        self.request, self.active = request, True
        self._cache_start = {name: _hits_misses(fn) for name, fn in CACHES}

    def end(self):
        self.active = False
        for name, fn in CACHES:
            hits, misses = _hits_misses(fn)
            h0, m0 = self._cache_start[name]
            h, t = self.cache_lookups[name]
            self.cache_lookups[name] = (h + hits - h0, t + hits - h0 + misses - m0)

    # -- results ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "request": request,
                         "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )


def _hits_misses(fn) -> tuple[int, int]:
    info = fn.cache_info()
    return info.hits, info.misses


def clear_caches():
    """Empty the library's per-ring caches (before re-running a stream prefix)."""
    for _, fn in CACHES:
        fn.cache_clear()
    shmodel.equivariant_ring.cache_clear()
