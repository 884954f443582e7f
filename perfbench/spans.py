"""Spans and counts around crossfield's public functions, installed from outside.

Each wrapper replaces a name where callers look it up: a method on its class
(``Automorphism.apply``), or a module function in every crossfield module that
imported it (``crossfield.normalform.exp_ad`` as well as
``crossfield.lie.exp_ad``).  A span is (name, start, end, parent span, job);
spans stay in memory and are written when the run ends.  Self time is a
span's duration minus the durations of its direct children, accumulated as
the spans close.  Bookkeeping a wrapper does outside its own span (counting
term pairs, judging shift maps, measuring growth) is charged to no span.

``GaussianRational`` arithmetic is only counted: it runs millions of times per
job and a span there would cost more than the arithmetic.  ``LaurentPoly``
products are timed but not stored one by one, for the same reason.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# name -> (module, owner class or None, attribute names)
SPANNED = {
    "coeff.laurent_mul": ("coeff", "LaurentPoly", ("__mul__", "__rmul__")),
    "coeff.euler_solve": ("coeff", "LaurentPoly", ("euler_solve",)),
    "series.mul": ("series", "TransverseSeries", ("__mul__", "__rmul__")),
    "series.add": ("series", "TransverseSeries", ("__add__", "__radd__")),
    "series.scale": ("series", "TransverseSeries", ("scale",)),
    "series.diff_z": ("series", "TransverseSeries", ("diff_z",)),
    "lie.apply": ("lie", "Automorphism", ("apply",)),
    "lie.compose": ("lie", "Automorphism", ("compose",)),
    "lie.invert": ("lie", "Automorphism", ("invert",)),
    "lie.pushforward": ("lie", "Automorphism", ("pushforward",)),
    "lie.field_apply": ("lie", "VectorField", ("apply",)),
    "lie.bracket": ("lie", "VectorField", ("bracket",)),
    "lie.exp": ("lie", None, ("exp",)),
    "lie.log": ("lie", None, ("log",)),
    "lie.exp_ad": ("lie", None, ("exp_ad",)),
    "normalform.normalize": ("normalform", None, ("normalize",)),
    "normalform.centralizer_check": ("normalform", None, ("centralizer_check",)),
    "resonance.decide_ntnr": ("resonance", None, ("decide_ntnr",)),
    "resonance.enumerate_resonances": ("resonance", None, ("enumerate_resonances",)),
    "resonance.classify_dim2": ("resonance", None, ("classify_dim2",)),
    "resonance.classify_dim3": ("resonance", None, ("classify_dim3",)),
    "holonomy.holonomy_jet": ("holonomy", None, ("holonomy_jet",)),
    "holonomy.conjugacy_residual": ("holonomy", None, ("conjugacy_residual",)),
    "holonomy.after": ("holonomy", "HolonomyJet", ("after",)),
    "parsing.parse_field": ("parsing", None, ("parse_field",)),
    "cli.main": ("cli", None, ("main",)),
}
COUNTED = {
    "coeff.gq_mul": ("coeff", "GaussianRational", ("__mul__", "__rmul__")),
    "coeff.gq_add": ("coeff", "GaussianRational", ("__add__", "__radd__")),
}
# timed and counted, but not stored span by span
UNSTORED = {"coeff.laurent_mul"}


def series_terms(s) -> int:
    """(z-monomial, x-exponent) terms of a TransverseSeries."""
    return sum(len(p._terms) for p in s._terms.values())


def field_terms(X) -> int:
    return series_terms(X.a) + sum(series_terms(c) for c in X.b)


def map_terms(phi) -> int:
    return series_terms(phi.img_x) + sum(series_terms(c) for c in phi.img_z)


def field_bits(X) -> int:
    """Largest numerator or denominator bit length among X's coefficients."""
    top = 0
    for comp in (X.a,) + tuple(X.b):
        for poly in comp._terms.values():
            for c in poly._terms.values():
                for q in (c.re, c.im):
                    top = max(top, q.numerator.bit_length(), q.denominator.bit_length())
    return top


class Tracer:
    """Installs the wrappers, collects spans and counts, restores on uninstall."""

    def __init__(self):
        self.names = list(SPANNED)
        self.spans = []  # (name index, start, end, parent index, job)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.growth = []  # per exp_ad span directly under normalize
        self.sweep = []  # per normalize call
        self.job = -1
        self._stack = [[-1, 0.0, None]]  # [span index, child seconds, name]
        self._patches = []
        self._shift_seen = {}
        self._refs = {}

    # -- installation ---------------------------------------------------------

    def install(self):
        import crossfield

        modules = [
            m for k, m in sys.modules.items()
            if k == "crossfield" or k.startswith("crossfield.")
        ]
        posts = {
            "series.mul": self._post_series_mul,
            "lie.apply": self._post_apply,
            "lie.exp_ad": self._post_exp_ad,
            "normalform.normalize": self._post_normalize,
        }
        for name, (mod, owner, attrs) in SPANNED.items():
            self._patch(crossfield, modules, mod, owner, attrs,
                        lambda fn, name=name: self._span(name, fn, posts.get(name)))
        for name, (mod, owner, attrs) in COUNTED.items():
            self._patch(crossfield, modules, mod, owner, attrs,
                        lambda fn, name=name: self._counter(name, fn))

    def _patch(self, crossfield, modules, mod, owner, attrs, make):
        module = getattr(crossfield, mod)
        wrapped = {}
        for attr in attrs:
            target = getattr(module, owner) if owner else None
            original = (target.__dict__ if target else vars(module))[attr]
            if id(original) not in wrapped:
                wrapped[id(original)] = make(original)
            wrapper = wrapped[id(original)]
            if target is not None:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)
                continue
            # every module that imported the function by name
            for m in modules:
                if vars(m).get(attr) is original:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def start_job(self, job_index: int):
        self.job = job_index
        self._shift_seen.clear()

    # -- wrappers -------------------------------------------------------------

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def _span(self, name, fn, post):
        stack, spans, self_s, calls = self._stack, self.spans, self.self_s, self.calls
        name_id = self.names.index(name)
        store = name not in UNSTORED

        def spanned(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans) if store else -1
            if store:
                spans.append(None)
            frame = [idx, 0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                parent[1] += d
                self_s[name] += d - frame[1]
                calls[name] += 1
                if store:
                    spans[idx] = (name_id, t0, t1, parent[0], self.job)
            if post is not None:
                b0 = perf_counter()
                post(parent, args, result)
                parent[1] += perf_counter() - b0
            return result

        return spanned

    # -- bookkeeping after a span -------------------------------------------

    def _post_series_mul(self, parent, args, result):
        a, b = args
        if type(b) is not type(a):
            return
        self.counts["series.mul.term_pairs"] += len(a._terms) * len(b._terms)
        hist_b = Counter(sum(K) for K in b._terms)
        kept = 0
        for K in a._terms:
            room = a.cap - sum(K)
            kept += sum(c for d, c in hist_b.items() if d <= room)
        self.counts["series.mul.kept_pairs"] += kept

    def _post_apply(self, parent, args, result):
        phi = args[0]
        seen = self._shift_seen.get(id(phi))
        if seen is None:
            seen = (phi, self._is_single_shift(phi))
            self._shift_seen[id(phi)] = seen  # holds phi, so the id stays unique
        self.counts["lie.apply.shift_calls"] += seen[1]

    def _is_single_shift(self, phi) -> bool:
        """img_x = x and exactly one z-image differs from its coordinate."""
        from crossfield.series import TransverseSeries

        key = (phi.n, phi.cap)
        if key not in self._refs:
            self._refs[key] = (
                TransverseSeries.x_series(phi.n, phi.cap),
                [TransverseSeries.variable(phi.n, phi.cap, i + 1) for i in range(phi.n)],
            )
        x, zs = self._refs[key]
        if phi.img_x != x:
            return False
        return sum(img != z for img, z in zip(phi.img_z, zs)) == 1

    def _post_exp_ad(self, parent, args, result):
        if parent[2] == "normalform.normalize":
            self.growth.append(
                {"job": self.job, "terms": field_terms(result), "max_bits": field_bits(result)}
            )

    def _post_normalize(self, parent, args, result):
        from crossfield.series import iter_l_indices

        X = args[0]
        self.sweep.append(
            {
                "job": self.job,
                "steps": len(result.steps),
                "slots": sum(1 for _ in iter_l_indices(X.n, 0, X.cap - 1)),
                "normalizer_terms": map_terms(result.normalizer),
                "normal_terms": field_terms(result.normal_field),
            }
        )

    # -- results --------------------------------------------------------------

    def certify_s(self) -> float:
        """Inclusive time of Automorphism/VectorField.apply spans whose direct
        parent is normalize: the certificate ``_intertwines`` runs there."""
        norm = self.names.index("normalform.normalize")
        applies = {self.names.index("lie.apply"), self.names.index("lie.field_apply")}
        spans = self.spans
        return sum(
            t1 - t0
            for name, t0, t1, parent, _ in spans
            if name in applies and parent >= 0 and spans[parent][0] == norm
        )

    def dump(self) -> dict:
        return {
            "span_names": self.names,
            "spans": self.spans,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "exp_ad_growth": self.growth,
            "normalize": self.sweep,
        }
