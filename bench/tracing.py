"""Per-layer tracing from outside the program, by patching module attributes.

`installed(tracer, hc)` replaces the functions listed in PATCHES with
wrappers and puts every original back when the block exits, also on error.
A wrapper either records a span (name, parent, op id, start, end) or, for
calls too hot to time, only counts.  The program itself is not edited.

Attributes are patched where the caller looks them up: `quadform` imports
`valuation_f` and friends by name, so the binding in `quadform` is patched
as well as the one in `exact_arith`.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from types import SimpleNamespace
from typing import Callable, Iterator

SPAN, COUNT, GENERATOR = "span", "count", "generator"

# (owner, attribute, span or counter name, how).  The owner is a module of
# the package, or "module.Class" for a classmethod.
PATCHES = (
    ("quadform", "generate_family", "quadform.generate_family", SPAN),
    ("quadform", "certify_noncommensurable", "quadform.certify", SPAN),
    ("quadform", "verify_certificate", "quadform.verify", SPAN),
    ("quadform", "signatures", "quadform.signatures", SPAN),
    ("quadform", "is_admissible", "quadform.is_admissible", SPAN),
    ("quadform", "is_anisotropic_certified", "quadform.is_anisotropic_certified", SPAN),
    ("quadform", "hilbert_symbol", "quadform.hilbert_symbol", COUNT),
    ("quadform", "valuation_f", "exact_arith.valuation_f", SPAN),
    ("exact_arith", "valuation_f", "exact_arith.valuation_f", SPAN),
    ("quadform", "square_test_f", "exact_arith.square_test_f", SPAN),
    ("exact_arith", "square_test_f", "exact_arith.square_test_f", SPAN),
    ("quadform", "primes_from", "exact_arith.primes_from", GENERATOR),
    ("exact_arith", "primes_from", "exact_arith.primes_from", GENERATOR),
    ("quadform", "is_prime", "exact_arith.is_prime", COUNT),
    ("exact_arith", "is_prime", "exact_arith.is_prime", COUNT),
    ("quadform", "legendre", "exact_arith.legendre", COUNT),
    ("exact_arith", "legendre", "exact_arith.legendre", COUNT),
    ("quadform", "smallest_nonresidue", "exact_arith.smallest_nonresidue", COUNT),
    ("exact_arith", "smallest_nonresidue", "exact_arith.smallest_nonresidue", COUNT),
    ("exact_arith", "hensel_lift_sqrt2", "exact_arith.hensel_lift", COUNT),
    ("exact_arith.LocalPlace", "at", "exact_arith.local_place", COUNT),
    ("gluing", "canonical_rotation", "gluing.canonical_rotation", SPAN),
    ("gluing", "same_class", "gluing.same_class", SPAN),
    ("gluing", "dihedral_stabilizer", "gluing.dihedral_stabilizer", SPAN),
    ("gluing", "enumerate_classes", "gluing.enumerate_classes", SPAN),
    ("gluing", "necklace_count", "gluing.necklace_count", SPAN),
    ("census", "necklace_count", "gluing.necklace_count", SPAN),
    ("gluing", "multinomial_lower_bound", "gluing.multinomial_lower_bound", SPAN),
    ("census", "multinomial_lower_bound", "gluing.multinomial_lower_bound", SPAN),
    ("census", "theorem_table", "census.theorem_table", SPAN),
    ("census", "liminf_check", "census.liminf_check", SPAN),
    ("census", "table_to_csv", "census.table_to_csv", SPAN),
    ("census", "lcom_lower_bound", "census.lcom_lower_bound", SPAN),
    ("census", "render_log_scientific", "census.render_log_scientific", COUNT),
)


class Tracer:
    """Spans and counters for one traced pass, kept in memory.

    A span is [name, parent span index or -1, op id, start, end]; spans of
    one op share its id, which the caller sets in `op` before each op.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name."""
        return self._wrap(fn, name, SPAN)(*args, **kwargs)

    def _wrap(self, fn: Callable, name: str, how: str) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        if how == COUNT:

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        if how == GENERATOR:

            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append([name, stack[-1] if stack else -1, tracer.op, clock(), 0.0])
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        spans[idx][4] = clock()
                    counts[name + ".yielded"] += 1
                    yield value

            return functools.wraps(fn)(generator)

        def timed(*args, **kwargs):
            counts[name] += 1
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, tracer.op, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][4] = clock()
            if name == "gluing.enumerate_classes":
                counts["gluing.enumerate.classes_emitted"] += len(result)
            return result

        return functools.wraps(fn)(timed)

    def busy(self) -> Counter:
        """Inclusive seconds per span name (no span nests inside one of its own name)."""
        out: Counter = Counter()
        for name, _, _, start, end in self.spans:
            out[name] += end - start
        return out

    def self_time(self) -> Counter:
        """Seconds per layer: each span's duration minus its child spans'."""
        child = [0.0] * len(self.spans)
        out: Counter = Counter()
        for idx in range(len(self.spans) - 1, -1, -1):
            name, parent, _, start, end = self.spans[idx]
            if parent >= 0:
                child[parent] += end - start
            out[name.split(".", 1)[0]] += end - start - child[idx]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,op,name,start,end\n")
            for idx, (name, parent, op, start, end) in enumerate(self.spans):
                fh.write(f"{idx},{parent},{op},{name},{start!r},{end!r}\n")


def _owner(hc: SimpleNamespace, path: str):
    module, _, cls = path.partition(".")
    owner = getattr(hc, module)
    return getattr(owner, cls) if cls else owner


@contextlib.contextmanager
def installed(tracer: Tracer, hc: SimpleNamespace) -> Iterator[None]:
    """Patch every PATCHES attribute of the modules in hc; restore all on exit."""
    saved = []
    try:
        for path, attr, name, how in PATCHES:
            owner = _owner(hc, path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(tracer._wrap(original.__func__, name, how)))
            else:
                setattr(owner, attr, tracer._wrap(original, name, how))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def snapshot(hc: SimpleNamespace) -> dict:
    """The raw attribute objects PATCHES touches, for checking that they were restored."""
    return {(path, attr): _owner(hc, path).__dict__[attr] for path, attr, _, _ in PATCHES}
