"""Per-layer spans for qcsd, recorded from outside the package.

The tracer replaces public functions of the ``qcsd`` modules with wrappers
and changes no file under ``src/``.  ``from .x import y`` copies ``y`` into
the importing module, so a function is replaced under every name by which
a loaded ``qcsd`` module refers to it; methods are replaced on their class.

Each call is a span with a name, start, end and parent (the span that was
open when it began).  Self time is the span's duration minus the time its
child spans cover.  ``RingSpec.mul`` alone opens millions of spans in a
run, so spans are folded into per-name totals (calls, self seconds) as they
close instead of being kept as a list.  ``gf`` is not wrapped: the buildup
workload makes about 70 M field operations, whose time shows up as self
time of the qc and rcode functions that call them.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> (module that defines the names, class or None, names)
LAYERS = {
    "ring": ("qcsd.ring", "RingSpec", ("mul", "conj", "hermitian_ip")),
    "rcode": ("qcsd.rcode", "RingCode", ("is_self_dual", "standard_form")),
    "qc": (
        "qcsd.qc",
        None,
        ("rref", "expand", "is_euclidean_self_dual", "is_shift_invariant"),
    ),
    "buildup": ("qcsd.buildup", None, ("extend_i", "extend_ii", "reduce")),
    "analysis": (
        "qcsd.analysis",
        None,
        ("weight_enumerator", "min_distance_prefix", "match_template"),
    ),
    "equiv": (
        "qcsd.equiv",
        None,
        ("are_equivalent", "fingerprint", "automorphism_order"),
    ),
    "classify": ("qcsd.classify", None, ("classify", "filter_report")),
    "corpus": ("qcsd.corpus", None, ("verify_entry",)),
    "formats": ("qcsd.formats", None, ("parse_ring_code", "parse_field_code")),
}

SPAN_NAMES = tuple(
    f"{layer}.{fn}" for layer, (_, _, fns) in LAYERS.items() for fn in fns
)


class Tracer:
    """Installs span wrappers on the loaded qcsd modules; ``uninstall``
    puts the original functions back."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.words = 0  # sum of q^k over completed weight_enumerator calls
        self.equivalent = 0  # are_equivalent calls that answered yes
        self._stack = [0.0]  # child time of each open span; [0] is the root
        self._patched = []

    def _wrap(self, name, fn, after=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                calls[name] += 1
                self_s[name] += dur - stack.pop()
                stack[-1] += dur
            if after is not None:
                after(args, result)
            return result

        return span

    def _count_words(self, args, result):
        code = args[0]
        self.words += code.field.q ** code.k

    def _count_equivalent(self, args, result):
        if result:
            self.equivalent += 1

    def install(self):
        after = {
            "analysis.weight_enumerator": self._count_words,
            "equiv.are_equivalent": self._count_equivalent,
        }
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "qcsd" or key.startswith("qcsd."))
        ]
        for layer, (home, cls_name, fns) in LAYERS.items():
            home_mod = sys.modules[home]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if cls_name is not None:
                    cls = getattr(home_mod, cls_name)
                    orig = cls.__dict__[fn_name]
                    self._patch(cls, fn_name, self._wrap(name, orig))
                    continue
                orig = getattr(home_mod, fn_name)
                wrapper = self._wrap(name, orig, after.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()
