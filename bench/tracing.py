"""Spans around the calls one besstruve layer makes into the next.

The package has no tracing of its own, so this module wraps, from outside,
the module-level names through which the layers call each other: the name
``deriv_j1z`` bound in ``integrals``, the base-series names bound in
``bessel_deriv``/``struve_deriv``/``lommel``, two ``LaurentPoly`` methods,
and so on (``TARGETS``).  Every binding site of one function gets the same
wrapper.  A span records its layer, start, end, parent span and request id,
in memory; self time is a span's duration minus that of its direct
children.  Cache hits and polynomial builds come from ``cache_info()`` of
the memoized originals.

A target that is missing (renamed or deleted by a later change) is skipped
and its layer reported absent; the run goes on.  ``Tracer.uninstall``
restores every patched attribute.
"""

from __future__ import annotations

import sys
from time import perf_counter

PACKAGE = "besstruve"
WRAPPED = "__bench_wrapped__"

# layer -> binding sites "module:attr" or "module:Class.attr".  Sites in a
# module that the workload never imports (cli, for the warm workloads) are
# skipped without marking the layer absent.
TARGETS = {
    "integrals": [
        "integrals:s_integral",
        "integrals:c_integral",
        "cli:s_integral",
        "cli:c_integral",
    ],
    "integrals.tail_bound": ["integrals:truncation_bound"],
    "bessel_deriv": ["integrals:deriv_j1z", "cli:deriv_j1z"],
    "struve_deriv": ["integrals:deriv_h1z", "cli:deriv_h1z"],
    "basefn": [
        "bessel_deriv:_j_sum_exact",
        "struve_deriv:_h_pi_sum_exact",
        "lommel:_j_sum_exact",
    ],
    "laurent": ["laurent:LaurentPoly.eval_rational", "laurent:LaurentPoly.eval_abs_float"],
    "oracle": ["oracle:_kernel_full"],
    "bessel_deriv.p_polys": ["bessel_deriv:p_polys", "cli:p_polys"],
    "struve_deriv.sigma": ["struve_deriv:sigma_polys_composed", "cli:sigma_polys_composed"],
    "lommel": [
        "lommel:c_poly",
        "bessel_deriv:c_poly",
        "lommel:r0_poly",
        "lommel:r1_poly",
        "struve_deriv:r0_poly",
        "struve_deriv:r1_poly",
        "cli:r0_poly",
        "cli:r1_poly",
    ],
}

# memoized originals whose cache_info() gives hits and builds
CACHES = {
    "basefn.j": "basefn:_j_sum_exact",
    "basefn.h": "basefn:_h_pi_sum_exact",
    "lommel.c_poly": "lommel:c_poly",
    "bessel_deriv.p_polys": "bessel_deriv:p_polys",
    "struve_deriv.sigma": "struve_deriv:sigma_polys_composed",
}

# what a span keeps of its layer's return value
_TAGS = {
    "bessel_deriv": lambda r: r.path,
    "struve_deriv": lambda r: r.path,
    "integrals": lambda r: r.terms_used,
}


def _resolve(site: str):
    """(owner, attr) for a site, or None when its module is not loaded."""
    module_name, _, path = site.partition(":")
    module = sys.modules.get(f"{PACKAGE}.{module_name}")
    if module is None:
        return None
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    return (owner, attr) if owner is not None else None


def cache_counts() -> dict:
    """Current (hits, misses) of every memoized original that exists."""
    out = {}
    for name, site in CACHES.items():
        found = _resolve(site)
        fn = getattr(found[0], found[1], None) if found else None
        fn = getattr(fn, WRAPPED, fn)
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[name] = (info.hits, info.misses)
    return out


def find_wrapped() -> list:
    """Every package attribute (module or class level) that is a wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPED):
                found.append(f"{name}:{attr}")
            if isinstance(value, type) and value.__module__ == name:
                found += [f"{name}:{attr}.{a}" for a, v in vars(value).items() if hasattr(v, WRAPPED)]
    return found


class Tracer:
    def __init__(self) -> None:
        # span: [layer, start, end, parent index, request id, tag]
        self.spans: list[list] = []
        self.request = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._caches_at_install: dict = {}

    def wrap(self, layer: str, fn):
        spans = self.spans
        stack = self._stack
        tag = _TAGS.get(layer)

        def wrapper(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if tag is not None:
                rec[5] = tag(result)
            return result

        setattr(wrapper, WRAPPED, fn)
        return wrapper

    def install(self) -> None:
        self._caches_at_install = cache_counts()
        for layer, sites in TARGETS.items():
            wrappers = {}  # id(original) -> wrapper, shared by all its sites
            patched = False
            for site in sites:
                found = _resolve(site)
                if found is None:
                    continue
                owner, attr = found
                original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if original is None:
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(layer, original)
                setattr(owner, attr, wrappers[id(original)])
                self._patches.append((owner, attr, original))
                patched = True
            if not patched:
                self.absent.append(layer)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict:
        """Flat sums that add up across processes: calls/<layer>,
        self_s/<layer>, tag/<layer>/<path>, terms/integrals, and
        hits|misses/<cache> since install."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict = {}
        for i, (layer, start, end, _, _, tag) in enumerate(self.spans):
            out[f"calls/{layer}"] = out.get(f"calls/{layer}", 0) + 1
            out[f"self_s/{layer}"] = out.get(f"self_s/{layer}", 0.0) + (end - start) - child[i]
            if isinstance(tag, str):
                key = f"tag/{layer}/{tag}"
                out[key] = out.get(key, 0) + 1
            elif tag is not None:
                out[f"terms/{layer}"] = out.get(f"terms/{layer}", 0) + tag
        before = self._caches_at_install
        for name, (hits, misses) in cache_counts().items():
            h0, m0 = before.get(name, (0, 0))
            out[f"hits/{name}"] = hits - h0
            out[f"misses/{name}"] = misses - m0
        return out
