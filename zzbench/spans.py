"""Span recording around the public functions of each zzkit layer.

`Tracer.install()` wraps every public module-level function of the layer
modules and rebinds the wrapper under every name any loaded `zzkit` module
holds it by, so calls through `from .x import f` imports are seen as well.
A span is (name, start, end, parent span, raised); spans stay in memory and
are written once, by `dump`, when the run ends.  A few wrappers also count
results at the boundary where the work happens: ambiguous labels out of
`diagonalize_and_label`, feasible candidates out of `evaluate_candidate`, and
Hamiltonian evaluations through the `func` of the Hamiltonian that
`build_protocol_hamiltonian` returns.
"""

import dataclasses
import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "io", "fixtures", "circuit", "vectorfit", "spectrum", "dynamics", "optimize")


class Tracer:
    def __init__(self):
        self.names = []          # span name table, index = name id
        self.spans = []          # (name id, start, end, parent index, raised)
        self.stack = []
        self.counts = {"ambiguous": 0, "feasible": 0, "h_evals": 0}
        self._bindings = []        # (module, attribute, function, wrapper)

    def _wrap(self, layer, name, fn):
        name_id = len(self.names)
        self.names.append(f"{layer}.{name}")
        spans, stack, counts = self.spans, self.stack, self.counts
        post = None
        if name == "diagonalize_and_label":
            from zzkit.spectrum import COMPUTATIONAL_LABELS

            def post(result):
                if any(lab in result.ambiguous for lab in COMPUTATIONAL_LABELS):
                    counts["ambiguous"] += 1
                return result
        elif name == "evaluate_candidate":
            def post(result):
                counts["feasible"] += bool(result.feasible)
                return result
        elif name == "build_protocol_hamiltonian":
            def post(result):
                func = result.func

                def counted(t):
                    counts["h_evals"] += 1
                    return func(t)
                return dataclasses.replace(result, func=counted)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, raised)
            return result if post is None else post(result)
        return wrapper

    def install(self):
        """Bind the wrappers; they are made on the first call and reused after."""
        if not self._bindings:
            modules = {name: mod for name, mod in sys.modules.items()
                       if name == "zzkit" or name.startswith("zzkit.")}
            for layer in LAYERS:
                mod = modules[f"zzkit.{layer}"]
                for name, fn in list(vars(mod).items()):
                    if (name.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    wrapper = self._wrap(layer, name, fn)
                    for holder in modules.values():
                        for attr, value in list(vars(holder).items()):
                            if value is fn:
                                self._bindings.append((holder, attr, fn, wrapper))
        for holder, attr, _, wrapper in self._bindings:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, fn, _ in reversed(self._bindings):
            setattr(holder, attr, fn)

    def mark(self):
        """Position to summarize from: spans and counts recorded after this call."""
        return len(self.spans), dict(self.counts)

    def summary(self, since):
        """Per-layer calls, self seconds and raised calls over spans after `since`."""
        first, counts0 = since
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        out = {f"{layer}.{key}": 0 for layer in LAYERS for key in ("calls", "self_s", "fail")}
        by_name = {}
        for k, (name_id, start, end, _, raised) in enumerate(spans):
            name = self.names[name_id]
            layer = name.split(".", 1)[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += (end - start) - child_time[k]
            out[f"{layer}.fail"] += int(raised)
            by_name[name] = by_name.get(name, 0) + 1
        delta = {k: self.counts[k] - counts0[k] for k in self.counts}
        diag = by_name.get("spectrum.diagonalize_and_label", 0)
        evals = by_name.get("optimize.evaluate_candidate", 0)
        out.update({
            "circuit.transmon_solves": by_name.get("circuit.transmon_spectrum", 0),
            "spectrum.diag_calls": diag,
            "spectrum.ambiguous_ratio": delta["ambiguous"] / diag if diag else 0.0,
            "optimize.evals": evals,
            "optimize.feasible_ratio": delta["feasible"] / evals if evals else 0.0,
            "dynamics.solves": (by_name.get("dynamics.evolve_schrodinger", 0)
                                + by_name.get("dynamics.evolve_lindblad", 0)),
            "dynamics.h_evals": delta["h_evals"],
            "vectorfit.fits": by_name.get("vectorfit.vector_fit", 0),
        })
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "raised"],
                       "spans": self.spans}, fh, separators=(",", ":"))
