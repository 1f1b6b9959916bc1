"""Per-layer tracing for the benchmark, installed from outside the program.

The tracer replaces selected public functions and methods of ``anires`` with
wrappers that count calls and time them.  A function is rebound everywhere
the package holds it (its defining module, the package namespace and every
module that imported it by name), so calls between modules are caught too.
Nothing in ``anires`` changes; ``uninstall`` puts the originals back.

Times are self times: a call's duration minus the durations of the wrapped
calls it made.  Each call of a span-recording target keeps one span
``(id, parent_id, item, name, start, end)`` in memory; ``write_spans`` puts
them out when the run ends.  The hottest targets (``CoefficientTable.entry``,
``basis_value``) are counted and timed but keep no span, which bounds memory.
Integrand evaluations are counted by wrapping the integrand handed to the
quadrature, so their time is part of the quadrature's self time.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import defaultdict
from time import perf_counter

from workloads import FIGURES

# (module, attribute path, layer name, keeps spans)
TARGETS = (
    ("benderwu", "build", "benderwu.build", True),
    ("series", "CoefficientTable.entry", "series.entry", False),
    ("series", "local_exponent", "series.local_exponent", True),
    ("model", "ModelCoefficients.build", "model.coeffs_build", True),
    ("model", "z_reference", "model.z_reference", True),
    ("model", "z_coeff_delta_scaled", "model.z_delta_scaled", True),
    ("specfun", "legendre_scaled", "specfun.legendre_scaled", True),
    ("quadrature", "integrate_unit", "quadrature", True),
    ("quadrature", "integrate_semiline", "quadrature", True),
    ("borel", "borel_coefficients", "borel.a_pn", True),
    ("borel", "build_approximant", "borel.build_approximant", True),
    ("borel", "reexpansion_check", "borel.reexpansion", True),
    ("borel", "basis_integral", "borel.basis_integral", True),
    ("borel", "ResummedApproximant.basis_value", "borel.basis_value", False),
    ("borel", "ResummedApproximant.resum", "borel.resum", True),
    ("qm", "qm_approximant", "qm.approximant", True),
    ("vpt", "w_laurent", "vpt.w_laurent", True),
    ("vpt", "optimize_omega", "vpt.optimize", True),
    ("vpt", "vpt_energy", "vpt.vpt_energy", True),
    ("cli", "main", "cli.main", True),
)


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Counts, self times and spans of calls into the ``anires`` layers."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock  # seconds; the runner's clock skips its speed samples
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.figure_s = defaultdict(float)  # inclusive time of each figure command
        self.spans = []
        self.item = None  # label of the item being run, shared by its spans
        self._stack = []  # frames: [layer name, child seconds, span id]
        self._next_id = 0
        self._bindings = []  # (owner, name, original, wrapper)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = {name: sys.modules[name] for name in sorted(sys.modules)
                   if name == "anires" or name.startswith("anires.")}
        for module, path, layer, keep_span in TARGETS:
            owner = modules[f"anires.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = self._wrap(fn, layer, keep_span)
                self._rebind(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, layer, keep_span)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._bindings):
            setattr(owner, name, original)
        self._bindings = []

    @contextlib.contextmanager
    def paused(self):
        """Run the block with the originals bound (for the benchmark's checks)."""
        for owner, name, original, _ in reversed(self._bindings):
            setattr(owner, name, original)
        try:
            yield
        finally:
            for owner, name, _, wrapped in self._bindings:
                setattr(owner, name, wrapped)

    def _rebind(self, owner, name, value) -> None:
        self._bindings.append((owner, name, owner.__dict__[name], value))
        setattr(owner, name, value)

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn, layer, keep_span):
        stack, clock = self._stack, self.clock
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)
        is_quadrature = layer == "quadrature"

        def wrapper(*args, **kwargs):
            if is_quadrature:
                args = (self._counted(args[0]),) + args[1:]
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[1]
                if keep_span:
                    self.spans.append((span_id, parent[2] if parent else None,
                                       self.item, layer, start, end))
            if after is not None:
                after(args, result, duration, parent)
            return result

        return wrapper

    def _counted(self, f):
        counts = self.counts

        def integrand(x):
            counts["quadrature.integrand_evals"] += 1
            return f(x)

        return integrand

    def _after_quadrature(self, args, result, duration, parent):
        self.maxima["quadrature.levels_max"] = max(self.maxima["quadrature.levels_max"],
                                                   result.levels)

    def _after_benderwu_build(self, args, state, duration, parent):
        self.maxima["benderwu.coeffs_stored"] = max(self.maxima["benderwu.coeffs_stored"],
                                                    len(state.A))
        top = max(_bits(v) for _, v in state.energy.items())
        self.maxima["benderwu.energy_max_bits"] = max(
            self.maxima["benderwu.energy_max_bits"], top)

    def _after_borel_build_approximant(self, args, approx, duration, parent):
        top = max(_bits(v) for v in approx.a.values())
        self.maxima["borel.a_pn_max_bits"] = max(self.maxima["borel.a_pn_max_bits"], top)

    def _after_borel_basis_integral(self, args, value, duration, parent):
        if parent is not None and parent[0] == "borel.basis_value":
            self.counts["borel.basis_misses"] += 1

    def _after_vpt_w_laurent(self, args, W, duration, parent):
        self.counts["vpt.laurent_terms"] += len(W.terms)

    def _after_vpt_optimize(self, args, result, duration, parent):
        self.counts["vpt.candidates"] += len(result.candidates)
        if result.kind == "turning_point":
            self.counts["vpt.turning_points"] += 1

    def _after_cli_main(self, args, rc, duration, parent):
        argv = list(args[0]) if args and args[0] is not None else []
        if argv[:1] == ["figures"] and "--which" in argv:
            self.figure_s[argv[argv.index("--which") + 1]] += duration

    # ------------------------------------------------------------ results

    def metrics(self) -> dict:
        """Per-layer metrics by name; zero where a layer did not run."""
        c, s, n, mx = self.calls, self.self_s, self.counts, self.maxima
        lookups = c["borel.basis_value"]
        quad_calls = c["quadrature"]
        optimize_calls = c["vpt.optimize"]
        out = {
            "benderwu.build_s": (s["benderwu.build"], "s"),
            "benderwu.build_calls": (c["benderwu.build"], "count"),
            "benderwu.coeffs_stored": (mx["benderwu.coeffs_stored"], "count"),
            "benderwu.energy_max_bits": (mx["benderwu.energy_max_bits"], "bits"),
            "series.entry_calls": (c["series.entry"], "count"),
            "series.entry_s": (s["series.entry"], "s"),
            "series.local_exponent_s": (s["series.local_exponent"], "s"),
            "model.coeffs_build_s": (s["model.coeffs_build"], "s"),
            "model.z_reference_s": (s["model.z_reference"], "s"),
            "model.z_reference_calls": (c["model.z_reference"], "count"),
            "model.z_delta_scaled_s": (s["model.z_delta_scaled"], "s"),
            "specfun.legendre_scaled_s": (s["specfun.legendre_scaled"], "s"),
            "specfun.legendre_scaled_calls": (c["specfun.legendre_scaled"], "count"),
            "quadrature.calls": (quad_calls, "count"),
            "quadrature.integrand_evals": (n["quadrature.integrand_evals"], "count"),
            "quadrature.evals_per_call": (
                n["quadrature.integrand_evals"] / quad_calls if quad_calls else 0.0, "count"),
            "quadrature.levels_max": (mx["quadrature.levels_max"], "count"),
            "quadrature.s": (s["quadrature"], "s"),
            "borel.a_pn_s": (s["borel.a_pn"], "s"),
            "borel.a_pn_max_bits": (mx["borel.a_pn_max_bits"], "bits"),
            "borel.reexpansion_s": (s["borel.reexpansion"], "s"),
            "borel.basis_integral_s": (s["borel.basis_integral"], "s"),
            "borel.basis_integral_calls": (c["borel.basis_integral"], "count"),
            "borel.basis_lookups": (lookups, "count"),
            "borel.basis_hit_ratio": (
                (lookups - n["borel.basis_misses"]) / lookups if lookups else 0.0, "ratio"),
            "borel.resum_s": (s["borel.resum"], "s"),
            "borel.resum_calls": (c["borel.resum"], "count"),
            "qm.approximant_s": (s["qm.approximant"], "s"),
            "qm.approximant_calls": (c["qm.approximant"], "count"),
            "vpt.w_laurent_s": (s["vpt.w_laurent"], "s"),
            "vpt.w_laurent_calls": (c["vpt.w_laurent"], "count"),
            "vpt.laurent_terms": (n["vpt.laurent_terms"], "count"),
            "vpt.optimize_s": (s["vpt.optimize"], "s"),
            "vpt.optimize_calls": (optimize_calls, "count"),
            "vpt.candidates": (n["vpt.candidates"], "count"),
            "vpt.turning_point_ratio": (
                n["vpt.turning_points"] / optimize_calls if optimize_calls else 0.0, "ratio"),
            "cli.main_s": (s["cli.main"], "s"),
        }
        for fig in FIGURES:
            out[f"cli.{fig}_s"] = (self.figure_s[fig], "s")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "item", "name", "start", "end"],
                       "spans": self.spans}, fh)
            fh.write("\n")
