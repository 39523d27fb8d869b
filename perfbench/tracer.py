"""Span recorder that instruments cohentropy from the outside.

`instrument()` replaces every module binding of the listed public functions
(including names re-imported with ``from .x import f`` and entries of
module-level dicts such as ``acceptance.CRITERIA``) with a wrapper that opens
a span, and replaces the numpy/scipy linear-algebra kernels with counters.
Nothing under ``src/`` is edited; the patches live only in the traced process.

A span holds name, start, end and parent.  Spans are kept in flat arrays in
memory and written out when the run ends.  Kernel calls are not spans: they
are counted on the enclosing span, so a run with ~160k tiny ``eigh`` calls
stays small.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# Public functions per module, as named in the per-layer metrics.
# ``DensityMatrix`` stands for its ``__post_init__`` validation.
LAYERS = {
    "qcore": ["DensityMatrix", "cleaned_state", "von_neumann_entropy", "matrix_log_on_support",
              "relative_entropy", "null_projector", "thermal_state", "partial_trace",
              "trace_distance"],
    "spectrum": ["build_level_structure", "dephase_block_diagonal", "dephase_diagonal",
                 "coherence_measures", "distance_to_thermal", "thermal_state_of"],
    "lindblad": ["eigenoperators", "build_generator", "build_multichannel_generator", "evolve",
                 "asymptotic_state", "steady_states"],
    "thermo": ["instantaneous_rates", "decompose_series", "check_rates_by_finite_differences",
               "complementarity_report", "heat_flow", "otto_cycle"],
    "collective": ["collective_coupling", "analytic_steady_state", "entropy_production_ratio",
                   "delta_C_h_limit"],
    "thermalops": ["sample_energy_conserving_unitary", "conservation_report", "apply_operation",
                   "divergence_witness"],
    "scenarios": ["run_scenario_config", "build_collective_scenario", "build_reversal_scenario",
                  "build_near_degenerate_scenario", "build_otto_report", "series_to_csv",
                  "snapshot_rows_to_csv"],
}
CRITERIA = range(1, 15)
KERNELS = {
    "eigh": ("numpy.linalg", "eigh"),
    "eigvalsh": ("numpy.linalg", "eigvalsh"),
    "eig": ("numpy.linalg", "eig"),
    "inv": ("numpy.linalg", "inv"),
    "svd": ("numpy.linalg", "svd"),
    "qr": ("numpy.linalg", "qr"),
    "expm": ("scipy.linalg", "expm"),
}
GENERATOR_BUILDERS = ("lindblad.build_generator", "lindblad.build_multichannel_generator")


class Recorder:
    """Spans in flat arrays, kernel counters per enclosing span name."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[tuple[int, int, int]] = []  # (span, name id, kernel calls at entry)
        self._open = array("i")  # open spans per name id, to count nested calls once
        self.kernels = list(KERNELS)
        self.kernel_calls = [0] * len(self.kernels)
        self.kernel_s = [0.0] * len(self.kernels)
        self._kernel_total = 0
        self._in_kernel = False
        # (enclosing name id or -1, kernel index) -> [calls, seconds], exclusive
        self.by_span: dict[tuple[int, int], list] = {}
        # (name id, kernel index) -> calls made anywhere under the outermost span of that name
        self.inclusive: dict[tuple[int, int], int] = {}
        self.superop_bytes = 0
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def span(self, fn, name: str, on_return=None):
        nid = self.name_id(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.span_name)
            rec.span_name.append(nid)
            rec.span_parent.append(rec._stack[-1][0] if rec._stack else -1)
            rec.span_end.append(0.0)
            rec._stack.append((idx, nid, rec._kernel_total))
            rec._open[nid] += 1
            snapshot = list(rec.kernel_calls) if rec._open[nid] == 1 else None
            rec.span_start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.span_end[idx] = time.perf_counter()
                _, _, total0 = rec._stack.pop()
                rec._open[nid] -= 1
                if snapshot is not None and rec._kernel_total != total0:
                    for k, before in enumerate(snapshot):
                        if rec.kernel_calls[k] != before:
                            key = (nid, k)
                            rec.inclusive[key] = rec.inclusive.get(key, 0) + rec.kernel_calls[k] - before
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def kernel(self, fn, k: int):
        rec = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if rec._in_kernel:  # a kernel calling another counts once
                return fn(*args, **kwargs)
            rec._in_kernel = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                rec._in_kernel = False
                rec.kernel_calls[k] += 1
                rec.kernel_s[k] += dt
                rec._kernel_total += 1
                key = (rec._stack[-1][1] if rec._stack else -1, k)
                slot = rec.by_span.get(key)
                if slot is None:
                    rec.by_span[key] = [1, dt]
                else:
                    slot[0] += 1
                    slot[1] += dt

        return counted

    def _add_superop(self, gen) -> None:
        self.superop_bytes += 16 * gen.dim ** 4

    # ----------------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def per_name(self) -> dict[str, dict]:
        """calls, inclusive seconds, self seconds and inclusive durations per span name."""
        a = self.arrays()
        n = len(a["name"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_s = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child_s
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_s[mask].sum()),
                "durations": dur[mask],
            }
        return out

    def ancestors_named(self, name: str, prefix: str = "") -> list[str]:
        """For each span of ``name``, its nearest ancestor whose name starts with
        ``prefix`` (by default its parent); '' when there is none."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        out = []
        for idx in np.flatnonzero(np.frombuffer(self.span_name, dtype=np.int32) == nid):
            p = self.span_parent[idx]
            while p >= 0 and not self.names[self.span_name[p]].startswith(prefix):
                p = self.span_parent[p]
            out.append(self.names[self.span_name[p]] if p >= 0 else "")
        return out

    def inclusive_calls(self, name: str, kernels: tuple[str, ...]) -> int:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return sum(self.inclusive.get((nid, self.kernels.index(k)), 0) for k in kernels)

    def kernels_by_span(self) -> dict[str, dict[str, dict]]:
        out: dict[str, dict[str, dict]] = {}
        for (nid, k), (calls, secs) in sorted(self.by_span.items()):
            span = self.names[nid] if nid >= 0 else "<outside>"
            out.setdefault(span, {})[self.kernels[k]] = {"calls": calls, "s": secs}
        return out


def _rebind(orig, wrapper) -> int:
    """Replace every binding of ``orig`` in cohentropy modules; return how many."""
    count = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "cohentropy" or modname.startswith("cohentropy.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                count += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is orig:
                        value[key] = wrapper
                        count += 1
    return count


def instrument(rec: Recorder) -> None:
    """Wrap the layer functions and linalg kernels of the imported cohentropy."""
    for module in list(LAYERS) + ["acceptance"]:
        importlib.import_module(f"cohentropy.{module}")
    for module, funcs in LAYERS.items():
        mod = sys.modules[f"cohentropy.{module}"]
        for func in funcs:
            name = f"{module}.{func}"
            if func == "DensityMatrix":
                cls = getattr(mod, "DensityMatrix", None)
                post = getattr(cls, "__post_init__", None)
                if post is None:
                    rec.missing.append(name)
                    continue
                cls.__post_init__ = rec.span(post, name)
                continue
            orig = getattr(mod, func, None)
            if orig is None:
                rec.missing.append(name)
                continue
            hook = rec._add_superop if name in GENERATOR_BUILDERS else None
            _rebind(orig, rec.span(orig, name, hook))
    acc = sys.modules["cohentropy.acceptance"]
    for k in CRITERIA:
        orig = getattr(acc, f"criterion_{k}", None)
        if orig is None:
            rec.missing.append(f"acceptance.criterion_{k}")
            continue
        _rebind(orig, rec.span(orig, f"acceptance.criterion_{k}"))
    for k, (modname, attr) in enumerate(KERNELS.values()):
        mod = importlib.import_module(modname)
        setattr(mod, attr, rec.kernel(getattr(mod, attr), k))
