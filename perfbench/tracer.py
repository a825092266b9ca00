"""Run-time spans around the public functions of each spindimer module.

``Tracer`` wraps every public module-level function defined in one of the
layer modules and installs the wrapper under every name that binds it, in
every loaded spindimer module (``from .quantum import hermitian_eig`` copies
the function into ``spin_chain`` and ``two_qubit``).  Nothing under ``src/``
is edited; ``uninstall`` puts the original functions back.

Each call records a span (name, start, end, parent span, op id) in flat
arrays kept in memory; ``write`` dumps them as CSV at the end of the run.
Eigensolver spans are named by matrix dimension
(``quantum.hermitian_eig.dim64``).  A few boundaries also add to per-op
counters: bytes parsed and rendered by ``io`` and LM iterations of
``fitting.fit``.
"""

import functools
import inspect
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("quantum", "spin_chain", "two_qubit", "dimer", "fitting", "io", "cli", "validate")

EIG = "quantum.hermitian_eig"
CLOSED_FORMS = tuple(f"dimer.{name}" for name in (
    "reduced_chi_dimer", "chi_dimer", "chi_monomer", "chi_total", "thermal_dimer_state",
    "concurrence_closed", "concurrence_from_chi", "bell_closed", "bell_from_chi"))
THRESHOLDS = ("dimer.thresholds", "dimer.bisect_root")
RENDER = ("io.render_dataset", "io.render_report", "io.write_dataset")
EIG_DIMS = (4, 8, 16, 32, 64)

# Per-layer metrics that sum span self time over the listed span names.
SELF_MS = {
    **{f"{EIG}.dim{d}.self_ms": (f"{EIG}.dim{d}",) for d in EIG_DIMS},
    "spin_chain.build_hamiltonian.self_ms": ("spin_chain.build_hamiltonian",),
    "quantum.partial_trace.self_ms": ("quantum.partial_trace",),
    **{f"two_qubit.{f}.self_ms": (f"two_qubit.{f}",)
       for f in ("concurrence", "check_state", "chsh_maximum", "bell_expectation")},
    **{f"spin_chain.{f}.self_ms": (f"spin_chain.{f}",)
       for f in ("fluctuation_susceptibility", "pair_concurrence", "thermal_state")},
    "fitting.fit.self_ms": ("fitting.fit",),
    "fitting.model_chi.self_ms": ("fitting.model_chi",),
    "fitting.synth_dataset.self_ms": ("fitting.synth_dataset",),
    "dimer.closed_forms.self_ms": CLOSED_FORMS,
    "dimer.thresholds.self_ms": THRESHOLDS,
    "io.parse_dataset.self_ms": ("io.parse_dataset",),
    "io.render.self_ms": RENDER,
    "io.file_sha256.self_ms": ("io.file_sha256",),
    "cli.build_parser.self_ms": ("cli.build_parser",),
    **{f"cli.{f}.self_ms": (f"cli.{f}",) for f in ("run_synth", "run_fit", "run_analyze")},
    **{f"validate.{f}.self_ms": (f"validate.{f}",)
       for f in ("run_equivalence_suite", "run_decoupling_suite", "jprime_sweep")},
}
# Per-layer metrics that count spans (besides quantum.hermitian_eig.calls,
# which counts eigensolver spans of every dimension).
CALLS = {
    "two_qubit.concurrence.calls": ("two_qubit.concurrence",),
    "dimer.closed_forms.calls": CLOSED_FORMS,
}
COUNTERS = ("io.parse_dataset.bytes", "io.render.bytes", "fitting.fit.iterations")


def _eig_name(args, kwargs):
    matrix = args[0] if args else kwargs["a"]
    return f"{EIG}.dim{np.shape(matrix)[0]}"


def _parse_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("io.parse_dataset.bytes", os.path.getsize(path))


def _render_bytes(tracer, args, kwargs, result):
    tracer.count("io.render.bytes", len(result.encode("utf-8")))


def _fit_iterations(tracer, args, kwargs, result):
    tracer.count("fitting.fit.iterations", result.iterations)


def unit(metric):
    """Unit of a per-layer metric named by ``per_op_metrics``."""
    if metric.endswith("ms") or metric.endswith("ms_per_iteration"):
        return "ms"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_ratio") or metric.endswith("_per_query"):
        return "ratio"
    return "count"


NAMERS = {EIG: _eig_name}
HOOKS = {
    "io.parse_dataset": _parse_bytes,
    "io.render_dataset": _render_bytes,
    "io.render_report": _render_bytes,
    "fitting.fit": _fit_iterations,
}


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self, package):
        self.op_id = -1
        self.names = []
        self._name_ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._counters = defaultdict(float)
        self._patches = self._patches_for(package)

    def _patches_for(self, package):
        prefix = package.__name__
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == prefix or key.startswith(prefix + "."))]
        layer_of = {f"{prefix}.{layer}": layer for layer in LAYERS}
        wrappers = {}
        patches = []
        for module in modules:
            for attr in dir(module):
                if attr.startswith("_"):
                    continue
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn) and fn.__module__ in layer_of
                        and not fn.__name__.startswith("_")):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, f"{layer_of[fn.__module__]}.{fn.__name__}")
                patches.append((module, attr, fn, wrappers[fn]))
        return patches

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name):
        namer = NAMERS.get(name)
        hook = HOOKS.get(name)
        fixed_id = self._id(name)
        name_ids, parents, ops = self._name, self._parent, self._op
        starts, ends, stack = self._start, self._end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(self._id(namer(args, kwargs)) if namer else fixed_id)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if hook:
                hook(self, args, kwargs, result)
            return result

        return traced

    def count(self, key, value):
        self._counters[(self.op_id, key)] += value

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    @property
    def n_spans(self):
        return len(self._start)

    def per_op_metrics(self, op_ids):
        """Per-layer metrics of each op in ``op_ids``: {metric: [value per op]}."""
        n = len(self._start)
        start = np.frombuffer(self._start, dtype=np.float64, count=n)
        duration = np.frombuffer(self._end, dtype=np.float64, count=n) - start
        parent = np.frombuffer(self._parent, dtype=np.int32, count=n)
        name = np.frombuffer(self._name, dtype=np.int32, count=n)
        op = np.frombuffer(self._op, dtype=np.int32, count=n)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        self_ms = (duration - children) * 1e3

        n_names = len(self.names)
        row = {op_id: k for k, op_id in enumerate(op_ids)}
        op_row = np.array([row.get(int(o), -1) for o in range(op.max(initial=-1) + 1)] + [-1])
        rows = op_row[op]  # op -1 (outside any op) maps to the trailing -1
        keep = rows >= 0
        cell = rows[keep] * n_names + name[keep]
        shape = (len(op_ids), n_names)
        size = shape[0] * n_names
        self_by = np.bincount(cell, weights=self_ms[keep], minlength=size).reshape(shape)
        calls_by = np.bincount(cell, minlength=size).reshape(shape)

        def ids(match):
            return [i for i, s in enumerate(self.names) if match(s)]

        eig_ids = ids(lambda s: s.startswith(EIG + ".dim"))
        metrics = {f"{EIG}.calls": calls_by[:, eig_ids].sum(axis=1)}
        for metric, names in SELF_MS.items():
            metrics[metric] = self_by[:, ids(names.__contains__)].sum(axis=1)
        for metric, names in CALLS.items():
            metrics[metric] = calls_by[:, ids(names.__contains__)].sum(axis=1)
        for layer in LAYERS:
            in_layer = ids(lambda s: s.startswith(layer + "."))
            metrics[f"{layer}.self_ms"] = self_by[:, in_layer].sum(axis=1)
        metrics["trace.spans"] = calls_by.sum(axis=1)
        for key in COUNTERS:
            metrics[key] = np.array([self._counters.get((o, key), 0.0) for o in op_ids])
        iterations = metrics["fitting.fit.iterations"]
        metrics["fitting.fit.ms_per_iteration"] = np.divide(
            metrics["fitting.fit.self_ms"], iterations,
            out=np.zeros(len(op_ids)), where=iterations > 0)

        # Cache use of the oracle: eigensolves issued directly under a
        # spin_chain span, per spin_chain query made from outside spin_chain
        # (the *_spec constructors build inputs and are not queries).
        in_chain = np.array([s.startswith("spin_chain.") for s in self.names] + [False])
        is_query = np.array([s.startswith("spin_chain.") and not s.endswith("_spec")
                             for s in self.names] + [False])
        parent_name = np.where(nested, name[np.where(nested, parent, 0)], n_names)
        eig_mask = np.isin(name, eig_ids) & in_chain[parent_name] & keep
        query_mask = is_query[name] & ~in_chain[parent_name] & keep
        solves = np.bincount(rows[eig_mask], minlength=len(op_ids))
        queries = np.bincount(rows[query_mask], minlength=len(op_ids))
        metrics["spin_chain.solves_per_query"] = np.divide(
            solves, queries, out=np.zeros(len(op_ids)), where=queries > 0)
        return {key: [float(v) for v in values] for key, values in metrics.items()}

    def write(self, path):
        """All spans as CSV: op, span, parent, name, start and end in microseconds
        from the first span."""
        origin = self._start[0] if self._start else 0.0
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op,span,parent,name,start_us,end_us\n")
            for k in range(len(self._start)):
                handle.write(f"{self._op[k]},{k},{self._parent[k]},{names[self._name[k]]},"
                             f"{(self._start[k] - origin) * 1e6:.3f},"
                             f"{(self._end[k] - origin) * 1e6:.3f}\n")
