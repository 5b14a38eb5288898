"""Benchmark-side span tracing of the lifshitzlab modules.

`Tracer.install` replaces each traced public function by a wrapper in every
`lifshitzlab` module namespace that binds it (so `expansion.green_free` is
wrapped as well as `green.green_free`), and `uninstall` puts the originals
back.  A wrapper records one span (name, start, end, parent) in memory and,
for a few functions, a work count computed from its arguments or result.
Self time is a span's duration minus the time its child spans cover.

Functions that are cheap and called very often (`diagrams.subgraph_counts`
runs about 87k times per n <= 4 census) are deliberately not traced: the
wrapper would cost more than the call.
"""

import functools
import inspect
import sys
import time
from collections import Counter

# (module, function) pairs that get a span; RunManifest.write is a method.
TRACED = (
    ("selfenergy", "solve_self_energy"),
    ("selfenergy", "torus_integral_I1"),
    ("selfenergy", "torus_integral_I2"),
    ("green", "green_free"),
    ("green", "green_table_bessel"),
    ("green", "green_free_fft"),
    ("green", "check_asymptotics"),
    ("green", "write_table_csv"),
    ("anderson", "resolvent_column"),
    ("anderson", "build_hamiltonian"),
    ("anderson", "sample_potential"),
    ("anderson", "fractional_moment"),
    ("anderson", "finite_volume_criterion"),
    ("expansion", "mc_moment_Al_squared"),
    ("expansion", "diagram_moment"),
    ("expansion", "evaluate_decomposition"),
    ("expansion", "check_decay_envelope"),
    ("diagrams", "enumerate_partitions"),
    ("diagrams", "build_feynman_graph"),
    ("diagrams", "classify_superficial_convergence"),
    ("diagrams", "spanning_tree_decomposition"),
    ("graphvalues", "graph_value"),
    ("graphvalues", "torus_pairing_integral"),
    ("graphvalues", "continuum_pairing_integral"),
    ("graphvalues", "stopping_rule_holds_exact"),
)

# CLI commands the workloads run; each gets its own `cli.main.<command>` span.
CLI_COMMANDS = ("selfenergy", "green", "criterion", "diagrams", "diagram-value",
                "expand-verify")


def _fft_bytes(args, out):
    # real spectrum m*m*(m/2+1) plus the m^3 real table, float64
    m = args["grid_size"]
    return 8 * (m * m * (m // 2 + 1) + m**3)


def _gmat_bytes(args, out):
    # order 2 materialises int64 diffs (n, n, 3) and float64 gmat (n, n)
    if args["order"] != 2:
        return 0
    n = (2 * args["box_radius"] + 1) ** 3
    return 32 * n * n


# counter name -> (traced function, count from bound arguments and result)
COUNTERS = {
    "green.green_free_fft.bytes_computed": ("green.green_free_fft", _fft_bytes),
    "anderson.resolvent_column.n_sites":
        ("anderson.resolvent_column", lambda a, out: a["hamiltonian"].shape[0]),
    "expansion.gmat_bytes_computed": ("expansion.mc_moment_Al_squared", _gmat_bytes),
    "diagrams.records":
        ("diagrams.classify_superficial_convergence", lambda a, out: len(out.records)),
}


def per_layer_names():
    """Every metric `Tracer.layer_metrics` reports, with its unit."""
    names = {}
    for mod, fn in TRACED:
        names[f"{mod}.{fn}.calls"] = "count"
        names[f"{mod}.{fn}.self_s"] = "s"
    for cmd in CLI_COMMANDS:
        names[f"cli.main.{cmd}.calls"] = "count"
        names[f"cli.main.{cmd}.self_s"] = "s"
    names["cli.RunManifest.write.calls"] = "count"
    names["cli.RunManifest.write.self_s"] = "s"
    for counter in COUNTERS:
        names[counter] = "B" if counter.endswith("bytes_computed") else "count"
    names["anderson.criterion_splu_fallbacks"] = "count"
    return names


class Tracer:
    """In-memory spans and work counts of one traced pass."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patched = []   # (namespace, attribute, original)

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn, counter=None, span_name=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(span_name(args) if span_name else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                cname, count = counter
                self.counts[cname] += count(bound.arguments, out)
            return out

        return wrapper

    def _patch(self, namespace, attr, wrapper):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def install(self):
        """Wrap every traced function in every lifshitzlab namespace binding it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "lifshitzlab"
                                         or name.startswith("lifshitzlab."))]
        counters = {fn: (cname, count) for cname, (fn, count) in COUNTERS.items()}
        for mod, fn in TRACED:
            original = getattr(sys.modules[f"lifshitzlab.{mod}"], fn)
            name = f"{mod}.{fn}"
            wrapper = self._wrap(name, original, counters.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        cli = sys.modules["lifshitzlab.cli"]
        self._patch(cli, "main", self._wrap(
            "cli.main", cli.main, span_name=lambda args: f"cli.main.{args[0][0]}"))
        self._patch(cli.RunManifest, "write",
                    self._wrap("cli.RunManifest.write", cli.RunManifest.write))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def layer_metrics(self):
        """calls, self_s and work counts over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = Counter(), Counter()
        fallbacks = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            if (name == "anderson.resolvent_column" and parent >= 0
                    and self.spans[parent][0] == "anderson.finite_volume_criterion"):
                fallbacks += 1
        out = {}
        for metric in per_layer_names():
            if metric.endswith(".calls"):
                out[metric] = calls[metric[: -len(".calls")]]
            elif metric.endswith(".self_s"):
                out[metric] = self_s[metric[: -len(".self_s")]]
            elif metric in COUNTERS:
                out[metric] = self.counts[metric]
        out["anderson.criterion_splu_fallbacks"] = fallbacks
        return out
