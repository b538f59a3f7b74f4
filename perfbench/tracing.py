"""Spans around the program's layers, recorded from outside the program.

:class:`Tracer` replaces each function and method of the per-layer table
with a wrapper that records a span (name, start, end, parent) while a
command is running, and restores the originals when it is closed.  A
function that other modules import by name (``train_svi`` in ``cli``,
``stream_rng`` in ``baselines``) is replaced in every ``flowcond`` module
that holds it.  Spans stay in memory; :meth:`Tracer.write` saves them when
the run ends and :func:`layer_metrics` reduces them to the per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import statistics
import sys
import time
import tracemalloc
import weakref

# (module, function) -> span name
FUNCTIONS = {
    ("diffengine", "backward"): "diffengine.backward",
    ("objective", "svi_loss_nodes"): "objective.svi_loss_nodes",
    ("training", "clip_gradients"): "training.grad_clip",
    ("training", "stream_rng"): "training.stream_rng",
    ("training", "train_svi"): "training.train_svi",
    ("training", "train_base_mle"): "training.train_base_mle",
    ("training", "train_amortized"): "training.train_amortized",
    ("baselines", "lmc_sample"): "baselines.lmc_sample",
    ("baselines", "save_chain"): "baselines.save_chain",
    ("estimators", "pixel_marginal"): "estimators.pixel_marginal",
    ("estimators", "diversity"): "estimators.diversity",
    ("estimators", "mse_decomposition"): "estimators.mse_decomposition",
    ("persist", "save_checkpoint"): "persist.checkpoint",
    ("persist", "load_checkpoint"): "persist.checkpoint",
    ("persist", "save_array"): "persist.array",
    ("persist", "load_array"): "persist.array",
    ("persist", "load_run_config"): "persist.run_files",
    ("persist", "write_manifest"): "persist.run_files",
    ("persist", "synth_dataset"): "persist.dataset",
    ("persist", "make_blob_images"): "persist.dataset",
    ("satgadget", "compile_gadget"): "satgadget.compile",
    ("satgadget", "conditional_sat_demo"): "satgadget.demo",
}

# (module, class, method) -> span name; None means named per call
METHODS = {
    ("flows", "Mlp", "forward_node"): "flows.mlp",
    ("flows", "CouplingLayer", "forward_node"): "flows.coupling",
    ("flows", "CouplingLayer", "inverse_node"): "flows.coupling",
    ("flows", "Permutation", "forward_node"): "flows.permutation",
    ("flows", "Permutation", "inverse_node"): "flows.permutation",
    ("flows", "FlowModel", "forward_node"): None,
    ("flows", "FlowModel", "inverse_node"): None,
    ("flows", "ComposedSampler", "sample"): "flows.sample",
    ("flows", "ParamBinder", "gradients"): "training.grad_clip",
    ("measurement", "MaskOp", "apply_node"): "measurement.apply_node",
    ("measurement", "_MatrixOp", "apply_node"): "measurement.apply_node",
    ("training", "AdamState", "update"): "training.adam",
    ("satgadget", "SatGadget", "eval"): "satgadget.eval",
    ("satgadget", "CnfFormula", "satisfying_corners"): "satgadget.satisfying_corners",
}

LOOPS = {"training.train_svi": "svi", "training.train_base_mle": "mle",
         "training.train_amortized": "avi", "baselines.lmc_sample": "lmc"}

# sample-set draws (not zero-shot draws) are at least this large
SAMPLE_SET_MIN = 1000


class Tracer:
    """Records spans while a command runs; a no-op outside commands."""

    def __init__(self):
        # per span: name, start, end, parent, loop span, step, extra
        self.name, self.t0, self.t1 = [], [], []
        self.parent, self.loop, self.step, self.extra = [], [], [], []
        self._stack: list[int] = []
        self._loops: list[list[int]] = []      # [span index, steps so far]
        self._restore = []
        self._pregens = weakref.WeakSet()
        self.measure_memory = False

    # -- spans -------------------------------------------------------------

    def _open(self, name, extra=None) -> int:
        i = len(self.name)
        self.name.append(name)
        self.t0.append(time.process_time())
        self.t1.append(None)
        self.parent.append(self._stack[-1] if self._stack else -1)
        if self._loops:
            self.loop.append(self._loops[-1][0])
            self.step.append(self._loops[-1][1])
        else:
            self.loop.append(-1)
            self.step.append(-1)
        self.extra.append(extra)
        self._stack.append(i)
        return i

    def _close(self, i):
        self.t1[i] = time.process_time()
        self._stack.pop()

    @contextlib.contextmanager
    def command(self, name):
        """The root span of one CLI command."""
        i = self._open("cli." + name)
        try:
            yield
        finally:
            self._close(i)

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            span = name or tracer._flow_span(fn.__name__, args[0])
            extra = tracer._before(span, args)
            i = tracer._open(span, extra)
            loop = span in LOOPS
            if loop:
                tracer._loops.append([i, 0])
            elif span == "diffengine.backward" and tracer._loops:
                tracer._loops[-1][1] += 1
            mem = span == "flows.sample" and tracer.measure_memory \
                and extra >= SAMPLE_SET_MIN
            if mem:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if mem:
                    tracer.extra[i] = (extra, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer._close(i)
                if loop:
                    tracer._loops.pop()

        return traced

    def _flow_span(self, method, model):
        role = "pregen" if model in self._pregens else "base"
        return f"flows.{role}_{method.split('_')[0]}"

    def _before(self, span, args):
        if span == "objective.svi_loss_nodes":
            self._pregens.add(args[1].pre)
        elif span == "flows.sample":
            self._pregens.add(args[0].pre)
            return int(args[1])
        elif span == "diffengine.backward":
            return len(args[0].nodes)
        return None

    def _lock_wrapper(self, fn):
        tracer = self

        @contextlib.contextmanager
        def traced(*args, **kwargs):
            cm = fn(*args, **kwargs)
            if not tracer._stack:
                with cm as out:
                    yield out
                return
            i = tracer._open("persist.run_files")
            try:
                out = cm.__enter__()
            finally:
                tracer._close(i)
            try:
                yield out
            except BaseException:
                i = tracer._open("persist.run_files")
                try:
                    if not cm.__exit__(*sys.exc_info()):
                        raise
                finally:
                    tracer._close(i)
            else:
                i = tracer._open("persist.run_files")
                try:
                    cm.__exit__(None, None, None)
                finally:
                    tracer._close(i)

        return traced

    def install(self):
        import flowcond
        from flowcond import (baselines, cli, diffengine, estimators, flows,
                              measurement, objective, persist, satgadget,
                              training)
        mods = {m.__name__.split(".")[-1]: m for m in
                (baselines, cli, diffengine, estimators, flows, measurement,
                 objective, persist, satgadget, training, flowcond)}
        patches = {(mod, attr): self._wrapper(getattr(mods[mod], attr), name)
                   for (mod, attr), name in FUNCTIONS.items()}
        lock = persist.output_lock
        patches[("persist", "output_lock")] = self._lock_wrapper(lock)
        for (mod, attr), wrapper in patches.items():
            original = getattr(mods[mod], attr)
            for holder in mods.values():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)
        for (mod, cls, attr), name in METHODS.items():
            klass = getattr(mods[mod], cls)
            original = klass.__dict__[attr]
            self._restore.append((klass, attr, original))
            setattr(klass, attr, self._wrapper(original, name))

    def uninstall(self):
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def write(self, path):
        """All spans as gzipped CSV: index, name, start and end in CPU seconds,
        parent index, enclosing loop span, step within it, extra."""
        with gzip.open(path, "wt", encoding="ascii") as f:
            f.write("index,name,start_s,end_s,parent,loop,step,extra\n")
            for i, row in enumerate(zip(self.name, self.t0, self.t1,
                                        self.parent, self.loop, self.step,
                                        self.extra)):
                extra = "" if row[6] is None else str(row[6]).replace(",", ";")
                f.write(f"{i},{row[0]},{row[1]!r},{row[2]!r},{row[3]},"
                        f"{row[4]},{row[5]},{extra}\n")


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

COMMANDS = ("train-base", "infer", "lmc", "amortize", "amortized-infer",
            "eval", "sat-demo")


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    Per-step values are medians over the SVI steps of ``infer`` unless the
    name says MLE or LMC; per-call values are medians over calls; per-
    command values sum a layer's spans in each command and take the median
    over the commands that reach the layer.
    """
    n = len(tr.name)
    dur = [tr.t1[i] - tr.t0[i] for i in range(n)]
    self_t = list(dur)
    root = [0] * n
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            self_t[p] -= dur[i]
            root[i] = root[p]
        else:
            root[i] = i
    kind = {i: LOOPS[tr.name[i]] for i in range(n) if tr.name[i] in LOOPS}
    steps = {i: 0 for i in kind}
    for i in range(n):
        if tr.name[i] == "diffengine.backward" and tr.loop[i] >= 0:
            steps[tr.loop[i]] += 1

    def ms(values):
        return 1e3 * statistics.median(values)

    def per_step(names, loop_kind, times):
        groups = {}
        for i in range(n):
            if tr.name[i] in names and kind.get(tr.loop[i]) == loop_kind:
                key = (tr.loop[i], tr.step[i])
                groups[key] = groups.get(key, 0.0) + times[i]
        return ms(list(groups.values()))

    def per_call(name):
        return ms([dur[i] for i in range(n) if tr.name[i] == name])

    def per_command(names, times=dur):
        sums = {}
        for i in range(n):
            if tr.name[i] in names:
                sums[root[i]] = sums.get(root[i], 0.0) + times[i]
        return ms(list(sums.values()))

    def nodes(loop_kind):
        return statistics.median(
            tr.extra[i] for i in range(n) if tr.name[i] == "diffengine.backward"
            and kind.get(tr.loop[i]) == loop_kind)

    draws = [(i, tr.extra[i]) for i in range(n) if tr.name[i] == "flows.sample"]
    svi_loops = [i for i, k in kind.items() if k == "svi"]
    lmc_loops = [i for i, k in kind.items() if k == "lmc"]
    lmc_children = {i: 0.0 for i in lmc_loops}
    for i in range(n):
        if tr.parent[i] in lmc_children and tr.name[i] in (
                "flows.base_forward", "diffengine.backward",
                "training.stream_rng"):
            lmc_children[tr.parent[i]] += dur[i]
    commands = [i for i in range(n) if tr.parent[i] < 0]

    m = {
        "diffengine.backward_ms": (per_step({"diffengine.backward"}, "svi", self_t), "ms/step"),
        "diffengine.nodes_per_svi_step": (nodes("svi"), "count"),
        "diffengine.nodes_per_mle_step": (nodes("mle"), "count"),
        "diffengine.nodes_per_lmc_step": (nodes("lmc"), "count"),
        "flows.mlp_ms": (per_step({"flows.mlp"}, "svi", self_t), "ms/step"),
        "flows.coupling_ms": (per_step({"flows.coupling"}, "svi", self_t), "ms/step"),
        "flows.permutation_ms": (per_step({"flows.permutation"}, "svi", dur), "ms/step"),
        "flows.pregen_forward_ms": (per_step({"flows.pregen_forward"}, "svi", dur), "ms/step"),
        "flows.base_forward_ms": (per_step({"flows.base_forward"}, "svi", dur), "ms/step"),
        "flows.base_inverse_ms": (per_step({"flows.base_inverse"}, "mle", dur), "ms/step"),
        "flows.sample_ms_per_1k": (ms([dur[i] / (x / 1000) for i, x in draws
                                       if isinstance(x, int)
                                       and x >= SAMPLE_SET_MIN]), "ms"),
        "flows.sample_peak_mb": (statistics.median(
            x[1] / 2 ** 20 for _, x in draws if isinstance(x, tuple)), "MB"),
        "objective.loss_self_ms": (per_step({"objective.svi_loss_nodes"}, "svi", self_t), "ms/step"),
        "measurement.apply_node_ms": (per_step({"measurement.apply_node"}, "svi", dur), "ms/step"),
        "training.adam_ms": (per_step({"training.adam"}, "svi", dur), "ms/step"),
        "training.grad_clip_ms": (per_step({"training.grad_clip"}, "svi", dur), "ms/step"),
        "training.stream_rng_ms": (per_call("training.stream_rng"), "ms/call"),
        "training.step_self_ms": (ms([self_t[i] / steps[i] for i in svi_loops]), "ms/step"),
        "baselines.lmc_step_ms": (ms([dur[i] / steps[i] for i in lmc_loops]), "ms/step"),
        "baselines.lmc_self_ms": (ms([(dur[i] - lmc_children[i]) / steps[i]
                                      for i in lmc_loops]), "ms/step"),
        "baselines.save_chain_ms": (per_call("baselines.save_chain"), "ms/call"),
        "estimators.pixel_marginal_ms": (per_call("estimators.pixel_marginal"), "ms/call"),
        "estimators.diversity_ms": (per_call("estimators.diversity"), "ms/call"),
        "estimators.mse_decomposition_ms": (per_call("estimators.mse_decomposition"), "ms/call"),
        "persist.checkpoint_ms": (per_command({"persist.checkpoint"}), "ms/command"),
        "persist.array_ms": (per_command({"persist.array"}), "ms/command"),
        "persist.run_files_ms": (per_command({"persist.run_files"}), "ms/command"),
        "persist.dataset_ms": (per_command({"persist.dataset"}), "ms/command"),
        "cli.self_ms": (ms([self_t[i] for i in commands]), "ms/command"),
        "satgadget.compile_ms": (per_command({"satgadget.compile"}), "ms/formula"),
        "satgadget.eval_ms": (per_command({"satgadget.eval"}), "ms/formula"),
        "satgadget.satisfying_corners_ms": (
            per_command({"satgadget.satisfying_corners"}), "ms/formula"),
        "satgadget.demo_self_ms": (per_command({"satgadget.demo"}, self_t), "ms/formula"),
    }
    for cmd in COMMANDS:
        key = "cli.self_" + cmd.replace("-", "_") + "_ms"
        m[key] = (ms([self_t[i] for i in commands if tr.name[i] == "cli." + cmd]),
                  "ms/command")
    return m
