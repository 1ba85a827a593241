"""Outside-in span tracing of qugray's layers.

The traced run replaces each layer's public entry point, at the name its
callers look it up by, with a wrapper that records a span: name, start, end,
parent span and run id. Spans stay in memory and are written out when the
benchmark ends. Nothing inside the program is modified; `Tracer.uninstall`
restores every original attribute.

Layer metrics derive from the spans of the traced passes:
- busy time: summed span durations;
- self time: a span's duration minus the durations of its direct children;
- counts recorded at the same boundaries (step exponentials, realizations,
  bytes written, optimizer iterations).
"""

import json
import os
import time

from qugray import cli, config, control, dynamics, graybox, interpret, \
    noisegen, pulses

LAYERS = ("kernels", "noisegen", "pulses", "dynamics", "graybox", "control",
          "interpret", "config", "cli")
CLI_COMMANDS = ("gen-dataset", "train", "optimize", "landscape", "expand",
                "psd-check")


def _step_exps(args, kwargs, result):
    noise_diags = args[3]  # (K, M, d)
    return noise_diags.shape[0] * noise_diags.shape[1]


def _channel_realizations(args, kwargs, result):
    return result.samples.shape[0] * result.samples.shape[1]


def _dataset_bytes(args, kwargs, result):
    path = args[0]
    return os.path.getsize(path) + \
        os.path.getsize(dynamics.manifest_path(path))


def _iterations(args, kwargs, result):
    # iterations of the winning restart; the benchmark runs one restart
    return result.iterations


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}"


# (owner, attribute, span name, counter). The owner is where callers look
# the function up: `dynamics` imports the kernels by name, `cli` and
# `interpret` call through module attributes, and graybox methods resolve on
# the class.
TARGETS = (
    (dynamics, "propagate_piecewise_batch", "kernels.batch", _step_exps),
    (dynamics, "propagate_piecewise", "kernels.closed", None),
    (noisegen, "synthesize", "noisegen.synthesize", _channel_realizations),
    (noisegen, "empirical_psd", "noisegen.empirical_psd", None),
    (pulses, "waveform", "pulses.waveform", None),
    (dynamics, "generate_dataset", "dynamics.generate_dataset", None),
    (dynamics, "expectations_from_propagators", "dynamics.expectations",
     None),
    (dynamics, "save_dataset", "dynamics.save_dataset", _dataset_bytes),
    (dynamics, "load_dataset", "dynamics.load_dataset", None),
    (graybox.GrayboxModel, "precompute_states", "graybox.precompute_states",
     None),
    (graybox.GrayboxModel, "loss_and_grad", "graybox.loss_and_grad", None),
    (graybox.GrayboxModel, "loss", "graybox.loss", None),
    (graybox.GrayboxModel, "train", "graybox.train", None),
    (graybox.GrayboxModel, "expectations", "graybox.expectations", None),
    (graybox.GrayboxModel, "noise_operators", "graybox.noise_operators",
     None),
    (control, "optimize_gate", "control.optimize_gate", _iterations),
    (control, "evaluate_fidelity", "control.evaluate_fidelity", None),
    (interpret, "scan_epsilon", "interpret.scan_epsilon", None),
    (interpret, "gate_overlap_infidelity", "interpret.gate_overlap_infidelity",
     None),
    (interpret, "fit_taylor", "interpret.fit_taylor", None),
    (interpret, "landscape", "interpret.landscape", None),
    (config, "load_config", "config.load_config", None),
    (cli, "main", _cli_name, None),
)


class Tracer:
    """Span recorder. Spans are [name, start, end, parent, run_id, count]
    lists; parent is an index into `spans` or -1."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []
        self._saved = []

    def install(self):
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [span_name, 0.0, 0.0, parent, tracer.run_id, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run_id, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": run_id,
                                     "count": count}) + "\n")


def _has_ancestor(spans, index, prefix):
    """Whether an enclosing span's name starts with `prefix`."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def summarize(spans, run_ids):
    """Per-name totals over the spans of `run_ids`, divided by their count so
    every figure is per pass. Returns (stats, layers, covered, cost_evals)
    where stats[name] = {calls, busy, self, count}, layers[layer] =
    {self, busy} with busy the time under the layer's outermost spans,
    covered is the time under top-level spans and cost_evals counts model
    evaluations made inside `optimize_gate`."""
    runs = set(run_ids)
    n = len(runs)
    stats = {}
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[4] in runs and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    covered = 0.0
    evals_in_optimize = 0
    layers = {layer: {"self": 0.0, "busy": 0.0} for layer in LAYERS}
    for i, (name, start, end, parent, run_id, count) in enumerate(spans):
        if run_id not in runs:
            continue
        entry = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0,
                                        "count": 0})
        entry["calls"] += 1
        entry["busy"] += end - start
        entry["self"] += (end - start) - child_time[i]
        entry["count"] += count or 0
        if parent < 0:
            covered += end - start
        layer = name.split(".", 1)[0]
        layers[layer]["self"] += (end - start) - child_time[i]
        if not _has_ancestor(spans, i, layer + "."):
            layers[layer]["busy"] += end - start
        if name == "graybox.expectations" and \
                _has_ancestor(spans, i, "control.optimize_gate"):
            evals_in_optimize += 1
    for entry in list(stats.values()) + list(layers.values()):
        for key in entry:
            entry[key] /= n
    return stats, layers, covered / n, evals_in_optimize / n


def layer_metrics(stats, layers, evals, unattributed_s, overhead_pct):
    """The per-layer metric set, name -> (value, unit)."""
    def get(name):
        return stats.get(name, {"calls": 0, "busy": 0.0, "self": 0.0,
                                "count": 0})

    def ratio(num, den, scale):
        return scale * num / den if den else 0.0

    batch = get("kernels.batch")
    closed = get("kernels.closed")
    lag = get("graybox.loss_and_grad")
    iters = get("control.optimize_gate")["count"]
    m = {
        "kernels.batch.calls": (batch["calls"], "count"),
        "kernels.batch.busy_s": (batch["busy"], "s"),
        "kernels.batch.step_exps": (batch["count"], "count"),
        "kernels.batch.ns_per_step_exp":
            (ratio(batch["busy"], batch["count"], 1e9), "ns"),
        "kernels.closed.calls": (closed["calls"], "count"),
        "kernels.closed.busy_s": (closed["busy"], "s"),
        "kernels.closed.us_per_call":
            (ratio(closed["busy"], closed["calls"], 1e6), "us"),
        "noisegen.synthesize.busy_s":
            (get("noisegen.synthesize")["busy"], "s"),
        "noisegen.synthesize.realizations":
            (get("noisegen.synthesize")["count"], "count"),
        "noisegen.empirical_psd.busy_s":
            (get("noisegen.empirical_psd")["busy"], "s"),
        "pulses.waveform.calls": (get("pulses.waveform")["calls"], "count"),
        "pulses.waveform.busy_s": (get("pulses.waveform")["busy"], "s"),
        "dynamics.generate_dataset.busy_s":
            (get("dynamics.generate_dataset")["busy"], "s"),
        "dynamics.generate_dataset.self_s":
            (get("dynamics.generate_dataset")["self"], "s"),
        "dynamics.expectations.busy_s":
            (get("dynamics.expectations")["busy"], "s"),
        "dynamics.save_dataset.busy_s":
            (get("dynamics.save_dataset")["busy"], "s"),
        "dynamics.save_dataset.bytes":
            (get("dynamics.save_dataset")["count"], "bytes"),
        "dynamics.load_dataset.busy_s":
            (get("dynamics.load_dataset")["busy"], "s"),
        "graybox.precompute_states.busy_s":
            (get("graybox.precompute_states")["busy"], "s"),
        "graybox.loss_and_grad.calls": (lag["calls"], "count"),
        "graybox.loss_and_grad.busy_s": (lag["busy"], "s"),
        "graybox.loss_and_grad.ms_per_call":
            (ratio(lag["busy"], lag["calls"], 1e3), "ms"),
        "graybox.loss.busy_s": (get("graybox.loss")["busy"], "s"),
        "graybox.train.self_s": (get("graybox.train")["self"], "s"),
        "graybox.expectations.calls":
            (get("graybox.expectations")["calls"], "count"),
        "graybox.expectations.busy_s":
            (get("graybox.expectations")["busy"], "s"),
        "graybox.noise_operators.busy_s":
            (get("graybox.noise_operators")["busy"], "s"),
        "control.optimize_gate.busy_s":
            (get("control.optimize_gate")["busy"], "s"),
        "control.cost_evals": (evals, "count"),
        "control.iterations": (iters, "count"),
        "control.cost_evals_per_iter": (ratio(evals, iters, 1.0), "count"),
        "control.evaluate_fidelity.calls":
            (get("control.evaluate_fidelity")["calls"], "count"),
        "control.evaluate_fidelity.busy_s":
            (get("control.evaluate_fidelity")["busy"], "s"),
        "interpret.scan_epsilon.busy_s":
            (get("interpret.scan_epsilon")["busy"], "s"),
        "interpret.gate_overlap_infidelity.calls":
            (get("interpret.gate_overlap_infidelity")["calls"], "count"),
        "interpret.gate_overlap_infidelity.busy_s":
            (get("interpret.gate_overlap_infidelity")["busy"], "s"),
        "interpret.fit_taylor.busy_s":
            (get("interpret.fit_taylor")["busy"], "s"),
        "interpret.landscape.self_s":
            (get("interpret.landscape")["self"], "s"),
        "config.load_config.busy_s": (get("config.load_config")["busy"], "s"),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.busy_s"] = (get(f"cli.{command}")["busy"], "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (layers[layer]["self"], "s")
        m[f"layer.{layer}.busy_s"] = (layers[layer]["busy"], "s")
    m["trace.unattributed_s"] = (unattributed_s, "s")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
