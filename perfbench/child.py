"""Run one proxyssl CLI command in this process, with timers on its layers.

    python3 perfbench/child.py <phase|trace> <result.json> -- <proxyssl args...>

The import path must already reach the package (run.py sets PYTHONPATH to
the checkout's ``src``). ``phase`` wraps only parse_spec, load_csv,
run_grid and parse_log, which a command calls a handful of times: the
untraced measurement needs nothing more. ``trace`` wraps every function in ``LAYERS``:
each call is counted with its summed and self time and, where the layer
runs a kernel, the work computed from its argument shapes; the coarse ones
also record a span. Per-batch calls are counts only, never spans.

The result file holds the command's exit code, the time spent in
``cli.main``, the per-(layer, caller) statistics, the engine counters, the
completion times reported through run_grid's ``progress`` hook, and the
spans. The process exits with the command's exit code.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

RUN_LAYER = "engine.run"

# (layer name, module, function, records a span)
LAYERS = [
    ("cli.validate", "cli", "cmd_validate", True),
    ("cli.run", "cli", "cmd_run", True),
    ("cli.report", "cli", "cmd_report", True),
    ("cli.write_tables", "cli", "write_tables", True),
    ("specfile.parse_spec", "specfile", "parse_spec", True),
    ("dataset.load_csv", "dataset", "load_csv", True),
    ("dataset.make_semi_split", "dataset", "make_semi_split", False),
    ("protocol.run_grid", "protocol", "run_grid", True),
    ("protocol.format_log", "protocol", "format_log", True),
    ("protocol.parse_log", "protocol", "parse_log", True),
    ("protocol.tables_from_results", "protocol", "tables_from_results", True),
    ("stats.paired_t_test", "stats", "paired_t_test", False),
    (RUN_LAYER, "engine", "run_supervised", True),
    (RUN_LAYER, "engine", "run_algorithm", True),
    ("engine.select", "engine", "select_by_threshold", False),
    ("engine.select", "engine", "select_by_count", False),
    ("engine.select", "engine", "tri_training_batches", False),
    ("engine.majority_vote", "engine", "majority_vote", False),
    ("classifier.init_model", "classifier", "init_model", False),
    ("classifier.fit", "classifier", "fit", True),
    ("classifier.loss_and_grads", "classifier", "loss_and_grads", False),
    ("classifier.adam_step", "classifier", "adam_step", False),
    ("classifier.accuracy", "classifier", "accuracy", False),
    ("classifier.predict", "classifier", "predict", False),
    ("classifier.forward", "classifier", "forward", False),
]

PHASE_LAYERS = {"specfile.parse_spec", "dataset.load_csv", "protocol.run_grid",
                "protocol.parse_log"}


# --- kernel work computed from argument shapes (not measured) ---------------

def _gemm_flops(dims, rows, first_layer=0):
    """2*rows*fan_in*fan_out summed over the layers from ``first_layer``."""
    return sum(2 * rows * a * b for a, b in list(zip(dims[:-1], dims[1:]))[first_layer:])


def _forward_flops(model, x, *_):
    return _gemm_flops(model.layer_dims, len(x))


def _loss_and_grads_flops(model, x, *_):
    # forward, weight gradients, then delta back through every layer but the first
    rows = len(x)
    return 2 * _gemm_flops(model.layer_dims, rows) + _gemm_flops(model.layer_dims, rows, 1)


def _adam_bytes(model, *_):
    # reads param, grad, m, v and writes param, m, v: 7 float64 per parameter
    n_params = sum(w.size + b.size for w, b in zip(model.weights, model.biases))
    return 7 * 8 * n_params


def _file_bytes(path, *_):
    return os.path.getsize(path)


WORK = {
    ("classifier", "loss_and_grads"): _loss_and_grads_flops,
    ("classifier", "adam_step"): _adam_bytes,
    ("classifier", "accuracy"): _forward_flops,
    ("classifier", "forward"): _forward_flops,
    ("dataset", "load_csv"): _file_bytes,
}


# --- recorder ----------------------------------------------------------------

class Recorder:
    """Per-thread call stacks feeding shared statistics under one lock.

    ``stats[(layer, caller_layer)]`` is [calls, total_s, self_s, work]; a
    layer's self time is its duration minus the time of the wrapped calls
    made inside it. Spans are (id, layer, start, end, parent_id, run_id,
    work).
    A run id is assigned to each outermost engine.run call and inherited
    by everything beneath it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats = {}
        self.spans = []
        self.counters = {"ssl_runs": 0, "iterations": 0, "pseudo_labels": 0, "cap_hits": 0}
        self.completions = []
        self._next_span = 0
        self._next_run = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, span, work=None, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            # frame: [layer, child_time, id of the innermost span, run_id]
            frame = [layer, 0.0, parent[2] if parent else None, parent[3] if parent else None]
            if span or (layer == RUN_LAYER and frame[3] is None):
                with self._lock:
                    if span:
                        frame[2] = self._next_span
                        self._next_span += 1
                    if layer == RUN_LAYER and frame[3] is None:
                        frame[3] = self._next_run
                        self._next_run += 1
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                duration = t1 - t0
                if parent is not None:
                    parent[1] += duration
                amount = work(*args) if work else 0
                key = (layer, parent[0] if parent else "")
                with self._lock:
                    entry = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]
                    entry[3] += amount
                    if span:
                        self.spans.append((frame[2], layer, t0, t1,
                                           parent[2] if parent else None, frame[3], amount))
            if on_result is not None and (parent is None or parent[0] != RUN_LAYER):
                on_result(self, args, result)
            return result

        return traced

    def count_outcome(self, args, outcome):
        """Engine counters from one SSL run's SslOutcome."""
        cfg = args[2]
        with self._lock:
            self.counters["ssl_runs"] += 1
            self.counters["iterations"] += outcome.iterations_run
            self.counters["pseudo_labels"] += sum(map(sum, outcome.pseudo_label_counts))
            self.counters["cap_hits"] += outcome.iterations_run >= cfg.max_iterations

    def with_progress(self, run_grid):
        """run_grid that reports each finished run's completion time here."""
        @functools.wraps(run_grid)
        def hooked(grid, jobs=1, progress=None):
            def done(result):
                with self._lock:
                    self.completions.append(time.perf_counter())
                if progress is not None:
                    progress(result)
            return run_grid(grid, jobs=jobs, progress=done)

        return hooked

    def result(self):
        with self._lock:
            return {
                "stats": [[layer, caller, *entry] for (layer, caller), entry in self.stats.items()],
                "counters": dict(self.counters),
                "completions": list(self.completions),
                "spans": list(self.spans),
            }


def install(recorder, layers):
    """Rebind each layer function in every proxyssl module that holds it.

    Modules import these functions by name (engine holds fit/predict/forward,
    protocol holds run_algorithm/run_supervised/make_semi_split, specfile
    holds load_csv, cli holds run_grid/parse_spec), so patching only the
    defining module would miss their calls. Returns the rebound
    ``module.name`` list; a missing function raises.
    """
    import importlib

    for sub in ("cli", "classifier", "dataset", "engine", "protocol", "specfile", "stats"):
        importlib.import_module(f"proxyssl.{sub}")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "proxyssl" or name.startswith("proxyssl."))]
    rebound = []
    for layer, mod_name, fn_name, span in LAYERS:
        if layer not in layers:
            continue
        home = sys.modules[f"proxyssl.{mod_name}"]
        original = getattr(home, fn_name, None)
        if not callable(original):
            raise RuntimeError(f"traced function proxyssl.{mod_name}.{fn_name} not found")
        target = recorder.with_progress(original) if fn_name == "run_grid" else original
        on_result = Recorder.count_outcome if fn_name == "run_algorithm" else None
        wrapper = recorder.wrap(layer, target, span, WORK.get((mod_name, fn_name)), on_result)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    rebound.append(f"{module.__name__}.{attr}")
    return rebound


def main(argv):
    if len(argv) < 3 or argv[0] not in ("phase", "trace") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, out_path, cli_args = argv[0], argv[1], argv[3:]
    from proxyssl import cli

    recorder = Recorder()
    layers = {layer for layer, *_ in LAYERS} if mode == "trace" else PHASE_LAYERS
    rebound = install(recorder, layers)
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    payload = {"rc": rc, "main_s": main_s, "rebound": rebound, **recorder.result()}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
