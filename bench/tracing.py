"""In-process traced replay of CLI invocations, from the benchmark's side only.

``Tracer.installed()`` replaces each public function of the program's modules
under every name its callers look it up by (``entwit.cli.certify_witness`` as
well as ``entwit.witness.certify_witness``), and wraps the
``HermitianOperator`` constructor, then puts everything back.  Calls into the
``operators`` layer are too frequent for spans and are aggregated into counts
and summed time; every other wrapped call records a span (name, start, end,
parent).  Self time is a call's duration minus the time of the wrapped calls
it made, summed per layer.
"""
from __future__ import annotations

import contextlib
import inspect
import io
import time
from collections import defaultdict

LAYERS = ("cli", "witness", "operators", "extension", "mdiew", "sampling", "serialization")
TRACED_MODULES = ("operators", "sampling", "witness", "extension", "choi", "catalog",
                  "mdiew", "serialization")
DRAWS = ("random_separable", "random_povm_first_element", "random_unitary")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[list] = []          # [span id, start, time in wrapped children]
        self.count = defaultdict(int)
        self.busy = defaultdict(float)       # summed duration per function name
        self.self_time = defaultdict(float)  # per layer
        self.counters = defaultdict(float)
        self.invocation = -1
        self.next_id = 0

    # ------------------------------------------------------------ recording

    def _enter(self) -> list:
        self.next_id += 1
        frame = [self.next_id, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, layer: str, span: bool) -> float:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        self.self_time[layer] += duration - frame[2]
        self.count[name] += 1
        self.busy[name] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if span:
            parent = self.stack[-1][0] if self.stack else None
            self.spans.append({"id": frame[0], "name": name, "start": frame[1], "end": end,
                               "parent": parent, "invocation": self.invocation})
        return duration

    def _wrap(self, fn, name: str, layer: str):
        span = layer != "operators"
        observe = getattr(self, "_observe_" + fn.__name__, None)

        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._exit(frame, name, layer, span)
            if observe is not None:
                observe(result, duration)
            return result

        return wrapper

    def _observe_min_product_expectation(self, report, duration):
        self.counters["seesaw_iterations"] += sum(len(t) // 2 for t in report.value_traces)
        self.counters["restarts_converged"] += sum(report.converged)

    def _observe_collect_zero_set(self, zeros, duration):
        self.counters["zeros_kept"] += len(zeros.vectors)

    def _observe_separable_nonnegativity_audit(self, report, duration):
        kind = "embedded" if report.embed_dims is not None else "direct"
        self.counters[f"trials_{kind}"] += report.trials
        self.counters[f"audit_{kind}_s"] += duration

    # -------------------------------------------------------- installation

    @contextlib.contextmanager
    def installed(self, entwit):
        """Wrap the public functions of ``entwit``'s modules while inside."""
        modules = [getattr(entwit, m) for m in TRACED_MODULES] + [entwit.cli, entwit]
        wrappers = {}
        for name in TRACED_MODULES:
            mod = getattr(entwit, name)
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{name}.{attr}", name)
        saved = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        herm = entwit.operators.HermitianOperator
        post_init = herm.__post_init__
        herm.__post_init__ = self._wrap(post_init, "operators.HermitianOperator", "operators")
        try:
            yield self
        finally:
            herm.__post_init__ = post_init
            for mod, attr, obj in saved:
                setattr(mod, attr, obj)

    # ------------------------------------------------------------- replay

    def call(self, entwit, argv: list[str]) -> tuple[int, bytes]:
        """One traced ``entwit.cli.main`` call under a root span."""
        self.invocation += 1
        frame = self._enter()
        try:
            return call_main(entwit, argv)
        finally:
            self._exit(frame, "cli.main", "cli", True)

    def wrapper_cost_s(self, calls: int = 20_000) -> float:
        """The tracer's own time for the calls recorded so far, from a
        calibration of its span and aggregate wrappers on a no-op function.
        A shared machine's drift is larger than this cost, so the measured
        traced-minus-plain difference alone cannot show it."""
        def noop():
            return None

        probe = Tracer()
        per_call = {}
        for span, layer in ((True, "cli"), (False, "operators")):
            wrapped = probe._wrap(noop, "noop", layer)
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            base = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            per_call[span] = max(time.perf_counter() - start - base, 0.0) / calls
        spans = len(self.spans)
        return spans * per_call[True] + (sum(self.count.values()) - spans) * per_call[False]

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures, named as in BENCHMARK.json: totals per round,
        and times per call, per iteration or per trial."""
        c, busy, n = self.counters, self.busy, self.count
        totals = {
            "witness.min_product_s": (busy["witness.min_product_expectation"], "s"),
            "witness.seesaw_iterations": (c["seesaw_iterations"], "count"),
            "witness.restarts_converged": (c["restarts_converged"], "count"),
            "witness.zero_harvest_s": (busy["witness.collect_zero_set"], "s"),
            "witness.zeros_kept": (c["zeros_kept"], "count"),
            "operators.eigh_calls": (n["operators.eigh"], "count"),
            "operators.eigh_s": (busy["operators.eigh"], "s"),
            "operators.hermitian_constructions": (n["operators.HermitianOperator"], "count"),
            "operators.permute_calls": (n["operators.permute_systems"], "count"),
            "extension.extend_witness_calls": (n["extension.extend_witness"], "count"),
            "extension.extend_witness_s": (busy["extension.extend_witness"], "s"),
            "sampling.draw_s": (sum(busy[f"sampling.{f}"] for f in DRAWS), "s"),
            "serialization.dumps_s": (busy["serialization.dumps_canonical"], "s"),
        }
        totals.update({f"{layer}.self_s": (self.self_time[layer], "s") for layer in LAYERS})
        out = {k: (v / rounds, unit) for k, (v, unit) in totals.items()}
        out["witness.seesaw_step_us"] = (
            _per(1e6 * busy["witness.min_product_expectation"], c["seesaw_iterations"]), "us")
        out["mdiew.decompose_ms"] = (
            _per(1e3 * busy["mdiew.decompose_witness"], n["mdiew.decompose_witness"]), "ms")
        out["mdiew.trial_ms"] = (_per(1e3 * c["audit_direct_s"], c["trials_direct"]), "ms")
        out["mdiew.trial_embedded_ms"] = (
            _per(1e3 * c["audit_embedded_s"], c["trials_embedded"]), "ms")
        return out


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def replay(entwit, tracer: Tracer, argvs: list[list[str]], speed):
    """Run each invocation in this process plain, then traced, back to back.

    ``speed()`` times a fixed reference task; each call's time is divided by
    the mean reference time around it, so that the drifting speed of a
    shared machine cancels out of the difference.  Returns the plain and the
    traced total (in reference units) and the traced (exit code, stdout) of
    every invocation.
    """
    plain = traced_total = 0.0
    traced = []
    before = speed()
    for argv in argvs:
        start = time.perf_counter()
        call_main(entwit, argv)
        elapsed = time.perf_counter() - start
        middle = speed()
        plain += elapsed / ((before + middle) / 2)
        with tracer.installed(entwit):
            start = time.perf_counter()
            traced.append(tracer.call(entwit, argv))
            elapsed = time.perf_counter() - start
        before = speed()
        traced_total += elapsed / ((middle + before) / 2)
    return plain, traced_total, traced


def call_main(entwit, argv: list[str]) -> tuple[int, bytes]:
    """Run ``entwit.cli.main(argv)`` in this process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entwit.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue().encode()
