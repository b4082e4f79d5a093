"""Span tracing of xbarlstm from outside the package.

`Tracer.installed()` replaces public functions and `LSTMNetwork` methods
with wrappers that record spans and counts, in every xbarlstm module
that binds them (a `from .x import f` copy is patched too, so calls are
seen where they are looked up), and puts them back on exit.  Nothing in
the package itself changes.  Noise streams are counted through a
forwarding proxy around the generators `derive_rng` returns for stream
names that contain "noise".

Self time is wall time during which a span is the innermost open span of
its thread.  While several threads have work open, each wall-clock
interval is split equally among them, so the self times of all spans
plus the time with no span open add up to elapsed wall time.  A span
opened on a thread with nothing open (a thread-pool worker) is a child of
the main thread's innermost span, which counts as waiting meanwhile.

A public name that no longer resolves is reported by `absent()` and left
out; it never breaks the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("tasks", "training", "network", "lstm", "quantizer", "experiment", "seeding")

# public function -> span name
FUNCTION_SPANS = {
    "tasks.build_task": "tasks.build_task",
    "tasks.build_network": "tasks.build_network",
    "training.train": "training.train",
    "training.evaluate": "training.evaluate",
    "training.make_batches": "training.make_batches",
    "training.softmax_xent": "training.softmax_xent",
    "lstm.lstm_backward": "lstm.backward",
    "quantizer.to_code": "quantizer.to_code",
    "quantizer.from_code": "quantizer.from_code",
    "quantizer.quantize": "quantizer.quantize",
    "quantizer.ste_mask": "quantizer.ste_mask",
    "experiment.run": "experiment.run",
    "experiment.sweep_bitwidths": "experiment.sweep",
    "experiment.noise_sweep": "experiment.sweep",
}

# LSTMNetwork method -> span name; forward_sequence is split by its `mode`
METHOD_SPANS = {
    "forward_sequence": "network.forward",
    "backward": "network.backward",
    "freeze_adc_ranges": "network.freeze_adc_ranges",
}

# A sweep cell calls the experiment layer's build_task, build_network and
# train in turn; that is the only public-name boundary a cell has.
CELL_STEPS = ("build_task", "build_network", "train")


class _Frame:
    __slots__ = ("name", "waiting_on", "remote_parent")

    def __init__(self, name, remote_parent=None):
        self.name = name
        self.waiting_on = 0          # open child spans on other threads
        self.remote_parent = remote_parent


class Tracer:
    """In-memory spans (as self time per name) and exact counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stacks: dict[int, list[_Frame]] = {}
        self._last = None
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._expected: set[str] = set()
        self._resolved: set[str] = set()

    # --- span bookkeeping -------------------------------------------------

    def _advance(self, now):
        leaves = [st[-1].name for st in self._stacks.values()
                  if st and st[-1].waiting_on == 0]
        if leaves and self._last is not None:
            share = (now - self._last) / len(leaves)
            for name in leaves:
                self.self_s[name] += share
        self._last = now

    def open(self, name):
        with self._lock:
            self._advance(time.perf_counter())
            stack = self._stacks.setdefault(threading.get_ident(), [])
            parent = None
            if not stack and threading.current_thread() is not threading.main_thread():
                main = self._stacks.get(threading.main_thread().ident)
                if main:
                    parent = main[-1]
                    parent.waiting_on += 1
            stack.append(_Frame(name, parent))

    def close(self):
        with self._lock:
            self._advance(time.perf_counter())
            frame = self._stacks[threading.get_ident()].pop()
            if frame.remote_parent is not None:
                frame.remote_parent.waiting_on -= 1

    def in_span(self, name) -> bool:
        return any(f.name == name for f in self._stacks.get(threading.get_ident(), ()))

    def count(self, name, n):
        with self._lock:
            self.counts[name] += int(n)

    def snapshot(self) -> tuple[dict, dict]:
        with self._lock:
            return dict(self.self_s), dict(self.counts)

    def absent(self) -> list[str]:
        """Span names none of whose targets resolved."""
        return sorted(self._expected - self._resolved)

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name):
        sig = inspect.signature(fn)
        arg_name, counter = _COUNTERS.get(name, (None, None))
        arg = _arg_getter(sig, arg_name)
        mode = _arg_getter(sig, "mode") if name == "network.forward" else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if mode is not None:
                span_name = ("network.forward.eval" if tracer.in_span("training.evaluate")
                             else f"network.forward.{mode(args, kwargs)}")
            tracer.open(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            if counter is not None:
                counter(tracer, arg(args, kwargs), out)
            return out

        return traced

    def _wrap_cell(self, fn, role):
        """The experiment layer's build_task / build_network / train, with a
        cell span opened by the first and closed after the last."""
        tracer = self

        @functools.wraps(fn)
        def bracketed(*args, **kwargs):
            if role == CELL_STEPS[0] and not tracer.in_span("experiment.cell"):
                tracer.open("experiment.cell")
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close_cell()
                raise
            if role == CELL_STEPS[-1] and tracer._close_cell():
                tracer.count("experiment.cells", 1)
            return out

        return bracketed

    def _close_cell(self) -> bool:
        stack = self._stacks.get(threading.get_ident(), ())
        if stack and stack[-1].name == "experiment.cell":
            self.close()
            return True
        return False

    def _wrap_derive_rng(self, fn):
        tracer = self

        @functools.wraps(fn)
        def derive(root_seed, name):
            rng = fn(root_seed, name)
            return _CountingRNG(rng, tracer) if "noise" in name else rng

        return derive

    # --- install ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every target while the block runs; always restore."""
        undo: list[tuple[object, str, object]] = []

        def patch(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            for m in MODULES:
                with contextlib.suppress(ImportError):
                    importlib.import_module(f"xbarlstm.{m}")
            loaded = [m for key, m in sorted(sys.modules.items())
                      if key == "xbarlstm" or key.startswith("xbarlstm.")]

            self._expected.add("experiment.cell")
            for qualname, span_name in FUNCTION_SPANS.items():
                self._expected.add(span_name)
                mod_name, attr = qualname.split(".")
                fn = getattr(sys.modules.get(f"xbarlstm.{mod_name}"), attr, None)
                if not callable(fn):
                    continue
                self._resolved.add(span_name)
                traced = self._wrap(fn, span_name)
                for mod in loaded:
                    if mod.__dict__.get(attr) is not fn:
                        continue
                    if mod.__name__ == "xbarlstm.experiment" and attr in CELL_STEPS:
                        self._resolved.add("experiment.cell")
                        patch(mod, attr, self._wrap_cell(traced, attr))
                    else:
                        patch(mod, attr, traced)

            net_cls = getattr(sys.modules.get("xbarlstm.network"), "LSTMNetwork", None)
            for method, span_name in METHOD_SPANS.items():
                self._expected.add(span_name)
                fn = vars(net_cls).get(method) if net_cls is not None else None
                if callable(fn):
                    self._resolved.add(span_name)
                    patch(net_cls, method, self._wrap(fn, span_name))

            self._expected.add("noise.draw")
            derive = getattr(sys.modules.get("xbarlstm.seeding"), "derive_rng", None)
            if callable(derive):
                self._resolved.add("noise.draw")
                proxied = self._wrap_derive_rng(derive)
                for mod in loaded:
                    if mod.__dict__.get("derive_rng") is derive:
                        patch(mod, "derive_rng", proxied)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)


class _CountingRNG:
    """Forwards to a numpy Generator; every method call is a noise.draw
    span and adds the number of variates it returned to noise.normals."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._rng, attr)
        if not callable(value):
            return value
        tracer = self._tracer

        def draw(*args, **kwargs):
            tracer.open("noise.draw")
            try:
                out = value(*args, **kwargs)
            finally:
                tracer.close()
            tracer.count("noise.normals", np.size(out))
            return out

        self.__dict__[attr] = draw
        return draw


def _arg_getter(sig: inspect.Signature, name: str | None):
    """Reads argument `name` (or its default) from a call's args and kwargs
    without binding the whole signature, which costs more per call."""
    params = list(sig.parameters)
    if name not in params:
        return lambda args, kwargs: None
    pos, default = params.index(name), sig.parameters[name].default

    def get(args, kwargs):
        return args[pos] if len(args) > pos else kwargs.get(name, default)

    return get


def _count_to_code(tracer, x, out):
    tracer.count("quantizer.to_code.calls", 1)
    tracer.count("quantizer.elements", np.size(x))


def _count_forward(tracer, x_seq, out):
    shape = np.shape(x_seq)
    tracer.count("network.forward.token_steps", shape[0] * shape[1])


def _count_backward(tracer, d_h, out):
    tracer.count("lstm.backward.steps", len(d_h))


def _count_make_batches(tracer, _, out):
    tracer.count("training.make_batches.calls", 1)


def _count_xent(tracer, _, out):
    if tracer.in_span("training.evaluate"):
        tracer.count("training.evaluate.tokens", out[1])


# span -> (argument the counter reads, counter)
_COUNTERS = {
    "quantizer.to_code": ("x", _count_to_code),
    "network.forward": ("x_seq", _count_forward),
    "lstm.backward": ("d_h", _count_backward),
    "training.make_batches": (None, _count_make_batches),
    "training.softmax_xent": (None, _count_xent),
}
