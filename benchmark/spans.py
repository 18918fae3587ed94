"""Span tracing of changeseries from outside the program.

Tracer.install() replaces the public functions and layer methods of each
module with wrappers that record one span per call: name, start, end,
parent span, thread and a few attributes computed from the arguments
(FLOPs, bytes, assignments scored).  A function is replaced everywhere its
name is looked up, in its own module and in every changeseries module
that imported it, so calls made inside the program are seen too.
uninstall() puts the originals back.  Spans stay in memory until write()
saves them once.

A span's parent is the innermost open span of its thread.  A thread with
no open span (a fusion worker) takes the innermost open span of the main
thread: the benchmark is the only caller and waits on its workers.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
import weakref
from contextlib import contextmanager

## spans of set-up work: averaged per set-up rather than per pass
SETUP_SPANS = ("synthgen.generate", "synthgen.corrupt_to_probabilities", "backbone.save_checkpoint")

LAYER_CLASSES = (
    "Conv2d",
    "TransposeConv2x2",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2x2",
    "Sigmoid",
    "Linear",
    "LayerNorm",
)

## plain functions, traced as "<module>.<function>"
FUNCTIONS = (
    ("backbone", "load_checkpoint"),
    ("backbone", "save_checkpoint"),
    ("changefeat", "change_pyramid"),
    ("changefeat", "change_pyramid_backward"),
    ("objective", "multitask_loss"),
    ("objective", "evaluate"),
    ("trainer", "sample_patch"),
    ("trainer", "augment"),
    ("trainer", "train"),
    ("markov", "build_potentials"),
    ("markov", "map_decode_general"),
    ("markov", "map_decode_chain"),
    ("markov", "integrate"),
    ("synthgen", "generate"),
    ("synthgen", "corrupt_to_probabilities"),
    ("tensor", "read_raster"),
    ("tensor", "write_raster"),
    ("tensor", "export_pgm"),
)


def _conv_attrs(args, kwargs, out):
    conv, x = args[0], args[1]
    cout, cin, k, _ = conv.weight.value.shape
    return {"flops": 2.0 * x.shape[0] * x.shape[2] * x.shape[3] * cout * cin * k * k}


def _conv_backward_attrs(args, kwargs, out):
    ## weight gradient and dx are each one forward-sized product
    return {"flops": 2.0 * _conv_attrs(args, kwargs, out)["flops"]}


def _assignments(args, kwargs, out):
    node = args[0].node
    return {"assignments": float(node.shape[2] * node.shape[3]) * 2.0 ** node.shape[0]}


def _workers(args, kwargs, out):
    return {"workers": kwargs.get("workers", args[4] if len(args) > 4 else 1)}


def _bytes_read(args, kwargs, out):
    ## RTS1: magic, rank, one u32 per extent, float32 payload
    return {"bytes_read": 8 + 4 * out.ndim + 4 * out.size}


def _bytes_written(args, kwargs, out):
    return {"bytes_written": os.path.getsize(args[0])}


ATTRS = {
    "layers.Conv2d.forward": _conv_attrs,
    "layers.Conv2d.backward": _conv_backward_attrs,
    "markov.map_decode_general": _assignments,
    "markov.integrate": _workers,
    "tensor.read_raster": _bytes_read,
    "tensor.write_raster": _bytes_written,
    "tensor.export_pgm": _bytes_written,
}


class Tracer:
    def __init__(self):
        ## one list per span: [id, name, start, end, parent, thread, attrs, phase]
        self.spans: list[list] = []
        self.phase = "pass"
        self.active = False
        self._ids = itertools.count()
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._restore: list[tuple] = []
        self._decoder_names = weakref.WeakKeyDictionary()

    @contextmanager
    def tracing(self, phase: str):
        """Install the wrappers and record spans of `phase` until the block ends."""
        self.install()
        self.phase, self.active = phase, True
        try:
            yield
        finally:
            self.active = False
            self.uninstall()

    @contextmanager
    def paused(self):
        """Run benchmark-side work (checks, probes) without recording it."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _open(self, name: str) -> list:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1][0]
        elif tid != self._main and self._stacks.get(self._main):
            parent = self._stacks[self._main][-1][0]
        else:
            parent = None
        span = [next(self._ids), name, time.perf_counter(), None, parent, tid, None, self.phase]
        stack.append(span)
        self.spans.append(span)
        return span

    def _wrap(self, fn, name_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs)
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stacks[span[5]].pop()
            if name in ATTRS:
                span[6] = ATTRS[name](args, kwargs, out)
            return out

        return wrapper

    def _fixed(self, fn, name: str):
        return self._wrap(fn, lambda args, kwargs: name)

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != "changeseries":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _replace_method(self, cls, method: str, replacement) -> None:
        self._restore.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, replacement)

    def install(self) -> None:
        from changeseries import backbone, cli, layers, model, temporal, trainer

        for modname, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"changeseries.{modname}"], fn_name)
            self._replace_everywhere(original, self._fixed(original, f"{modname}.{fn_name}"))
        self._replace_everywhere(
            cli.main, self._wrap(cli.main, lambda args, kwargs: f"cli.{args[0][0]}")
        )

        methods = [(getattr(layers, name), f"layers.{name}") for name in LAYER_CLASSES]
        methods += [
            (temporal.TemporalRefiner, "temporal.TemporalRefiner"),
            (temporal.MultiHeadSelfAttention, "temporal.MultiHeadSelfAttention"),
            (backbone.Encoder, "backbone.encoder"),
        ]
        for cls, prefix in methods:
            for method in ("forward", "backward"):
                self._replace_method(
                    cls, method, self._fixed(cls.__dict__[method], f"{prefix}.{method}")
                )
        ## the two decoders share a class; the model says which is which
        names = self._decoder_names
        for method in ("forward", "backward"):
            self._replace_method(
                backbone.Decoder,
                method,
                self._wrap(
                    backbone.Decoder.__dict__[method],
                    lambda args, kwargs, m=method: f"backbone.{names[args[0]]}.{m}",
                ),
            )
            traced = self._fixed(model.ChangeModel.__dict__[method], f"model.ChangeModel.{method}")

            def labelled(net, *args, __traced=traced, **kwargs):
                names[net.seg_decoder] = "seg_decoder"
                names[net.change_decoder] = "change_decoder"
                return __traced(net, *args, **kwargs)

            self._replace_method(model.ChangeModel, method, labelled)
        self._replace_method(
            trainer.AdamW, "step", self._fixed(trainer.AdamW.__dict__["step"], "trainer.AdamW.step")
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "attrs", "phase")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _union_length(intervals) -> float:
    total, lo, hi = 0.0, None, None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    return total + (hi - lo if hi is not None else 0.0)


def summarize(spans, passes: int, setups: int) -> dict:
    """Per-name totals of finished spans: calls, ms, self_ms and attribute sums.

    Self time is a span's duration minus the part of it its children cover.
    Names in SETUP_SPANS are averaged over set-up-phase spans per set-up,
    all others over pass-phase spans per pass.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)
    out: dict[str, dict] = {}
    for sid, name, start, end, _, _, attrs, phase in spans:
        setup_span = name in SETUP_SPANS
        per = setups if setup_span else passes
        if phase != ("setup" if setup_span else "pass") or not per:
            continue
        kids = [(max(c[2], start), min(c[3], end)) for c in children.get(sid, ())]
        covered = _union_length([k for k in kids if k[1] > k[0]])
        row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "per": per})
        row["calls"] += 1
        row["ms"] += (end - start) * 1e3
        row["self_ms"] += (end - start - covered) * 1e3
        for key, value in (attrs or {}).items():
            row[key] = row.get(key, 0) + value
    return {
        name: {key: value / row["per"] for key, value in row.items() if key != "per"}
        for name, row in out.items()
    }
