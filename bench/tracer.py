"""Out-of-band tracing of tessera's layers, from outside ``src/``.

Each traced name is patched where the caller looks it up: ``experiment``
binds ``load_csv``, ``train_moe``, ``calibrate``, ... as its own globals;
``train_moe`` finds ``mixture_nll`` and ``adam_step`` in ``moe``'s globals;
``train_dropout`` finds ``adam_step`` in ``mc_dropout``'s; methods are looked
up on their class; ``serialize.dump`` is reached through the module object.
A target that no longer exists raises at install, so a rename in ``src/``
fails loudly instead of reading 0.

Spans (name, start, end, parent) are kept in memory for one op and folded
into per-name totals when the op ends.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from tessera import experiment, mc_dropout, moe, serialize
from tessera.moe import MoeModel
from tessera.nn import Mlp


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_rows_in(key, index, name):
    def counter(tr, args, kwargs, result):
        tr.count(key, _arg(args, kwargs, index, name).n)
    return counter


def _count_rows_out(key):
    def counter(tr, args, kwargs, result):
        tr.count(key, result.n)
    return counter


def _count_adam(caller):
    def counter(tr, args, kwargs, result):
        tensors = len(_arg(args, kwargs, 1, "params"))
        tr.count("nn.adam_tensors", tensors)
        tr.count(f"{caller}.adam_tensors", tensors)
        tr.count(f"{caller}.adam_steps", 1)
    return counter


def _count_epochs(tr, args, kwargs, result):
    config = _arg(args, kwargs, 5, "config")
    tr.count("moe.useful_epochs", result.best_epoch + 1)
    tr.count("moe.epochs", config.epochs)


def _count_pass_rows(tr, args, kwargs, result):
    passes = _arg(args, kwargs, 2, "passes")
    tr.count("mc_dropout.pass_rows", passes * len(_arg(args, kwargs, 1, "x")))


def _count_bytes(index):
    def counter(tr, args, kwargs, result):
        tr.count("serialize.bytes_written", os.path.getsize(_arg(args, kwargs, index, "path")))
    return counter


# (owner, attribute, span name, counter or None)
TARGETS = (
    (experiment, "gen_heteroscedastic", "datagen.generate", None),
    (experiment, "gen_clustered_shift", "datagen.generate", None),
    (experiment, "split_dataset", "datagen.generate", None),
    (experiment, "save_csv", "datagen.save_csv", _count_rows_in("datagen.save_csv_rows", 0, "ds")),
    (experiment, "load_csv", "datagen.load_csv", _count_rows_out("datagen.load_csv_rows")),
    (experiment, "train_moe", "moe.train_moe", _count_epochs),
    (experiment, "train_dropout", "mc_dropout.train_dropout", None),
    (experiment, "mc_predict", "mc_dropout.mc_predict", _count_pass_rows),
    (experiment, "calibrate", "conformal.calibrate", None),
    (experiment, "build_intervals", "conformal.build_intervals", None),
    (experiment, "sparsification", "metrics.sparsification", None),
    (experiment, "ssc_detail", "metrics.ssc_detail", None),
    (experiment, "point_metrics", "metrics.point_metrics", None),
    (experiment, "report_nll", "metrics.report_nll", None),
    (experiment, "disentangle_stats", "metrics.disentangle_stats", None),
    (experiment, "groupwise_picp", "metrics.groupwise_picp", None),
    (moe, "mixture_nll", "moe.mixture_nll", None),
    (moe, "mixture_nll_loss", "moe.mixture_nll_loss", None),
    (moe, "adam_step", "nn.adam_step", _count_adam("moe")),
    (mc_dropout, "adam_step", "nn.adam_step", _count_adam("mc_dropout")),
    (MoeModel, "forward", "moe.forward", _count_rows_out("moe.forward_rows")),
    (MoeModel, "set_parameters", "moe.set_parameters", None),
    (MoeModel, "save", "moe.checkpoint", None),
    (MoeModel, "load", "moe.checkpoint", None),
    (Mlp, "forward_cache", "nn.forward_cache", None),
    (Mlp, "backward", "nn.backward", None),
    (serialize, "dump", "serialize.dump", _count_bytes(1)),
    (serialize, "write_csv", "serialize.write_csv", _count_bytes(0)),
)

SPAN_NAMES = tuple(sorted({t[2] for t in TARGETS}))


class Tracer:
    def __init__(self):
        self._spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []    # indices into _spans of the spans still running
        self._counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        idx = len(self._spans)
        self._spans.append([name, time.perf_counter(), 0.0,
                            self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self._spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def count(self, key: str, value) -> None:
        self._counts[key] += value

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            original = vars(owner).get(attr)
            if original is None:
                self.uninstall()
                raise LookupError(f"trace target {owner.__name__}.{attr} no longer exists")
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name, counter))
            else:
                patched = self._wrap(original, name, counter)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> dict:
        """Fold the spans recorded since the last call into totals, then reset.

        Returns ``{"time": {name: s}, "self": {name: s}, "calls": {name: n},
        "counts": {key: n}, "children": {"parent>child": s}}``; self time is
        a span's duration minus its direct children's, and ``children``
        splits each span's time over its direct children by name.
        """
        time_, self_, children = defaultdict(float), defaultdict(float), defaultdict(float)
        calls = Counter()
        for name, start, end, parent in self._spans:
            dur = end - start
            time_[name] += dur
            self_[name] += dur
            calls[name] += 1
            if parent >= 0:
                parent_name = self._spans[parent][0]
                self_[parent_name] -= dur
                children[f"{parent_name}>{name}"] += dur
        out = {"time": dict(time_), "self": dict(self_), "calls": dict(calls),
               "counts": dict(self._counts), "children": dict(children)}
        self._spans.clear()
        self._counts.clear()
        return out
