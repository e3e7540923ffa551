"""Span tracer that wraps crispdec's public functions from outside the program.

Every wrapped callable is replaced in each crispdec namespace that binds
it (the code imports with ``from .x import f``), and class methods are
replaced on their class. A span records its name, start, end and parent;
counters are kept at the same boundaries. Spans stay in memory and are
aggregated into per-layer metrics when the traced window closes.

Nothing here changes what the program computes: wrappers call the
original function with the original arguments and return its result.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute or Class.method, span name). A span name is the
# per-layer metric stem: span "tensor.conv2d" gives "tensor.conv2d_ms".
TARGETS = [
    ("tensor", "Tensor.backward", "tensor.backward"),
    ("tensor", "conv2d", "tensor.conv2d"),
    ("tensor", "bilinear_upsample", "tensor.bilinear"),
    ("synthdata", "generate_scene", "synthdata.generate_scene"),
    ("synthdata", "corrupt_to_seed", "synthdata.corrupt_to_seed"),
    ("synthdata", "toy_encoder_forward", "synthdata.encoder_fwd"),
    ("synthdata", "build_ignore_mask", "synthdata.build_ignore_mask"),
    ("decoder", "decoder_forward", "decoder.forward"),
    ("decoder", "project_and_upsample", "decoder.project"),
    ("decoder", "dmf_fuse", "decoder.fuse"),
    ("decoder", "variance_branch", "decoder.variance"),
    ("decoder", "ugr_refine", "decoder.refine"),
    ("decoder", "boundary_branch", "decoder.boundary"),
    ("losses", "total_loss", "losses.total"),
    ("losses", "mix_uncertainty", "losses.mix_uncertainty"),
    ("losses", "masked_ce", "losses.ce"),
    ("losses", "masked_dice", "losses.dice"),
    ("losses", "heteroscedastic_loss", "losses.het"),
    ("losses", "boundary_loss", "losses.boundary"),
    ("losses", "sdf_loss", "losses.sdf"),
    ("geometry", "boundary_band", "geometry.boundary_band"),
    ("geometry", "signed_distance", "geometry.signed_distance"),
    ("geometry", "distance_to_set", "geometry.distance_to_set"),
    ("loop", "train", "loop.train"),
    ("loop", "AdamW.step", "loop.adamw"),
    ("loop", "ema_update", "loop.ema_update"),
    ("loop", "teacher_predict", "loop.teacher_predict"),
    ("loop", "relabel", "loop.relabel"),
    ("model", "SegModel.forward", "model.forward"),
    ("model", "SegModel.predict", "model.predict"),
    ("model", "SegModel.load_state_dict", "model.load_state_dict"),
    ("metrics", "miou", "metrics.miou"),
    ("metrics", "boundary_f1", "metrics.boundary_f1"),
    ("metrics", "ece", "metrics.ece"),
    ("metrics", "structural_scores", "metrics.structural"),
    ("fileio", "read_ctsr", "fileio.read"),
    ("fileio", "read_pgm", "fileio.read"),
    ("fileio", "write_ctsr", "fileio.write"),
    ("fileio", "write_pgm", "fileio.write"),
    ("fileio", "load_checkpoint", "fileio.load_checkpoint"),
    ("cli", "cmd_eval", "cli.eval"),
]

# Spans inside this one belong to teacher relabeling, which the train
# metrics report per relabeled image instead of per optimizer step.
RELABEL_SCOPE = "loop.teacher_predict"


class Tracer:
    """In-memory span and counter store.

    Recording happens only while ``window`` names an open window
    ("setup" or "timed"); outside one, every wrapper is a plain call.
    """

    def __init__(self):
        self.window = None
        self.spans = []      # [name, start, end, parent index, window, relabel]
        self._stack = []
        self._relabel_depth = 0
        self.counters = defaultdict(float)   # (window, scope, name) -> value
        self.windows = 0
        self.label_maps = defaultdict(set)    # (window, number) -> hashes of label maps seen by total_loss

    # -- spans -----------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        if name == RELABEL_SCOPE:
            self._relabel_depth += 1
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.window,
                           self._relabel_depth > 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()
        if self.spans[idx][0] == RELABEL_SCOPE:
            self._relabel_depth -= 1

    def count(self, name, value=1.0):
        scope = "relabel" if self._relabel_depth else "main"
        self.counters[(self.window, scope, name)] += value

    def open_window(self, name):
        self.window = name
        self.windows += 1
        return self._open("bench." + name)

    def close_window(self, idx):
        self._close(idx)
        self.window = None


# -- counters attached to particular spans -------------------------------------------


def _conv_gflop(tracer, args, kwargs):
    """Multiply-adds of the forward conv, computed from shapes (2 flops each)."""
    x, kernel = args[0], args[1]
    padding = kwargs.get("padding", args[3] if len(args) > 3 else 0)
    stride = kwargs.get("stride", args[4] if len(args) > 4 else 1)
    n, cin, h, w = x.data.shape
    cout, _, k, _ = kernel.data.shape
    hout = (h + 2 * padding - k) // stride + 1
    wout = (w + 2 * padding - k) // stride + 1
    tracer.count("tensor.conv2d_gflop", 2.0 * n * cout * cin * k * k * hout * wout / 1e9)


def _label_hash(arr):
    head = repr((arr.shape, arr.dtype.str)).encode()
    return hashlib.blake2b(head + arr.tobytes(), digest_size=16).digest()


def _band_map(tracer, args, kwargs):
    if getattr(args[0], "ndim", 2) == 2:
        tracer.count("geometry.maps_computed")


def _sdf_map(tracer, args, kwargs):
    tracer.count("geometry.maps_computed")


def _loss_labels(tracer, args, kwargs):
    labels = args[1] if len(args) > 1 else kwargs["labels"]
    seen = tracer.label_maps[(tracer.window, tracer.windows)]
    for im in labels.yhat:
        seen.add(_label_hash(im))


def _file_bytes(counter):
    def hook(tracer, args, kwargs):
        path = args[0]
        if os.path.exists(path):
            tracer.count(counter, os.path.getsize(path))
    return hook


# called before the wrapped function (reads) or after it (writes)
_BEFORE = {
    "tensor.conv2d": _conv_gflop,
    "geometry.boundary_band": _band_map,
    "geometry.signed_distance": _sdf_map,
    "losses.total": _loss_labels,
    "fileio.read": _file_bytes("fileio.read_bytes"),
}
_AFTER = {
    "fileio.write": _file_bytes("fileio.write_bytes"),
}


def _make_wrapper(tracer, span, fn):
    before = _BEFORE.get(span)
    after = _AFTER.get(span)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.window is None:
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args, kwargs)
        idx = tracer._open(span)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer._close(idx)
            if after is not None:
                after(tracer, args, kwargs)

    return wrapper


def _crispdec_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "crispdec" or name.startswith("crispdec."))]


class Installation:
    """The wrappers put in place by :func:`install`, undone by :meth:`remove`."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every target in every crispdec namespace that binds it.

    Raises LookupError when a target no longer exists, so a renamed public
    function breaks the traced run instead of silently reporting zero.
    """
    import importlib

    for mod in ("tensor", "synthdata", "decoder", "losses", "geometry", "loop",
                "model", "metrics", "fileio", "cli", "benchmark"):
        importlib.import_module("crispdec." + mod)
    modules = _crispdec_modules()
    inst = Installation()
    for home_name, attr, span in TARGETS:
        home = sys.modules["crispdec." + home_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            if cls is None or meth not in cls.__dict__:
                raise LookupError(f"trace target crispdec.{home_name}.{attr} is gone")
            inst.set(cls, meth, _make_wrapper(tracer, span, cls.__dict__[meth]))
            continue
        fn = home.__dict__.get(attr)
        if fn is None:
            raise LookupError(f"trace target crispdec.{home_name}.{attr} is gone")
        wrapper = _make_wrapper(tracer, span, fn)
        for mod in modules:
            if mod.__dict__.get(attr) is fn:
                inst.set(mod, attr, wrapper)

    # tape nodes and op-output bytes, counted where every op is recorded
    tensor_cls = sys.modules["crispdec.tensor"].Tensor
    if "_from_op" not in tensor_cls.__dict__:
        raise LookupError("trace target crispdec.tensor.Tensor._from_op is gone")
    from_op = tensor_cls.__dict__["_from_op"].__func__

    def _from_op(cls, data, parents, backward):
        out = from_op(cls, data, parents, backward)
        if tracer.window is not None:
            nbytes = out.data.nbytes
            tracer.count("tensor.tape_nodes")
            tracer.count("tensor.out_bytes", nbytes)
            if out.data.dtype.name == "float64":
                tracer.count("tensor.f64_bytes", nbytes)
        return out

    inst.set(tensor_cls, "_from_op", classmethod(_from_op))
    return inst


# -- per-layer metrics -----------------------------------------------------------------

# Every per-layer metric with its unit. "ms" and the counts are per
# optimizer step on the train workloads and per image on eval-a6, except
# where the description in README.md says otherwise (relabel metrics are
# per relabeled image, set-up metrics per generated scene).
LAYER_METRICS = [
    ("tensor.backward_ms", "ms"),
    ("tensor.conv2d_ms", "ms"),
    ("tensor.conv2d_calls", "count"),
    ("tensor.conv2d_gflop", "GFLOP"),
    ("tensor.bilinear_ms", "ms"),
    ("tensor.bilinear_calls", "count"),
    ("tensor.tape_nodes", "count"),
    ("tensor.out_mb", "MB"),
    ("tensor.f64_bytes_frac", "ratio"),
    ("synthdata.generate_scene_ms", "ms"),
    ("synthdata.corrupt_to_seed_ms", "ms"),
    ("synthdata.encoder_fwd_ms", "ms"),
    ("synthdata.build_ignore_mask_ms", "ms"),
    ("decoder.forward_ms", "ms"),
    ("decoder.project_ms", "ms"),
    ("decoder.fuse_ms", "ms"),
    ("decoder.variance_ms", "ms"),
    ("decoder.refine_ms", "ms"),
    ("decoder.boundary_ms", "ms"),
    ("decoder.fuse_calls_per_forward", "count"),
    ("decoder.variance_calls_per_forward", "count"),
    ("losses.total_ms", "ms"),
    ("losses.mix_uncertainty_ms", "ms"),
    ("losses.ce_ms", "ms"),
    ("losses.dice_ms", "ms"),
    ("losses.het_ms", "ms"),
    ("losses.boundary_ms", "ms"),
    ("losses.sdf_ms", "ms"),
    ("geometry.boundary_band_ms", "ms"),
    ("geometry.signed_distance_ms", "ms"),
    ("geometry.distance_to_set_ms", "ms"),
    ("geometry.distance_to_set_calls", "count"),
    ("geometry.band_recompute_ratio", "ratio"),
    ("loop.adamw_ms", "ms"),
    ("loop.ema_update_ms", "ms"),
    ("loop.teacher_predict_ms", "ms"),
    ("loop.relabel_ms", "ms"),
    ("loop.relabel_events", "count"),
    ("loop.batch_wait_ms", "ms"),
    ("model.forward_ms", "ms"),
    ("model.predict_ms", "ms"),
    ("model.load_state_dict_calls", "count"),
    ("metrics.miou_ms", "ms"),
    ("metrics.boundary_f1_ms", "ms"),
    ("metrics.ece_ms", "ms"),
    ("metrics.structural_ms", "ms"),
    ("fileio.read_ms", "ms"),
    ("fileio.read_mb", "MB"),
    ("fileio.write_ms", "ms"),
    ("fileio.write_mb", "MB"),
    ("fileio.load_checkpoint_ms", "ms"),
    ("cli.eval_self_ms", "ms"),
]

_NO_EVAL = {"tensor.backward_ms", "synthdata.build_ignore_mask_ms",
            "geometry.boundary_band_ms", "geometry.band_recompute_ratio",
            "loop.adamw_ms", "loop.ema_update_ms", "loop.batch_wait_ms"}
_NO_TRAIN = {"model.predict_ms", "metrics.miou_ms", "metrics.boundary_f1_ms",
             "metrics.ece_ms", "metrics.structural_ms", "fileio.read_ms",
             "fileio.read_mb", "fileio.write_ms", "fileio.write_mb",
             "fileio.load_checkpoint_ms", "cli.eval_self_ms"}
_NO_SDF = {"losses.sdf_ms", "geometry.signed_distance_ms",
           "geometry.distance_to_set_ms", "geometry.distance_to_set_calls"}
_RELABEL = {"loop.teacher_predict_ms", "loop.relabel_ms", "loop.relabel_events",
            "model.load_state_dict_calls"}
_NO_VARIANCE = {"decoder.variance_ms", "decoder.refine_ms",
                "decoder.variance_calls_per_forward", "losses.het_ms",
                "losses.mix_uncertainty_ms", "loop.ema_update_ms"}

# Metrics that must read zero on a workload; every other metric must fire
# at least once in that workload's traced run.
EXPECTED_ABSENT = {
    "train-a6": _NO_TRAIN | _NO_SDF,
    "train-u0-sdf64": _NO_TRAIN | _RELABEL | _NO_VARIANCE,
    "eval-a6": (_NO_EVAL | _RELABEL | _NO_SDF
                | {m for m, _ in LAYER_METRICS if m.startswith("losses.")}),
}


class _Spans:
    """Indexes of one traced run's spans."""

    def __init__(self, tracer, window):
        rows = tracer.spans
        self.rows = rows
        self.window = window
        self.children = defaultdict(list)
        for i, r in enumerate(rows):
            if r[3] >= 0:
                self.children[r[3]].append(i)
        self.dur = [r[2] - r[1] for r in rows]

    def outermost(self, i):
        """False when an ancestor span has the same name (recursion)."""
        name, p = self.rows[i][0], self.rows[i][3]
        while p >= 0:
            if self.rows[p][0] == name:
                return False
            p = self.rows[p][3]
        return True

    def select(self, name, relabel=False):
        return [i for i, r in enumerate(self.rows)
                if r[0] == name and r[4] == self.window
                and (relabel is None or r[5] == relabel)]

    def total_s(self, name, relabel=False):
        return sum(self.dur[i] for i in self.select(name, relabel) if self.outermost(i))

    def self_s(self, i):
        return self.dur[i] - sum(self.dur[c] for c in self.children[i])


def layer_metrics(tracer: Tracer, units: int, scenes: int) -> dict:
    """Per-layer metrics of the traced units.

    ``units`` are the optimizer steps (train) or images (eval) in the
    "timed" windows and ``scenes`` the scenes generated in the "setup"
    window.
    """
    sp = _Spans(tracer, "timed")
    setup = _Spans(tracer, "setup")
    c = lambda name, scope="main": tracer.counters[("timed", scope, name)]  # noqa: E731
    per_unit = 1000.0 / units
    out = {}
    for name, unit in LAYER_METRICS:
        if name.endswith("_ms") and unit == "ms":
            span = name[:-3]
            out[name] = sp.total_s(span) * per_unit
    out["tensor.conv2d_calls"] = len(sp.select("tensor.conv2d")) / units
    out["tensor.conv2d_gflop"] = c("tensor.conv2d_gflop") / units
    out["tensor.bilinear_calls"] = len(sp.select("tensor.bilinear")) / units
    out["tensor.tape_nodes"] = c("tensor.tape_nodes") / units
    out["tensor.out_mb"] = c("tensor.out_bytes") / 1e6 / units
    out["tensor.f64_bytes_frac"] = c("tensor.f64_bytes") / max(c("tensor.out_bytes"), 1.0)
    forwards = len(sp.select("decoder.forward"))
    out["decoder.fuse_calls_per_forward"] = len(sp.select("decoder.fuse")) / max(forwards, 1)
    out["decoder.variance_calls_per_forward"] = (len(sp.select("decoder.variance"))
                                                 / max(forwards, 1))
    for name in ("synthdata.generate_scene", "synthdata.corrupt_to_seed"):
        out[name + "_ms"] = setup.total_s(name, relabel=None) * 1000.0 / max(scenes, 1)
    out["geometry.distance_to_set_calls"] = len(sp.select("geometry.distance_to_set")) / units
    # label maps are told apart within one unit: every unit starts afresh
    seen = sum(len(v) for (window, _), v in tracer.label_maps.items() if window == "timed")
    out["geometry.band_recompute_ratio"] = c("geometry.maps_computed") / seen if seen else 0.0

    # relabeling: per relabeled image, and relabel events per train call
    relabeled = len(sp.select("loop.teacher_predict", relabel=True))
    per_img = 1000.0 / max(relabeled, 1)
    out["loop.teacher_predict_ms"] = sp.total_s("loop.teacher_predict", relabel=True) * per_img
    out["loop.relabel_ms"] = sp.total_s("loop.relabel", relabel=None) * per_img
    out["model.load_state_dict_calls"] = (len(sp.select("model.load_state_dict", relabel=True))
                                          / max(relabeled, 1))
    events = 0
    for t in sp.select("loop.train"):
        prev = None
        for i in sorted(sp.children[t], key=lambda j: sp.rows[j][1]):
            name = sp.rows[i][0]
            if name == "loop.teacher_predict" and prev not in ("loop.teacher_predict",
                                                                 "loop.relabel"):
                events += 1
            prev = name
    out["loop.relabel_events"] = events / max(len(sp.select("loop.train")), 1)

    # the part of each step spent outside forward, loss, backward,
    # optimizer, EMA and relabeling: batch assembly and masking
    busy = {"model.forward", "losses.total", "tensor.backward", "loop.adamw",
            "loop.ema_update", "loop.teacher_predict", "loop.relabel"}
    wait = 0.0
    for t in sp.select("loop.train"):
        wait += sp.dur[t] - sum(sp.dur[i] for i in sp.children[t] if sp.rows[i][0] in busy)
    out["loop.batch_wait_ms"] = wait * per_unit

    out["fileio.read_mb"] = c("fileio.read_bytes") / 1e6 / units
    out["fileio.write_mb"] = c("fileio.write_bytes") / 1e6 / units
    out["cli.eval_self_ms"] = sum(sp.self_s(i) for i in sp.select("cli.eval")) * per_unit
    return {name: out[name] for name, _ in LAYER_METRICS}


def self_time_table(tracer: Tracer, units: int) -> list:
    """(span, self ms per unit, share of the timed window) for every span
    name in the timed window, largest first; relabel spans included."""
    sp = _Spans(tracer, "timed")
    total = defaultdict(float)
    window_s = 0.0
    for i, r in enumerate(sp.rows):
        if r[4] != "timed":
            continue
        total[r[0]] += sp.self_s(i)
        if r[0] == "bench.timed":
            window_s += sp.dur[i]
    rows = [(name, s * 1000.0 / units, s / window_s if window_s else 0.0)
            for name, s in total.items()]
    return sorted(rows, key=lambda r: -r[1])


def coverage(workload: str, metrics: dict) -> tuple[list, list]:
    """(missing, unexpected): metrics that should fire but read zero, and
    metrics expected absent that fired."""
    absent = EXPECTED_ABSENT[workload]
    missing = [m for m, _ in LAYER_METRICS if m not in absent and not metrics[m]]
    unexpected = [m for m, _ in LAYER_METRICS if m in absent and metrics[m]]
    return missing, unexpected
