"""Where the traced run cuts the program into layers, and what it reports.

:func:`install` wraps the public functions and methods that the code under
test calls, under the name its caller looks them up by (``peaks`` and
``training`` import ``melspectrogram`` by name, so both are wrapped).
:data:`PER_LAYER` turns the recorded spans into the per-layer metrics.

Operation kinds, opened by the workloads: ``ingest`` (one track into the
fingerprint DB), ``query`` (one excerpt through ``clip_clouds`` ->
``fingerprints`` -> ``sequence_match``), ``quad`` (the same excerpt through
``QuadDB.match``), ``step`` (one training step), ``infer`` (one batch through
the trained model), ``build`` (one IVFPQ build), ``exact`` and ``ivfpq`` (one
19-row ``sequence_match``).
A metric whose layer a workload never calls reads 0.
"""
from __future__ import annotations

import gc
import statistics

from tracer import Tracer, median_over

QUERY_OPS = ("query",)
FORWARD_OPS = ("query", "step")
EXACT_OPS = ("query", "exact")
BUILD_OPS = ("build",)


def install(tracer: Tracer) -> None:
    from peaknetfp import autodiff, encoder, index, quadfp, training
    from peaknetfp.signal import peaks

    w = tracer.wrap
    # signal
    w(peaks, "clip_clouds", "signal.clip_clouds", observe=lambda a, out: len(out))
    for mod in (peaks, training, quadfp):
        w(mod, "melspectrogram", "signal.melspectrogram")
    for mod in (peaks, training):
        w(mod, "extract_peaks", "signal.extract_peaks")
    # encoder
    w(encoder.PeakEncoder, "fingerprints", "encoder.fingerprints",
      observe=lambda a, out: len(out))
    w(encoder.PeakEncoder, "encode", lambda a, kw: (
        "encoder.encode_train" if kw.get("training", a[2] if len(a) > 2 else False)
        else "encoder.encode"))
    for fn in ("query_ball_group", "sample_anchors", "canonical_order"):
        w(encoder, fn, f"encoder.{fn}")
    # autodiff
    for fn in ("linear", "scale_bias", "batch_norm", "relu", "reduce_max",
               "gather_rows", "concat", "zero_grads", "adam_step"):
        w(autodiff, fn, f"autodiff.{fn}")
    w(autodiff.Tensor, "backward", "autodiff.backward")
    # training
    w(training, "build_batch", "training.build_batch", starts_op="step")
    w(training, "ntxent_loss", "training.ntxent_loss")
    w(training.SegmentDataset, "__init__", "training.dataset_build")
    w(gc, "collect", "training.gc_collect")
    # index
    db = index.FingerprintDB
    w(db, "search", "index.search")
    w(db, "add_track", "index.add_track")
    w(db, "save", "index.db_save")
    w(db, "load", "index.db_load")
    w(index, "sequence_match", "index.sequence_match")
    w(index, "alignment_score", "index.alignment_score")
    w(index, "kmeans", "index.kmeans")
    w(index.IVFPQIndex, "build", "index.ivfpq_build")
    w(index.IVFPQIndex, "search", "index.ivfpq_search")
    # quadfp
    q = quadfp.QuadDB
    w(q, "add_track", "quadfp.add_track")
    w(q, "query_quads", "quadfp.query_quads", observe=lambda a, out: len(out["hash"]))
    w(quadfp, "enumerate_quads", "quadfp.enumerate_quads")
    w(q, "candidates", "quadfp.candidates", observe=lambda a, out: len(out))
    w(q, "match_quads", "quadfp.match_quads",
      observe=lambda a, out: out[0].votes if out else 0)


def _op_ms(kinds, fn):
    return lambda t: 1000.0 * median_over(t.ops(kinds), fn)


def _self_ms(span, kinds=FORWARD_OPS):
    return _op_ms(kinds, lambda v: v.self_time(span))


def _per_segment_ms(kinds):
    span = "encoder.fingerprints"
    return _op_ms(kinds, lambda v: v.total(span) / max(v.value(span), 1.0))


def _per_call_ms(span):
    def fn(t):
        calls = t.run().per_call(span)
        return 1000.0 * statistics.median(calls) if calls else 0.0
    return fn


def _vote_share(v):
    hits = v.value("quadfp.candidates")
    return v.value("quadfp.match_quads") / hits if hits else 0.0


# name -> (unit, metric from a finished Tracer)
PER_LAYER = {
    "signal.clip_clouds_ms": ("ms", _op_ms(QUERY_OPS, lambda v: v.total("signal.clip_clouds"))),
    "signal.melspectrogram_self_ms": ("ms", _self_ms("signal.melspectrogram")),
    "signal.extract_peaks_self_ms": ("ms", _self_ms("signal.extract_peaks")),
    "signal.segments_per_query": ("count", lambda t: median_over(
        t.ops(QUERY_OPS), lambda v: v.value("signal.clip_clouds"))),
    "encoder.infer_ms_per_segment": ("ms", _per_segment_ms(("query", "infer"))),
    "encoder.ingest_ms_per_segment": ("ms", _per_segment_ms(("ingest",))),
    "encoder.query_ball_group_self_ms": ("ms", _self_ms("encoder.query_ball_group")),
    "encoder.sample_anchors_self_ms": ("ms", _self_ms("encoder.sample_anchors")),
    "encoder.canonical_order_self_ms": ("ms", _self_ms("encoder.canonical_order")),
    "autodiff.linear_self_ms": ("ms", _self_ms("autodiff.linear")),
    "autodiff.scale_bias_self_ms": ("ms", _self_ms("autodiff.scale_bias")),
    "autodiff.batch_norm_self_ms": ("ms", _self_ms("autodiff.batch_norm")),
    "autodiff.relu_self_ms": ("ms", _self_ms("autodiff.relu")),
    "autodiff.reduce_max_self_ms": ("ms", _self_ms("autodiff.reduce_max")),
    "autodiff.gather_rows_self_ms": ("ms", _self_ms("autodiff.gather_rows")),
    "autodiff.concat_self_ms": ("ms", _self_ms("autodiff.concat")),
    "training.build_batch_ms": ("ms", _op_ms(("step",), lambda v: v.total("training.build_batch"))),
    "encoder.encode_train_ms": ("ms", _op_ms(("step",), lambda v: v.total("encoder.encode_train"))),
    "training.ntxent_loss_ms": ("ms", _op_ms(("step",), lambda v: v.total("training.ntxent_loss"))),
    "autodiff.zero_grads_ms": ("ms", _op_ms(("step",), lambda v: v.total("autodiff.zero_grads"))),
    "autodiff.backward_ms": ("ms", _op_ms(("step",), lambda v: v.total("autodiff.backward"))),
    "autodiff.adam_step_ms": ("ms", _op_ms(("step",), lambda v: v.total("autodiff.adam_step"))),
    "training.gc_collect_ms": ("ms", _op_ms(("step",), lambda v: v.total("training.gc_collect"))),
    "training.dataset_build_s": ("s", lambda t: t.run().total("training.dataset_build")),
    "index.search_ms": ("ms", _op_ms(EXACT_OPS, lambda v: v.total("index.search"))),
    "index.sequence_match_self_ms": ("ms", _self_ms("index.sequence_match", EXACT_OPS)),
    "index.alignment_score_calls": ("count", lambda t: median_over(
        t.ops(EXACT_OPS), lambda v: v.calls("index.alignment_score"))),
    "index.alignment_score_self_ms": ("ms", _self_ms("index.alignment_score", EXACT_OPS)),
    "index.add_track_s": ("s", lambda t: t.run().total("index.add_track")),
    "index.db_save_ms": ("ms", _per_call_ms("index.db_save")),
    "index.db_load_ms": ("ms", _per_call_ms("index.db_load")),
    "index.kmeans_s": ("s", lambda t: median_over(
        t.ops(BUILD_OPS), lambda v: v.total("index.kmeans"))),
    "index.kmeans_calls": ("count", lambda t: median_over(
        t.ops(BUILD_OPS), lambda v: v.calls("index.kmeans"))),
    "index.ivfpq_build_self_s": ("s", lambda t: median_over(
        t.ops(BUILD_OPS), lambda v: v.self_time("index.ivfpq_build"))),
    "index.ivfpq_search_ms": ("ms", _op_ms(("ivfpq",), lambda v: v.total("index.ivfpq_search"))),
    "quadfp.query_quads_ms": ("ms", _op_ms(("quad",), lambda v: v.total("quadfp.query_quads"))),
    "quadfp.enumerate_quads_self_ms": ("ms", _self_ms("quadfp.enumerate_quads", ("quad",))),
    "quadfp.candidates_self_ms": ("ms", _self_ms("quadfp.candidates", ("quad",))),
    "quadfp.match_quads_self_ms": ("ms", _self_ms("quadfp.match_quads", ("quad",))),
    "quadfp.quads_per_query": ("count", lambda t: median_over(
        t.ops(("quad",)), lambda v: v.value("quadfp.query_quads"))),
    "quadfp.candidate_hits_per_query": ("count", lambda t: median_over(
        t.ops(("quad",)), lambda v: v.value("quadfp.candidates"))),
    "quadfp.top1_vote_share": ("ratio", lambda t: median_over(t.ops(("quad",)), _vote_share)),
    "quadfp.add_track_ms": ("ms", _per_call_ms("quadfp.add_track")),
}


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    return {name: (float(fn(tracer)), unit) for name, (unit, fn) in PER_LAYER.items()}
