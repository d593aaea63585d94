"""Which calls into the package belong to which layer, and the per-layer
metrics derived from their spans.

Layers are the package modules.  Each function is wrapped where its callers
look it up (``uplrec.trainer.validation_dcg``, ``uplrec.experiment.train``,
...), not only where it is defined, because ``from x import f`` copies the
name into the importing module.  ``propensity``, ``factor_model`` and ``cli``
are left out: their calls are negligible or happen only during set-up.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import Tracer, covered_s, enclosing, self_times

LAYERS = ("datasets", "losses", "trainer", "evaluation", "experiment", "oracle")

PAIR_WEIGHTS = ("upl_pair_weight", "ubpr_pair_weight", "clip_term")
ADAM_ARRAYS_TOUCHED = 7  # read param, m, v and grad; write param, m and v


def _arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs.get(keyword)


def _train_name(args, kwargs) -> str:
    spec = _arg(args, kwargs, 2, "loss_spec")
    return "trainer.train.pair" if getattr(spec, "is_pairwise", False) \
        else "trainer.train.point"


def _adam_work(args, kwargs, result):
    user_rows = _arg(args, kwargs, 2, "user_rows")
    item_rows = _arg(args, kwargs, 4, "item_rows")
    grads = _arg(args, kwargs, 5, "item_grads")
    rows = len(user_rows) + len(item_rows)
    return rows, rows * grads.shape[-1] * grads.itemsize * ADAM_ARRAYS_TOUCHED


def _users_with_positive(args, kwargs, result):
    """Validation users that validation_dcg ranks: those with a click."""
    validation = _arg(args, kwargs, 1, "validation")
    clicked = validation.users[validation.rel == 1]
    return int(np.count_nonzero(np.bincount(clicked, minlength=validation.num_users)))


def _users_with_items(args, kwargs, result):
    """Test users that evaluate ranks: those with a test item."""
    test = _arg(args, kwargs, 1, "test")
    return int(np.count_nonzero(np.bincount(test.users, minlength=test.num_users)))


def instrument(tracer: Tracer):
    """Wrap every traced call site that the installed package has."""
    from uplrec import datasets, experiment, oracle, trainer

    for module in (trainer, experiment):
        tracer.wrap(module, "train", _train_name,
                    count=lambda a, k, r: r.epochs_trained)
    tracer.wrap(trainer.AdamState, "update", "trainer.AdamState.update", count=_adam_work)

    for module in (trainer, oracle):
        for fn in PAIR_WEIGHTS:
            tracer.wrap(module, fn, f"losses.{fn}")
        tracer.wrap(module, "sigmoid_pair_loss", "losses.sigmoid_pair_loss",
                    count=lambda a, k, r: np.size(_arg(a, k, 0, "s_i")))
        tracer.wrap(module, "pointwise_loss", "losses.pointwise_loss",
                    count=lambda a, k, r: np.size(_arg(a, k, 2, "s")))
    tracer.wrap(oracle, "pair_term", "losses.pair_term")

    for method in ("is_clicked", "is_exposed"):
        tracer.wrap(datasets.ImplicitDataset, method, f"datasets.{method}",
                    count=lambda a, k, r: np.size(r))
    for fn in ("load_triplets", "generate_semi_synthetic", "split_validation"):
        tracer.wrap(experiment, fn, f"datasets.{fn}")

    tracer.wrap(trainer, "validation_dcg", "evaluation.validation_dcg",
                count=_users_with_positive)
    tracer.wrap(experiment, "evaluate", "evaluation.evaluate", count=_users_with_items)

    for fn in ("prepare_datasets", "save_prepared", "write_aggregates", "train_method"):
        tracer.wrap(experiment, fn, f"experiment.{fn}")

    tracer.wrap(oracle, "verification_suite", "oracle.verification_suite")
    tracer.wrap(oracle, "exact_expectation", "oracle.exact_expectation",
                count=lambda a, k, r: 4 ** _arg(a, k, 0, "world").num_cells)
    for fn in ("mc_bias_variance", "variance_order_test"):
        tracer.wrap(oracle, fn, f"oracle.{fn}")
    tracer.wrap(oracle, "sample_clicks", "oracle.sample_clicks",
                count=lambda a, k, r: int(_arg(a, k, 1, "samples")))


def metrics(spans, traced_s: float, untraced_s: float, minor_faults: int) -> dict:
    """Per-layer metrics of one traced repetition, as {name: (value, unit)}.

    Per-epoch figures count only spans inside a train() call and divide by
    the epochs those calls trained; a workload that trains nothing reports 0
    for them, as it does for every layer it does not call.  A layer's
    ``self_s`` is the self time of all its spans.  Less obvious ones:

    * ``datasets.probes_per_sample``: cells passed to is_clicked/is_exposed
      inside training (rejection-sampler probes plus the c_j lookup) per
      sample the loss functions received.
    * ``trainer.adam_bytes_per_step``: rows touched per Adam step x d x 8
      bytes x 7 arrays, the traffic of a fused row update.
    * ``trainer.pair_epoch_ms``/``point_epoch_ms``: median over train()
      spans of span time per epoch, tracing overhead included.
    * ``trace.overhead_s``: traced minus median untraced repetition wall
      time; ``trace.uncovered_s``: traced wall time outside every span.
    * ``trace.minor_faults``: page faults of the process during the traced
      repetition: memory touched for the first time, or handed back to the
      kernel by the allocator and touched again.
    """
    own = self_times(spans)
    in_train = enclosing(spans, lambda s: s.name.startswith("trainer.train."))
    in_job = enclosing(spans, lambda s: s.name == "experiment.train_method")

    kinds = [spans[t].name.rsplit(".", 1)[1] if t >= 0 else None for t in in_train]

    def total(pred, measure=lambda k, s: s.duration_s):
        return sum(measure(k, s) for k, s in enumerate(spans) if pred(k, s))

    def count(k, s):
        return s.count if isinstance(s.count, (int, np.integer)) else 0

    def named(*names, within=("pair", "point")):
        return lambda k, s: s.name in names and kinds[k] in within

    def per(value, base, scale=1.0):
        return value * scale / base if base else 0.0

    def layer_self(layer):
        return sum(own[k] for k, s in enumerate(spans) if s.name.split(".", 1)[0] == layer)

    is_train = [t == k for k, t in enumerate(in_train)]
    trains = [s for s, yes in zip(spans, is_train) if yes]
    pair_epochs = sum(s.count or 0 for s in trains if s.name.endswith(".pair"))
    point_epochs = sum(s.count or 0 for s in trains if s.name.endswith(".point"))
    epochs = pair_epochs + point_epochs
    updates = [s.count for s in spans if s.name == "trainer.AdamState.update" and s.count]
    samples = total(named("losses.sigmoid_pair_loss", "losses.pointwise_loss"), count)
    probes = total(named("datasets.is_clicked", "datasets.is_exposed"), count)

    def epoch_ms(suffix):
        per_call = [s.duration_s * 1e3 / s.count for s in trains
                    if s.name.endswith(suffix) and s.count]
        return statistics.median(per_call) if per_call else 0.0

    out = {
        "trainer.step_self_ms_per_epoch": (
            per(sum(t for t, yes in zip(own, is_train) if yes), epochs, 1e3), "ms"),
        "trainer.adam_ms_per_epoch": (
            per(total(lambda k, s: s.name == "trainer.AdamState.update"), epochs, 1e3), "ms"),
        "trainer.adam_rows_per_step": (
            per(sum(r for r, _ in updates), len(updates)), "count"),
        "trainer.adam_bytes_per_step": (
            per(sum(b for _, b in updates), len(updates)), "bytes"),
        "trainer.pair_epoch_ms": (epoch_ms(".pair"), "ms"),
        "trainer.point_epoch_ms": (epoch_ms(".point"), "ms"),
        "losses.pair_ms_per_epoch": (
            per(total(named("losses.sigmoid_pair_loss", *(f"losses.{f}" for f in PAIR_WEIGHTS),
                            within=("pair",))),
                pair_epochs, 1e3), "ms"),
        "losses.point_ms_per_epoch": (
            per(total(named("losses.pointwise_loss", within=("point",))),
                point_epochs, 1e3), "ms"),
        "losses.samples_per_epoch": (per(samples, epochs), "count"),
        "datasets.probe_ms_per_epoch": (
            per(total(named("datasets.is_clicked", "datasets.is_exposed")), epochs, 1e3), "ms"),
        "datasets.probes_per_sample": (per(probes, samples), "ratio"),
        "evaluation.validation_ms_per_epoch": (
            per(total(lambda k, s: s.name == "evaluation.validation_dcg"), epochs, 1e3), "ms"),
        "evaluation.evaluate_ms": (
            total(lambda k, s: s.name == "evaluation.evaluate") * 1e3, "ms"),
        "evaluation.users_ranked": (
            total(lambda k, s: s.name.startswith("evaluation."), count), "count"),
        "experiment.prepare_s": (
            total(lambda k, s: s.name == "experiment.prepare_datasets"), "s"),
        "experiment.write_s": (
            total(lambda k, s: s.name in ("experiment.save_prepared",
                                          "experiment.write_aggregates")), "s"),
        "experiment.jobs": (
            sum(1 for s in spans if s.name == "experiment.train_method"), "count"),
        "experiment.epochs": (
            sum(s.count or 0 for k, s in enumerate(spans) if is_train[k] and in_job[k] >= 0),
            "count"),
        "oracle.exact_self_s": (
            sum(own[k] for k, s in enumerate(spans) if s.name == "oracle.exact_expectation"),
            "s"),
        "oracle.outcomes": (
            total(lambda k, s: s.name == "oracle.exact_expectation", count), "count"),
        "oracle.pair_term_calls": (
            sum(1 for s in spans if s.name == "losses.pair_term"), "count"),
        "oracle.mc_self_s": (
            sum(own[k] for k, s in enumerate(spans)
                if s.name in ("oracle.mc_bias_variance", "oracle.variance_order_test",
                              "oracle.sample_clicks")), "s"),
        "oracle.mc_samples": (
            total(lambda k, s: s.name == "oracle.sample_clicks", count), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self(layer), "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.uncovered_s"] = (traced_s - covered_s(spans), "s")
    out["trace.spans"] = (len(spans), "count")
    out["trace.minor_faults"] = (minor_faults, "count")
    return out
