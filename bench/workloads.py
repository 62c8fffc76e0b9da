"""The three workloads: their rounds, timed loop, checks and per-layer numbers.

- train-desk: episodic training from the seeded init at the desk config
  (30 epochs x 16 episodes), then the checkpoint save.  The only workload
  with backward passes and Adam steps on the model; LCM never runs.
- eval-base: base-mode evaluation of the fixture checkpoint on the novel
  split, 50 episodes a round.  Forward only.
- eval-lcm: lcm-mode evaluation of the same checkpoint on the same seeded
  episodes.  Most of its time is importance fitting.

A round is one ``train`` or one ``evaluate`` call, as one CLI call makes it,
and every round of a run repeats the same seeded work.  A run times whole
rounds, at least one, and starts no round that a round as long as the last
would carry past its seconds.  An episode starts when the program
calls its episode sampler and ends when the next one starts or the round
returns.
"""

import json
import logging
import resource
import statistics
import time
from pathlib import Path

import numpy as np
from mlfewshot import lcm, metrics, optim, training, verification
from mlfewshot import model as model_io
from mlfewshot.config import canonical_dict

import checks
import fixture
import reference
from tracing import Tracer

MARKER = "episodes.sample_episode_with_retries"
ROUND_SPAN = {"train-desk": "training.train", "eval-base": "metrics.evaluate",
              "eval-lcm": "metrics.evaluate"}
SCORING = ("metrics.average_precision", "metrics.micro_average_precision",
           "metrics.macro_average_precision", "metrics.per_label_average_precision",
           "metrics.f1_scores")
# lcm per-layer shares; they read 0 where LCM does not run
LCM_SHARES = ("lcm.masks_selected_share", "lcm.kept_cell_share", "lcm.kept_precision",
              "lcm.kept_recall")


def train_round(inputs, cfg, checkpoint, model=None):
    """Train from the seeded init and save the checkpoint, as ``mlfewshot train`` does."""
    model = model if model is not None else fixture.build_model(inputs, cfg)
    optimizer = optim.Adam(model.named_parameters(), cfg.lr)
    settings = training.TrainSettings(
        epochs=cfg.epochs, warmup_epochs=cfg.warmup_epochs,
        episodes_per_epoch=cfg.episodes_per_epoch, k_shot=cfg.k_shot, lr=cfg.lr,
        gamma=cfg.gamma, seed=cfg.seed, normalize_embeddings=cfg.normalize_embeddings)
    result = training.train(model, inputs.manifest, inputs.vocabulary, inputs.table, settings,
                            store=inputs.store, optimizer=optimizer)
    model_io.save_checkpoint(checkpoint, model, optimizer=optimizer,
                             config_scalars=canonical_dict(cfg))
    return result


def eval_round(inputs, cfg, mode, model=None):
    """One seeded evaluation on the novel split, as ``mlfewshot eval`` runs it."""
    lcm_config = lcm.LcmConfig(threshold=cfg.theta, learning_rate=cfg.lcm_lr,
                               epochs=cfg.lcm_epochs)
    return metrics.evaluate(
        model if model is not None else inputs.model, inputs.manifest, inputs.vocabulary,
        inputs.table, split="novel", episodes=cfg.eval_episodes, k_shot=cfg.k_shot,
        seed=cfg.seed, mode=mode, theta=cfg.theta, lcm_config=lcm_config, store=inputs.store,
        normalize_embeddings=cfg.normalize_embeddings, collect_detail=mode == "lcm",
        threads=cfg.threads)


class WarningCount(logging.Handler):
    """Counts mlfewshot's log warnings instead of printing one line each."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def cpu_steal_ticks():
    """Machine-wide CPU steal ticks from /proc/stat, or None where absent."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload, inputs, cfg, seconds, traced, scratch: Path) -> dict:
    """Time whole rounds for `seconds`, then check the outputs untimed."""
    mode = workload.split("-")[1]
    keep = {MARKER: cfg.eval_episodes} if workload == "eval-base" else None
    tracer = Tracer(only=None if traced else (MARKER, ROUND_SPAN[workload]), keep=keep)
    # rounds repeat the same work; only the last round's outputs are kept
    # whole, so that memory does not grow with the number of rounds
    reports, checkpoints, last = [], [], None
    model = inputs.model
    if workload == "train-desk":
        inputs.model = None  # the first round trains it; later rounds start afresh
    steal_before = cpu_steal_ticks()
    tracer.install()
    try:
        started = time.perf_counter()
        while True:
            round_started = time.perf_counter()
            last = None
            if workload == "train-desk":
                checkpoints.append(scratch / f"round{len(checkpoints)}.ckpt")
                last = train_round(inputs, cfg, checkpoints[-1], model)
                model = None
            else:
                last = eval_round(inputs, cfg, mode)
                reports.append(json.dumps(last[0].to_dict(), sort_keys=True))
            now = time.perf_counter()
            # stop before a round like the last one would overrun the window
            if (now - started) + (now - round_started) > seconds:
                break
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steal_after = cpu_steal_ticks()

    durations = tracer.episode_seconds(MARKER, ROUND_SPAN[workload])
    episodes = len(durations)
    out = {
        "rounds": len(checkpoints) + len(reports),
        "episodes": episodes,
        "wall_s": wall,
        "cpu_steal_ticks": None if steal_before is None or steal_after is None
        else steal_after - steal_before,
        "end_to_end": {
            "episodes_per_s": episodes / wall,
            "episode_ms.p50": 1000.0 * statistics.median(durations),
            "episode_ms.p90": 1000.0 * _quantile(durations, 90),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if workload == "train-desk":
        failures, facts = _check_training(inputs, cfg, last, checkpoints, scratch)
    elif workload == "eval-base":
        failures, facts = _check_base(inputs, last[0], reports, tracer.results[MARKER])
    else:
        failures, facts = _check_lcm(inputs, cfg, last, reports)
    out["failures"] = failures
    out["facts"] = facts
    if traced:
        out["per_layer"] = layer_metrics(tracer, episodes)
        out["per_layer"].update({k: facts.get(k, 0.0) for k in LCM_SHARES})
    return out


# ------------------------------------------------------------------ checks


def _check_training(inputs, cfg, result, checkpoints, scratch):
    failures = checks.losses_finite(result.rows)
    failures += checks.smoothed_loss_falls([row.total_loss for row in result.rows])
    failures += checks.gradient_suite_passes(verification.run_suite())

    # round trip: what was saved loads back bitwise and saves to the same bytes
    saved = checkpoints[-1].read_bytes()
    for earlier in checkpoints[:-1]:
        failures += checks.same_bytes(saved, earlier.read_bytes(), "checkpoint of a repeated round")
    loaded, extras = model_io.load_checkpoint(checkpoints[-1])
    optimizer = optim.Adam(loaded.named_parameters(), cfg.lr)
    optimizer.load_state_tensors(extras)
    failures += checks.same_arrays({n: p.data for n, p in result.model.named_parameters().items()},
                                   {n: p.data for n, p in loaded.named_parameters().items()},
                                   "loaded parameters")
    failures += checks.same_arrays(result.optimizer.state_tensors(), optimizer.state_tensors(),
                                   "loaded optimizer state")
    resaved = scratch / "resaved.ckpt"
    config = {k[len("config."):]: float(v) for k, v in extras.items() if k.startswith("config.")}
    model_io.save_checkpoint(resaved, loaded, optimizer=optimizer, config_scalars=config)
    failures += checks.same_bytes(saved, resaved.read_bytes(), "checkpoint saved after loading")

    # recorded, not gated: it fails on some seeds (see README)
    base, _ = eval_round(inputs, cfg, "base", model=result.model)
    simple, _ = eval_round(inputs, cfg, "simple-attention", model=result.model)
    facts = {"final_total_loss": result.rows[-1].total_loss,
             "novel_macro_ap": {"base": base.macro_ap, "simple-attention": simple.macro_ap},
             "base_beats_ablation": not checks.base_beats_ablation(base.macro_ap, simple.macro_ap)}
    return failures, facts


def _same_reports(reports) -> list[str]:
    return [f"round {i} report differs from round 0" for i, report in enumerate(reports)
            if report != reports[0]]


def _check_base(inputs, report, reports, sampled):
    failures = _same_reports(reports)
    bundle = inputs.bundle
    base = reference.BaseModel(reference.read_checkpoint(bundle / "model.ckpt"))
    embeddings = reference.read_embeddings(bundle / "embeddings.txt")
    files = {r.image_id: bundle / r.features for r in inputs.manifest.records}
    fmaps = {}

    def fmap(image_id):
        if image_id not in fmaps:
            fmaps[image_id] = reference.read_feature_map(files[image_id])
        return fmaps[image_id]

    per_episode = [reference.episode_metrics(base.probabilities(e, fmap, embeddings), e.query_targets)
                   for e in sampled]
    expected = reference.mean_metrics(per_episode)
    failures += checks.report_matches(expected, report.to_dict())
    return failures, {"report": report.to_dict(), "reference": expected}


def lcm_selection(detail, cells, theta) -> dict[str, float]:
    """How much of the fitted selection is used, and how well kept cells
    match the planted ones."""
    masks = [np.asarray(e["mask"], dtype=bool) for e in detail]
    truth = [checks.planted(cells, e["image_id"]) for e in detail]
    selected = sum(bool((np.asarray(e["sigma"]) >= theta).any()) for e in detail)
    kept = sum(int(m.sum()) for m in masks)
    hits = sum(int((m & t).sum()) for m, t in zip(masks, truth))
    planted_total = sum(int(t.sum()) for t in truth)
    return {
        "lcm.masks_selected_share": selected / len(detail),
        "lcm.kept_cell_share": kept / sum(m.size for m in masks),
        "lcm.kept_precision": hits / kept,
        "lcm.kept_recall": hits / planted_total,
    }


def _check_lcm(inputs, cfg, last, reports):
    report, detail = last
    cells = json.loads((inputs.bundle / "cells.json").read_text(encoding="utf-8"))
    failures = _same_reports(reports)
    failures += checks.masks_follow_sigma(detail, cfg.theta)
    failures += checks.importance_in_unit_range(detail)
    failures += checks.planted_cells_score_higher(detail, cells)
    # recorded, not gated: it fails on some seeds (see README)
    base, _ = eval_round(inputs, cfg, "base")
    facts = {"macro_ap": {"lcm": report.macro_ap, "base": base.macro_ap},
             "lcm_not_below_base": not checks.lcm_not_below_base(report.macro_ap, base.macro_ap),
             "support_images": len(detail), **lcm_selection(detail, cells, cfg.theta)}
    return failures, facts


# ------------------------------------------------------------------ per layer


def layer_metrics(tracer, episodes) -> dict[str, float]:
    """Per-episode means of each layer's time and counts, from the traced run."""
    def per_episode_ms(name):
        return 1000.0 * tracer.total_seconds(name) / episodes

    def per_call_ms(name):
        spans = tracer.named(name)
        return 1000.0 * sum(s.seconds for s in spans) / len(spans) if spans else 0.0

    def calls(name):
        return len(tracer.named(name)) / episodes

    out = {
        "episodes.sample_ms": per_episode_ms(MARKER),
        "episodes.sample_attempts": calls("episodes.sample_episode"),
        "joint_space.cm_loss_ms": per_episode_ms("joint_space.cm_loss"),
        "model.local_feature_rows_ms": per_episode_ms("model.local_feature_rows"),
        "model.build_pools_ms": per_episode_ms("model.build_pools"),
        "model.score_against_ms": per_episode_ms("model.score_against"),
        "model.score_against_calls": calls("model.score_against"),
        "model.save_checkpoint_ms": per_call_ms("model.save_checkpoint"),
        "prototypes.build_prototype_ms": per_episode_ms("prototypes.build_prototype"),
        "prototypes.attention_prototype_ms": per_episode_ms("prototypes.attention_prototype"),
        "prototypes.select_top_features_ms": per_episode_ms("prototypes.select_top_features"),
        "prototypes.dynconv_prototype_ms": per_episode_ms("prototypes.dynconv_prototype"),
        "autodiff.backward_ms": per_episode_ms("autodiff.backward"),
        "autodiff.backward_calls": calls("autodiff.backward"),
        "autodiff.op_calls": sum(tracer.op_calls.values()) / episodes,
        "optim.step_ms": per_episode_ms("optim.step"),
        "optim.step_calls": calls("optim.step"),
        "lcm.fit_importance_ms": per_call_ms("lcm.fit_importance"),
        "lcm.fit_importance_calls": calls("lcm.fit_importance"),
        "metrics.scoring_ms": 1000.0 * tracer.outermost_seconds(SCORING) / episodes,
        "metrics.evaluate_self_ms": 1000.0 * tracer.self_seconds("metrics.evaluate") / episodes,
        "training.train_self_ms": 1000.0 * tracer.self_seconds("training.train") / episodes,
    }
    for op, count in tracer.op_calls.items():
        out[f"autodiff.op_calls.{op}"] = count / episodes
    return out
