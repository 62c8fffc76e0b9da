"""Correctness checks on a workload's outputs.

Each check compares against an independent computation or a property the
method must have, never against a stored copy of earlier output.  Each
returns a list of failure messages; an empty list means it passed.
"""

import math

import numpy as np

AP_TOLERANCE = 1e-9
PLANTED_SHARE = 0.90


def losses_finite(rows) -> list[str]:
    """Per-epoch means are finite exactly when every episode's loss is."""
    return [f"epoch {row.epoch}: non-finite loss (cm {row.cm_loss}, query {row.query_loss})"
            for row in rows
            if not all(math.isfinite(v) for v in (row.cm_loss, row.query_loss, row.total_loss))]


def smoothed_loss_falls(totals, epochs=10, window=3) -> list[str]:
    """The window-3 moving average of per-epoch total loss falls strictly
    across the first ten epochs."""
    if len(totals) < epochs:
        return [f"only {len(totals)} epochs, the loss check needs {epochs}"]
    smoothed = [float(np.mean(totals[max(0, i - window + 1):i + 1])) for i in range(epochs)]
    return [f"smoothed loss rose at epoch {i + 1}: {smoothed}"
            for i, (earlier, later) in enumerate(zip(smoothed, smoothed[1:])) if later >= earlier]


def gradient_suite_passes(results) -> list[str]:
    return [f"gradient check {r.name}: error {r.max_error:.3e} > {r.tolerance:.0e}"
            for r in results if not r.passed]


def same_bytes(first: bytes, second: bytes, what: str) -> list[str]:
    return [] if first == second else [f"{what}: bytes differ"]


def same_arrays(expected: dict, got: dict, what: str) -> list[str]:
    """Bitwise equality of two name -> array maps."""
    problems = [f"{what}: names differ"] if set(expected) != set(got) else []
    problems += [f"{what}: {name} differs" for name in sorted(set(expected) & set(got))
                 if np.asarray(expected[name]).tobytes() != np.asarray(got[name]).tobytes()]
    return problems


def base_beats_ablation(base_macro_ap, simple_macro_ap) -> list[str]:
    if base_macro_ap > simple_macro_ap:
        return []
    return [f"base macro AP {base_macro_ap:.4f} does not beat simple-attention {simple_macro_ap:.4f}"]


def report_matches(expected: dict, report: dict, tolerance=AP_TOLERANCE) -> list[str]:
    """Micro/macro AP and F1 of the program's report against the oracle's."""
    return [f"{key}: report {report[key]!r}, reference {expected[key]!r}"
            for key in ("micro_ap", "macro_ap", "micro_f1", "macro_f1")
            if not abs(report[key] - expected[key]) <= tolerance]


def masks_follow_sigma(detail, theta) -> list[str]:
    """Every mask keeps exactly the cells with sigma >= theta, or every cell
    when none clears theta."""
    problems = []
    for entry in detail:
        clears = np.asarray(entry["sigma"]) >= theta
        want = clears if clears.any() else np.ones_like(clears)
        if not np.array_equal(np.asarray(entry["mask"], dtype=bool), want):
            problems.append(f"image {entry['image_id']}: mask disagrees with sigma >= {theta}")
    return problems


def importance_in_unit_range(detail) -> list[str]:
    problems = []
    for entry in detail:
        values = np.asarray(entry["importance"])
        if values.min() < 0.0 or values.max() != 1.0:
            problems.append(f"image {entry['image_id']}: importance spans "
                            f"[{values.min()}, {values.max()}], want within [0, 1] with max 1")
    return problems


def planted(cells, image_id) -> np.ndarray:
    """Boolean grid of the cells where a label signature was planted."""
    return np.array([[label is not None for label in row] for row in cells[image_id]])


def planted_cells_score_higher(detail, cells, share=PLANTED_SHARE) -> list[str]:
    """Planted cells get a higher mean sigma than noise cells in at least
    `share` of the support images."""
    wins = 0
    for entry in detail:
        truth = planted(cells, entry["image_id"])
        sigma = np.asarray(entry["sigma"])
        wins += sigma[truth].mean() > sigma[~truth].mean()
    if detail and wins >= share * len(detail):
        return []
    return [f"planted cells score higher in {wins}/{len(detail)} support images, "
            f"want at least {share:.0%}"]


def lcm_not_below_base(lcm_macro_ap, base_macro_ap) -> list[str]:
    if lcm_macro_ap >= base_macro_ap:
        return []
    return [f"lcm macro AP {lcm_macro_ap:.4f} below base {base_macro_ap:.4f} on the same episodes"]
