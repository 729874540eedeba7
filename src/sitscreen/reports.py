"""JSON and CSV report emission.

Reports are plain dictionaries serialized with sorted keys and a fixed
indent, so identical runs produce byte-identical files; the only
non-deterministic field is ``timing``, which consumers exclude when
comparing.  Every report carries ``schema_version`` (bumped on breaking
changes) and echoes the full effective configuration, derived defaults
included, so a run can be replayed from its own report.

Non-finite thresholds are serialized as ``null`` in JSON; in the plot-data
CSV they appear as ``inf`` (readable by numpy and pandas).
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .fdr import Selection
from .screening import ScreeningResult
from .simlab import SimulationReport

SCHEMA_VERSION = 1

REPLICATION_CSV_HEADER = "rep,rule,model_size,fdp,all_active,mms"


def screen_report(
    result: ScreeningResult,
    outcome: Selection,
    selected: np.ndarray,
    names,
    effective_config: dict,
    timing_seconds: float,
) -> dict:
    """Full screening report: one record per covariate, sorted by rank."""
    ranks = result.ranks()
    threshold = float(outcome.realized_threshold)
    selected_mask = np.zeros(result.p, dtype=bool)
    selected_mask[np.asarray(selected, dtype=np.intp)] = True
    records = []
    for k in result.order:
        k = int(k)
        records.append(
            {
                "index": k,
                "name": names[k] if names is not None else None,
                "omega": float(result.omega[k]),
                "z": float(result.z[k]),
                "p_value": float(result.p_values[k]),
                "rank": int(ranks[k]),
                "selected": bool(selected_mask[k]),
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "screen",
        "config": effective_config,
        "calibration": dataclasses.asdict(result.calibration),
        "threshold": {
            "rule": outcome.rule,
            "realized_threshold": threshold if math.isfinite(threshold) else None,
            "num_selected": outcome.num_selected,
            "harmonic_constant": outcome.harmonic_constant,
        },
        "covariates": records,
        "timing": {"seconds": timing_seconds},
    }


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted only if a comma, quote or line
    break in it needs that (the csv module's minimal quoting)."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def plot_data_lines(result: ScreeningResult, selected, names, threshold) -> list[str]:
    """Scatterplot export: ``index,name,omega,selected`` rows, then the
    threshold row ``THRESHOLD,,<value>,`` (p + 1 lines, no header).  A name
    is quoted as CSV quotes it, so a name holding a line break spans lines."""
    selected_mask = np.zeros(result.p, dtype=bool)
    selected_mask[np.asarray(selected, dtype=np.intp)] = True
    omega = result.omega.tolist()  # floats: repr of a numpy scalar is not a number
    lines = []
    for k in range(result.p):
        name = _csv_field(names[k]) if names is not None else ""
        lines.append(f"{k},{name},{omega[k]!r},{int(selected_mask[k])}")
    value = threshold if math.isfinite(threshold) else math.inf
    lines.append(f"THRESHOLD,,{value!r},")
    return lines


def simulation_report_dict(
    report: SimulationReport, effective_config: dict, timing_seconds: float
) -> dict:
    per_rule = {}
    for label, summary in report.per_rule.items():
        per_rule[label] = {
            "selection_proportions": {
                str(k): v for k, v in summary.selection_proportions.items()
            },
            "p_all": summary.p_all,
            "ams": summary.ams,
            "mean_fdp": summary.mean_fdp,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "config": effective_config,
        "model": {
            "id": report.model_id,
            "active_set": list(report.active_set),
        },
        "criteria": {
            "mms_quantiles": report.mms_quantiles,
            "rank_consistent_proportion": report.rank_consistent_proportion,
            "p_a": report.p_a,
            "per_rule": per_rule,
        },
        "reps": report.reps,
        "timing": {"seconds": timing_seconds},
    }


def augment_report(
    original: dict, augmented: dict, overlap: dict, effective_config: dict,
    timing_seconds: float,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "augment-check",
        "config": effective_config,
        "original": original,
        "augmented": augmented,
        "overlap": overlap,
        "timing": {"seconds": timing_seconds},
    }


def replication_csv_rows(outcome) -> list[str]:
    rows = []
    for label in outcome.selections:
        rows.append(
            f"{outcome.rep_index},{label},{len(outcome.selections[label])},"
            f"{outcome.fdp[label]!r},{int(outcome.all_active[label])},{outcome.mms}"
        )
    return rows


def dump_json(payload: dict, path: str) -> None:
    """Serialize with sorted keys; write to ``path``, print it for ``-``."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
