"""Known cross-validation answers for every model family, and the command that
rewrites them.

The corpus is fixed: ``synth`` with 5 performers, 600 notes and seed 11,
rendered in memory (no SMF round trip), split into 4 groups. Histogram and
KDE CV use all five feature kinds; GMM CV uses IOI and ND only, which keeps
its fits to a few seconds. For each family ``tests/known_answers.json`` holds
every trial's predicted performer and every per-kind KL, which
``test_known_answers.py`` checks: predictions exactly, KLs to a relative
``KL_RTOL``, so that numpy versions that differ in the last bits agree.

A change that moves these results on purpose rewrites the file with

    PYTHONPATH=src python tests/known_answers.py

and states the old and new macro precision of each family that moved.
"""

from __future__ import annotations

import json
from pathlib import Path

from pianist_id import DeviationDataset, ExperimentConfig, build_table, run_cv, synth

PATH = Path(__file__).with_name("known_answers.json")

CORPUS = {"performers": 5, "notes": 600, "seed": 11, "groups": 4}
FEATURE_SETS = {
    "histogram": ("OT", "IOI", "OTD", "DL", "ND"),
    "kde": ("OT", "IOI", "OTD", "DL", "ND"),
    "gmm": ("IOI", "ND"),
}
KL_RTOL = 1e-9


def dataset() -> DeviationDataset:
    score = synth.generate_score(CORPUS["notes"], CORPUS["seed"])
    profiles = synth.default_profiles(CORPUS["performers"], base_seed=CORPUS["seed"])
    performances = [
        synth.render_performer(score, profile, f"p{i + 1}") for i, profile in enumerate(profiles)
    ]
    table, _ = build_table(performances)
    return DeviationDataset.from_table(table)


def answers(data: DeviationDataset, family: str) -> dict:
    """One family's CV results: the macro precision, and per trial the
    prediction and the KL of each kind against each candidate, in id order."""
    config = ExperimentConfig(
        model_family=family,
        feature_set=FEATURE_SETS[family],
        n_groups=CORPUS["groups"],
        seed=CORPUS["seed"],
    )
    report = run_cv(data, config)
    return {
        "macro_precision": report.scores.macro_precision,
        "trials": [
            {
                "performer": trial["performer"],
                "group": trial["group"],
                "predicted": trial["predicted"],
                "kl": {
                    kind: [trial["feature_kl"][pid][kind] for pid in report.performer_ids]
                    for kind in config.feature_set
                },
            }
            for trial in report.trials
        ],
        "skipped": list(report.skipped),
    }


def main() -> None:
    data = dataset()
    document = {
        "corpus": CORPUS,
        "feature_sets": {family: list(kinds) for family, kinds in FEATURE_SETS.items()},
        "families": {family: answers(data, family) for family in FEATURE_SETS},
    }
    PATH.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    for family, result in document["families"].items():
        print(f"{family}: macro precision {result['macro_precision']!r}")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
