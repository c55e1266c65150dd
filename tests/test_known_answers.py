"""Cross-validation on a fixed corpus gives the known answers of every model family.

``known_answers.py`` says what the corpus is and how to rewrite the answers.
"""

import json

import numpy as np
import pytest
from known_answers import CORPUS, FEATURE_SETS, KL_RTOL, PATH, answers, dataset

from pianist_id.evaluation import MODEL_FAMILIES


@pytest.fixture(scope="module")
def known():
    document = json.loads(PATH.read_text(encoding="utf-8"))
    assert document["corpus"] == CORPUS
    assert document["feature_sets"] == {f: list(kinds) for f, kinds in FEATURE_SETS.items()}
    return document["families"]


@pytest.fixture(scope="module")
def data():
    return dataset()


def decided(trials):
    return [(t["performer"], t["group"], t["predicted"]) for t in trials]


def test_every_family_has_known_answers(known):
    assert sorted(known) == sorted(MODEL_FAMILIES)


@pytest.mark.parametrize("family", MODEL_FAMILIES)
def test_cv_gives_the_known_answers(family, known, data):
    expected, actual = known[family], answers(data, family)
    assert actual["skipped"] == expected["skipped"]
    assert decided(actual["trials"]) == decided(expected["trials"])
    for got, want in zip(actual["trials"], expected["trials"]):
        for kind in FEATURE_SETS[family]:
            np.testing.assert_allclose(
                got["kl"][kind], want["kl"][kind], rtol=KL_RTOL, atol=0,
                err_msg=f"{family} {kind} KLs of trial ({got['performer']}, group {got['group']})",
            )
    assert actual["macro_precision"] == pytest.approx(expected["macro_precision"], abs=1e-12)
