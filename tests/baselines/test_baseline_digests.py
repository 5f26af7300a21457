"""Pinned outputs of the repair-first baselines (Section 6.1.3).

Castor-Clean learns over the instance :func:`repro.baselines.resolve_entities`
builds and DLearn-Repaired over the one :func:`repro.constraints.minimal_cfd_repair`
builds.  Each cell digests the learned definition, the predictions on the
dataset's examples and the content fingerprint of the instance the model
learned over, so any change to how repairs are built or stored that alters
what the baselines see or learn moves a digest.

The learner settings and dataset sizes are the scale-1 ones of the benchmark
harness (``benchmarks/conftest.py``), with CFD violations injected at 10%.
At these settings both walmart_amazon cells learn the empty definition, so
their digests pin the repaired instance and the all-negative predictions.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.baselines import CastorClean, DLearnRepaired
from repro.core import DLearnConfig
from repro.data.registry import generate

CONFIG = DLearnConfig(
    iterations=3,
    sample_size=6,
    generalization_sample=4,
    max_clauses=4,
    min_clause_positive_coverage=2,
    min_clause_precision=0.55,
    seed=0,
)

DATASETS = {
    "imdb_omdb": dict(n_movies=110, n_positives=12, n_negatives=24, seed=7),
    "walmart_amazon": dict(n_products=110, n_positives=12, n_negatives=24, seed=11),
    "dblp_scholar": dict(n_papers=110, n_positives=12, n_negatives=24, seed=13),
}


@pytest.mark.parametrize(
    ("learner", "dataset_name", "digest"),
    [
        (CastorClean, "imdb_omdb", "4d032561c30cc912"),
        (CastorClean, "walmart_amazon", "3035527670f38675"),
        (CastorClean, "dblp_scholar", "9a0326af576bcb87"),
        (DLearnRepaired, "walmart_amazon", "eea12c65e6794a86"),
    ],
    ids=["castor-clean-imdb", "castor-clean-walmart", "castor-clean-dblp", "dlearn-repaired-walmart"],
)
def test_baseline_outputs_are_pinned(learner, dataset_name, digest):
    dataset = generate(dataset_name, **DATASETS[dataset_name]).with_cfd_violations(0.10)
    model = learner(CONFIG).fit(dataset.problem())
    examples = dataset.examples.all()
    parts = [
        [str(clause) for clause in model.clauses],
        model.predict(examples),
        model.problem.database.content_fingerprint(),
    ]
    assert hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16] == digest
