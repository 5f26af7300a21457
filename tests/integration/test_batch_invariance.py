"""Batch invariance of prediction: an example's label ignores its batch mates.

A prediction must depend only on the database, the example, the learned
definition, the config and the seed.  Prediction builds one evaluation
session per example set, and that session's similarity indexes are built
over the set's values, so a batch mate could in principle change which
partners an example's chase reaches.  The metamorphic property pinned here
is ``model.predict(B)[i] == model.predict([B[i]])[0]`` over several learned
worlds whose definitions carry similarity (``~``) and MD repair
(``V[...]``) literals, random batch orders and random batch splits.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DLearn, DLearnConfig
from repro.data.registry import generate

#: (generator, scenario seed) pairs whose small fits learn ``~`` and ``V[...]``.
WORLDS = (("imdb_omdb_3mds", 1), ("imdb_omdb_3mds", 5), ("imdb_omdb", 1))


@pytest.fixture(scope="module")
def served():
    """Per world: the fitted model, its examples, and each example's lone prediction."""
    config = DLearnConfig(
        iterations=2,
        sample_size=4,
        generalization_sample=3,
        max_clauses=2,
        max_generalization_rounds=2,
        seed=0,
    )
    worlds = []
    for name, seed in WORLDS:
        dataset = generate(name, n_movies=30, n_positives=6, n_negatives=8, seed=seed)
        model = DLearn(config).fit(dataset.problem())
        definition = " ".join(str(clause) for clause in model.clauses)
        assert "~" in definition and "V[" in definition
        examples = dataset.examples.all()
        alone = [model.predict([example])[0] for example in examples]
        assert any(alone) and not all(alone)
        worlds.append((model, examples, alone))
    return worlds


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_prediction_does_not_depend_on_batch_mates(served, data):
    model, examples, alone = served[data.draw(st.integers(0, len(served) - 1), label="world")]
    order = data.draw(st.permutations(range(len(examples))), label="order")
    cuts = sorted(data.draw(st.sets(st.integers(1, len(examples) - 1), max_size=3), label="cuts"))
    for start, end in zip([0, *cuts], [*cuts, len(examples)]):
        batch = order[start:end]
        assert model.predict([examples[i] for i in batch]) == [alone[i] for i in batch]
