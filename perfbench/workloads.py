"""The benchmark's three workloads, driven through DLearn's public API only.

Every workload is a closed loop with one client.  Its database is one fixed
synthetic scenario — the repo's CFD-heavy knob mix (heavy CFD violations,
heavy MD drift) at scenario seed ``WORLD_SEED`` — because learning cost over
these scenarios is heavy-tailed in the world itself (one 5-fold CV took 2 s
on one world and 111 s on another), which no run length could average out.
The ``--seed`` draws the workload instead: the order in which the
cross-validation folds run, which fresh entities are classified and in what
batches, and the serving read batches and write stream.

A round sets up from scratch — its own :class:`DatabasePreparation`, so no
round inherits another's caches — and then runs the workload's ops.  Every
round of a run repeats the same seeded work and must produce the same
outputs (the digest), so one op's times in different rounds differ only by
the host's noise.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import resource
import statistics
import time
import traceback
import warnings
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Callable, Sequence

from repro.core import DLearn, DLearnConfig, DatabasePreparation
from repro.core.problem import Example
from repro.core.supervision import FanoutFault
from repro.data.registry import generate
from repro.data.synthetic import ScenarioSpec
from repro.evaluation.cross_validation import evaluate_on_split, stratified_folds
from repro.evaluation.metrics import ConfusionMatrix, confusion

#: Scenario seed of the fixed world every workload runs on.
WORLD_SEED = 1

#: The CFD-heavy knob mix of ``benchmarks/bench_binding_matrix.py``.
DIRTY_KNOBS = dict(
    string_variant_intensity=0.6,
    md_drift=0.7,
    cfd_violation_rate=0.25,
    null_rate=0.05,
    duplicate_rate=0.1,
)

#: Learner settings shared by every workload.  Depth 2 is the shortest chase
#: that crosses the sources through the MD.  Deeper chases and larger samples
#: make fit cost heavy-tailed in the split: at depth 3 one 5-fold CV of a
#: world with these knobs took 1.2 s on one split and 18 s on another; on
#: this world, sample size 8 took 0.9 s against 8.7 s (one reduce_clause
#: burning its subsumption budget), and sample size 4 takes 0.46-2.0 s.
LEARNER = DLearnConfig(
    iterations=2,
    sample_size=4,
    top_k_matches=3,
    generalization_sample=4,
    max_clauses=4,
    min_clause_positive_coverage=2,
    min_clause_precision=0.55,
    seed=0,
)

Tag = Callable[[str], None]


def scenario(entities: int):
    """The fixed dirty world with ``entities`` entities and 72 labelled examples."""
    spec = ScenarioSpec(
        n_entities=entities, n_positives=24, n_negatives=48, seed=WORLD_SEED, **DIRTY_KNOBS
    )
    return generate("synthetic", spec=spec)


def fresh(dataset):
    """*dataset* over a copy of its untouched database.

    A round works on its own copy, so the tuple views and index entries the
    database builds lazily on first use never carry over to the next round.
    """
    return replace(dataset, database=dataset.database.copy())


def labelled_entities(dataset) -> list[Example]:
    """Every entity of the world, labelled by the clean instance.

    An entity is positive when its clean category is the target category and
    its clean flag is positive (the generator's concept); source-B keys
    mirror source-A keys (``a00042`` ↔ ``b00042``).
    """
    clean = dataset.clean_database
    flags = {row.values[0]: row.values[1] for row in clean.relation("syn_b_flags").tuples()}
    return [
        Example((aid,), category == "alpha" and flags["b" + aid[1:]] == "yes")
        for aid, category in (row.values for row in clean.relation("syn_a_categories").tuples())
    ]


def output_digest(parts: object) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()[:16]


def _definition(model) -> list[str]:
    return [str(clause) for clause in model.definition.clauses]


def _status_kb(field_name: str) -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    return 0


def _private_kb(pid: int) -> int:
    """Memory a forked worker does not share with its parent (private pages)."""
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
        return sum(
            int(line.split()[1]) for line in handle if line.startswith(("Private_Clean:", "Private_Dirty:"))
        )


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the private memory of its live workers.

    Shard workers are forked, so their resident sets include the pages they
    share copy-on-write with this process; only their private pages are
    added, or the parent's memory would be counted once per worker.
    """
    try:
        kilobytes = _status_kb("VmHWM") + sum(
            _private_kb(child.pid) for child in multiprocessing.active_children()
        )
    except OSError:  # no procfs: this process's own peak only
        kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kilobytes / 1024.0


def close_preparation(preparation: DatabasePreparation) -> None:
    """Shut the preparation's worker pools down and wait for every worker to end."""
    preparation.close()
    for child in multiprocessing.active_children():
        child.join(timeout=30)


@dataclass
class Round:
    """What one round measured and checked."""

    setup_s: float = 0.0
    #: Fit times in op order: every fold's fit (cv-dirty) or the one cold
    #: fit of the served model; together they make ``learn_units`` learning
    #: runs (5-fold CVs, or the one fit).
    learn_samples: list[float] = field(default_factory=list)
    learn_units: int = 1
    op_latencies: list[float] = field(default_factory=list)
    predict_latencies: list[float] = field(default_factory=list)
    predict_sizes: list[int] = field(default_factory=list)
    matrix: ConfusionMatrix = field(default_factory=ConfusionMatrix)
    outputs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    oracle_checks: int = 0
    problems: list[str] = field(default_factory=list)
    faults: dict[str, int] = field(default_factory=lambda: {"faults": 0, "recoveries": 0, "demotions": 0})
    peak_rss_mb: float = 0.0
    write_latencies: list[float] = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return self.setup_s + sum(self.op_latencies)

    @property
    def digest(self) -> str:
        return output_digest(self.outputs)

    def fail(self, what: str, error: BaseException | None = None) -> None:
        self.failed += 1
        detail = "".join(traceback.format_exception_only(type(error), error)).strip() if error else ""
        self.problems.append(f"{what}: {detail}" if detail else what)


def _predict_timed(model, examples: Sequence[Example], record: Round) -> list[bool]:
    started = time.perf_counter()
    predictions = model.predict(examples)
    elapsed = time.perf_counter() - started
    record.predict_latencies.append(elapsed)
    record.predict_sizes.append(len(examples))
    record.matrix = record.matrix + confusion(predictions, [e.positive for e in examples])
    return predictions


def _fit_served(config: DLearnConfig, problem, preparation, record: Round):
    """A cold fit of the served model, on a fresh preparation: one learning run."""
    model = DLearn(config).fit(problem, preparation=preparation)
    record.learn_samples.append(model.learning_time_seconds)
    record.learn_units = len(record.learn_samples)
    return model


def _oracle(model, examples: Sequence[Example]) -> list[bool]:
    """Verdicts of an engine built from scratch (the pre-session reference path)."""
    return model.fresh_engine_for(examples).batch_predicts_positive(model.definition.clauses, examples)


# --------------------------------------------------------------------- #
# cv-dirty
# --------------------------------------------------------------------- #
class _CapturingLearner:
    """A ``DLearn`` whose fitted model times its ``predict`` calls."""

    def __init__(self, config: DLearnConfig, record: Round) -> None:
        self.learner = DLearn(config)
        self.record = record
        self.fitted: _TimedModel | None = None

    def fit(self, problem, *, preparation=None):
        self.fitted = _TimedModel(self.learner.fit(problem, preparation=preparation), self.record)
        return self.fitted


class _TimedModel:
    def __init__(self, model, record: Round) -> None:
        self.model = model
        self.record = record
        self.predictions: list[bool] = []

    @property
    def definition(self):
        return self.model.definition

    def predict(self, examples):
        self.predictions = _predict_timed(self.model, examples, self.record)
        return self.predictions


class CrossValidation:
    """``cv-dirty``: repeated 5-fold stratified CV of full DLearn (MDs + CFD repairs).

    One round = one fresh preparation (set-up: similarity scoring of the MD
    columns) and the 5-fold CVs of ``SPLITS`` fixed splits, each fold fitted
    and its test fold classified through :func:`evaluate_on_split`.  The
    splits are fixed for the reason the world is: one CV's fit cost depends
    on its split (0.46-2.0 s over 30 split seeds on this world), so seeded
    splits would move ``learn_s`` from seed to seed by more than a change
    worth measuring.  The seed draws the order in which the folds run, and
    with it what the shared preparation's caches hold when each fold runs.
    After round 0's ops, the oracle (a fresh engine, which re-scores every MD
    pair) checks the first fold.
    """

    name = "cv-dirty"
    #: Nominal seconds per round on a 2-CPU host (sets the round count).
    ROUND_S = 6.5
    SPLITS = 4

    def __init__(self, seed: int) -> None:
        self.dataset = scenario(120)
        self.folds = [
            (split, fold)
            for split in range(self.SPLITS)
            for fold in stratified_folds(self.dataset.examples, 5, seed=split)
        ]
        random.Random(seed).shuffle(self.folds)

    def run_round(self, index: int, tag: Tag) -> Round:
        record = Round()
        dataset = fresh(self.dataset)
        folds = self.folds
        checked = None
        tag("setup")
        started = time.perf_counter()
        preparation = DatabasePreparation.from_problem(dataset.problem())
        preparation.similarity_indexes_for(
            dataset.mds,
            dataset.examples,
            top_k=LEARNER.top_k_matches,
            threshold=LEARNER.similarity_threshold,
        )
        record.setup_s = time.perf_counter() - started
        record.learn_units = self.SPLITS
        for position, (split, fold) in enumerate(folds):
            tag(f"split{split}/fold{fold.index}")
            learner = _CapturingLearner(LEARNER, record)
            record.attempted += 1
            started = time.perf_counter()
            try:
                _, seconds, _ = evaluate_on_split(
                    lambda: learner, dataset, fold.train, fold.test, preparation=preparation
                )
            except Exception as error:  # an op that raises is a failed op
                record.fail(f"fold {split}/{fold.index}", error)
                continue
            record.op_latencies.append(time.perf_counter() - started)
            record.learn_samples.append(seconds)
            model, predictions = learner.fitted.model, learner.fitted.predictions
            record.outputs.append([split, fold.index, _definition(model), predictions])
            if index == 0 and position == 0:
                checked = (split, fold, model, predictions)
        if checked is not None:
            split, fold, model, predictions = checked
            record.oracle_checks += 1
            if _oracle(model, fold.test.all()) != predictions:
                record.fail(f"fold {split}/{fold.index} disagrees with the fresh-engine oracle")
        record.peak_rss_mb = peak_rss_mb()
        close_preparation(preparation)
        return record


# --------------------------------------------------------------------- #
# predict-bulk
# --------------------------------------------------------------------- #
class BulkPrediction:
    """``predict-bulk``: a served model classifies 3.5k fresh entities in 140 batches.

    Runs on the scale-out plane — the chase scattered over two shard worker
    processes while the parent waits — on a ~30k-row instance.  MDs are off:
    even ``exact_match_only`` builds the quadratic similarity index, which
    the chase never reads.  Every batch opens a new evaluation session, so
    every read is cold.  Batches cycle through seven sizes, 25 entities on
    average, for the reason ``serve-churn``'s reads do.
    """

    name = "predict-bulk"
    ROUND_S = 7.5
    ENTITIES = 4800
    BATCH_SIZES = (13, 17, 21, 25, 29, 33, 37)
    CYCLES = 20
    ORACLE_EVERY = 4
    #: Cold fits per set-up, each on its own database copy and preparation
    #: (worker spawn included); the last one is served.  One fit is too short
    #: to time once: forking the workers from a ~200 MB parent varies it by a
    #: third.  (serve-churn fits once: a fresh preparation there re-scores
    #: every MD pair, ~2.5 s.)
    FITS = 2
    CONFIG = LEARNER.but(use_mds=False, parallel_backend="process", shard_count=2, n_jobs=1)

    def __init__(self, seed: int) -> None:
        self.dataset = scenario(self.ENTITIES)
        training = {example.values for example in self.dataset.examples.all()}
        pool = [e for e in labelled_entities(self.dataset) if e.values not in training]
        sizes = self.BATCH_SIZES * self.CYCLES
        chosen = random.Random(seed).sample(pool, sum(sizes))
        self.batches = [chosen[end - size : end] for size, end in zip(sizes, accumulate(sizes))]

    def run_round(self, index: int, tag: Tag) -> Round:
        record = Round()
        problems = [fresh(self.dataset).problem() for _ in range(self.FITS)]
        checks = []
        with warnings.catch_warnings():
            # A FanoutFault means a worker crashed, hung or desynchronised, and
            # a "sharded chase ..." warning that the chase ran unsharded: on
            # this workload both are errors, not fallbacks.  Other warnings
            # keep their default handling.
            warnings.simplefilter("error", FanoutFault)
            warnings.filterwarnings("error", message="sharded chase", category=RuntimeWarning)
            tag("setup")
            started = time.perf_counter()
            definitions = []
            for problem in problems[:-1]:
                preparation = DatabasePreparation.from_problem(problem)
                try:
                    definitions.append(_definition(_fit_served(self.CONFIG, problem, preparation, record)))
                finally:
                    close_preparation(preparation)
            problem = problems[-1]
            preparation = DatabasePreparation.from_problem(problem)
            try:
                model = _fit_served(self.CONFIG, problem, preparation, record)
                record.setup_s = time.perf_counter() - started
                if any(definition != _definition(model) for definition in definitions):
                    record.problems.append("cold fits of the served model learned different definitions")
                for position, batch in enumerate(self.batches):
                    tag(f"batch{position}")
                    record.attempted += 1
                    started = time.perf_counter()
                    try:
                        predictions = _predict_timed(model, batch, record)
                    except Exception as error:
                        record.fail(f"batch {position}", error)
                        continue
                    record.op_latencies.append(time.perf_counter() - started)
                    record.outputs.append(predictions)
                    if index == 0 and position % self.ORACLE_EVERY == 0:
                        checks.append((position, predictions))
                # Round 0 alone re-checks, after its timed ops, so no traced
                # round ever records the oracle's work.
                for position, predictions in checks:
                    record.oracle_checks += 1
                    if _oracle(model, self.batches[position]) != predictions:
                        record.fail(f"batch {position} disagrees with the fresh-engine oracle")
                record.outputs.append(_definition(model))
                for plane in model.session.fault_stats().values():
                    if plane is not None:
                        record.faults["faults"] += plane["total_faults"]
                        record.faults["recoveries"] += plane["recoveries"]
                        record.faults["demotions"] += plane["demotions"]
                if any(record.faults.values()):
                    record.problems.append(f"fan-out faults: {record.faults}")
                record.peak_rss_mb = peak_rss_mb()
            finally:
                close_preparation(preparation)
        return record


# --------------------------------------------------------------------- #
# serve-churn
# --------------------------------------------------------------------- #
class ServeChurn:
    """``serve-churn``: a served model answers 4 reads to 1 write, 300 ops per round.

    A read classifies 9 to 26 entities (20 on average over a cycle), cycling
    over 7 fixed batches, so the memoised evaluation sessions are reused; a
    write inserts one ``syn_a_categories`` and one ``syn_b_flags`` row (never
    an MD-matched column).  Every write changes the instance's mutation
    stamp, which drops the cached ground clauses, verdicts, chase results and
    probe memos, so the next read of each batch is cold again.

    Reads come in sizes because every read is cold: reads of one size cost
    the same, so their 90th percentile would be the host's noise and nothing
    of the program.  With seven sizes, each a seventh of the reads, the p90
    falls inside the largest reads and the p50 inside the middle size.
    """

    name = "serve-churn"
    ROUND_S = 7.5
    ENTITIES = 120
    OPS = 300
    #: Sizes of the read batches, which partition the world's 120 entities.
    READ_SIZES = (9, 12, 15, 17, 19, 22, 26)
    WRITE_EVERY = 5
    CATEGORIES = ("alpha", "beta", "gamma", "delta", "epsilon")

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.dataset = scenario(self.ENTITIES)
        entities = labelled_entities(self.dataset)
        # The read batches partition every entity, so each cycle of reads
        # classifies the whole world and seeds differ only in the grouping.
        readers = rng.sample(entities, sum(self.READ_SIZES))
        self.batches = [
            readers[end - size : end] for size, end in zip(self.READ_SIZES, accumulate(self.READ_SIZES))
        ]
        self.ops: list[tuple] = []
        reads = 0
        # Writes at every fifth op after the first, so a round ends with a
        # group of reads on the final instance, which the oracle re-checks.
        for position in range(self.OPS):
            if position and position % self.WRITE_EVERY == 0:
                aid = rng.choice(entities).values[0]
                bid = "b" + rng.choice(entities).values[0][1:]
                self.ops.append(("write", aid, rng.choice(self.CATEGORIES), bid, rng.choice(("yes", "no"))))
            else:
                self.ops.append(("read", reads % len(self.batches)))
                reads += 1

    def run_round(self, index: int, tag: Tag) -> Round:
        record = Round()
        dataset = fresh(self.dataset)  # the writes go to the round's own copy
        database = dataset.database
        tag("setup")
        started = time.perf_counter()
        problem = dataset.problem()
        preparation = DatabasePreparation.from_problem(problem)
        preparation.similarity_indexes_for(
            problem.mds, problem.examples, top_k=LEARNER.top_k_matches, threshold=LEARNER.similarity_threshold
        )
        model = _fit_served(LEARNER, problem, preparation, record)
        for batch in self.batches:  # open the served evaluation sessions
            model.predict(batch)
        record.setup_s = time.perf_counter() - started
        since_write: list[tuple[int, list[bool]]] = []
        for position, op in enumerate(self.ops):
            tag(f"op{position}")
            record.attempted += 1
            started = time.perf_counter()
            try:
                if op[0] == "read":
                    predictions = _predict_timed(model, self.batches[op[1]], record)
                else:
                    _, aid, category, bid, flag = op
                    database.insert("syn_a_categories", (aid, category))
                    database.insert("syn_b_flags", (bid, flag))
            except Exception as error:
                record.fail(f"op {position}", error)
                continue
            elapsed = time.perf_counter() - started
            record.op_latencies.append(elapsed)
            if op[0] == "read":
                record.outputs.append(predictions)
                since_write.append((op[1], predictions))
            else:
                record.write_latencies.append(elapsed)
                since_write = []
        # The oracle re-scores every MD pair, so round 0 alone checks the
        # reads after the last write; later rounds must repeat its outputs.
        if index == 0 and since_write:
            record.oracle_checks += 1
            self._check(model, since_write, record)
        record.outputs.append(_definition(model))
        record.peak_rss_mb = peak_rss_mb()
        close_preparation(preparation)
        return record

    def _check(self, model, reads: list[tuple[int, list[bool]]], record: Round) -> None:
        """Re-check the reads after the last write against one fresh engine."""
        examples = [example for batch, _ in reads for example in self.batches[batch]]
        verdicts = _oracle(model, examples)
        offset = 0
        for batch, predictions in reads:
            if verdicts[offset : offset + len(predictions)] != predictions:
                record.fail(f"read of batch {batch} disagrees with the fresh-engine oracle")
            offset += len(predictions)


WORKLOADS = {workload.name: workload for workload in (CrossValidation, BulkPrediction, ServeChurn)}


# --------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile (inclusive method; the median for q=50)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fastest(samples: Sequence[Sequence[float]]) -> list[float]:
    """Each op's fastest time over the rounds (one list of op times per round)."""
    return [min(times) for times in zip(*samples)]


def learning_time(rounds: Sequence[Round]) -> float:
    """Seconds of one learning run, from each round's fit times.

    When every fit is one whole learning run of the same problem (the served
    model's cold fits), the run's fastest fit: a cold fit forks shard workers
    and meets a full collection of a large heap often enough (0.35 s against
    1.2 s on ``predict-bulk``) that only the fastest of all of them repeats.
    Otherwise (``cv-dirty``'s folds) each fit counts with its fastest time
    over the rounds, summed per learning run.
    """
    if all(record.learn_units == len(record.learn_samples) for record in rounds):
        return min(sample for record in rounds for sample in record.learn_samples)
    return sum(fastest([record.learn_samples for record in rounds])) / rounds[0].learn_units


def end_to_end(rounds: Sequence[Round]) -> dict[str, float]:
    """The end-to-end metrics of a run.

    Every round repeats the same ops from a fresh set-up, so one op's times in
    different rounds differ by what lands on it from outside: the host's slow
    phases (1.5-2x for seconds at a time, in CPU time as much as in wall
    time) and full garbage collections (~0.1 s, a few per round, on different
    ops from round to round).  Both only add time, so each op counts with its
    fastest time over the rounds, and the metrics are computed from those:
    ``learn_s`` is the fit time of one learning run (one 5-fold CV, or one
    cold fit of the served model; see :func:`learning_time`),
    ``predict_eps`` the examples classified over the summed ``predict`` time,
    the latency percentiles are over the ``predict`` calls, and ``ops_s``
    is the ops over their summed time.  ``setup_s`` is the median over the rounds' set-ups, ``f1``
    the first round's (every round repeats it).  ``peak_rss_mb`` is the first
    round's too: later rounds also hold whatever cyclic garbage of earlier
    rounds the collector has not reached yet, which varies with its timing.
    """
    predict = fastest([record.predict_latencies for record in rounds])
    ops = fastest([record.op_latencies for record in rounds])
    examples = sum(rounds[0].predict_sizes[: len(predict)])
    return {
        "setup_s": statistics.median(record.setup_s for record in rounds),
        "learn_s": learning_time(rounds),
        "f1": rounds[0].matrix.f1,
        "predict_eps": examples / sum(predict) if predict else 0.0,
        "batch_p50_ms": percentile(predict, 50) * 1000.0,
        "batch_p90_ms": percentile(predict, 90) * 1000.0,
        "ops_s": len(ops) / sum(ops) if ops else 0.0,
        "peak_rss_mb": rounds[0].peak_rss_mb,
    }
