"""Configuration of the DLearn learner.

All knobs that the paper's evaluation sweeps live here so that every
experiment (Tables 4–7, Figure 1) is a plain parameter sweep over one
dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..testing.chaos import ChaosSpec
from .supervision import DeadlinePolicy, FaultPolicy

__all__ = ["DLearnConfig"]


@dataclass(frozen=True)
class DLearnConfig:
    """Hyper-parameters of DLearn and of the Castor-style baselines.

    Attributes
    ----------
    iterations:
        ``d`` in Algorithm 2 — how many rounds of relevant-tuple expansion the
        bottom-clause construction performs (Table 7 sweeps it).
    sample_size:
        Maximum number of literals added to a bottom clause per relation and
        per iteration (Section 5; Figure 1 middle/right sweep it).  ``None``
        disables sampling.
    max_chase_frequency:
        Bottom-clause construction expands the seen-constant set ``M`` with
        the values of every gathered tuple; values occurring more often than
        this bound across the whole database (genre names, years, countries)
        are *not* used to fetch further tuples.  They still appear in the
        clause and still join literals that were reached through other
        values — the bound only stops the chase from dragging in tuples that
        merely share a popular value, which is the role mode declarations
        play in classic ILP systems.  ``None`` disables the bound.
    top_k_matches:
        ``k_m`` — how many most-similar partners the similarity index keeps
        per value (Table 4 sweeps 2/5/10).
    similarity_threshold:
        Minimum composite-similarity score for two values to be considered
        similar by the ``≈`` operator.
    generalization_sample:
        Size of the random subset ``E+_s`` of positive examples used to
        propose candidate generalisations in each generalisation step.
    max_clauses:
        Upper bound on the number of clauses in a learned definition (a
        safety valve for the covering loop, Algorithm 1).
    min_clause_positive_coverage:
        Minimum number of positive examples a candidate clause must cover to
        be added to the definition (Algorithm 1's "minimum criterion").
    min_clause_precision:
        Minimum precision (positives / (positives + negatives) covered) a
        candidate clause must reach to be added.
    max_generalization_rounds:
        Upper bound on generalisation iterations per clause (each round picks
        the best candidate among ``generalization_sample`` ARMG proposals).
    max_cfd_expansions:
        Cap on the number of CFD-repaired clause variants materialised during
        coverage testing; beyond the cap the remaining variants are ignored
        (documented approximation; the experiments stay far below it).
    max_repair_groups_per_clause:
        Cap on repair-literal groups added to a single bottom clause, keeping
        pathological clauses (thousands of violations touching one example)
        bounded.
    reduce_clauses:
        After the generalisation search selects a clause, drop every body
        literal that shares no variable with the head and whose removal does
        not let the clause cover additional negative examples
        (:meth:`~repro.core.generalization.Generalizer.reduce_clause`).
        Bottom clauses carry incidental literals that survive generalisation
        because they happen to be satisfiable for the training positives;
        removing them yields the concise definitions the paper reports and
        improves recall on held-out examples.  The reduction removes the
        literals in blocks, usually all of them in one coverage check, and
        wherever coverage is monotone in the body it returns the clause that
        trying them one at a time would.  The ablation benchmark switches
        this off to measure its effect.
    n_jobs:
        Must be 1: every coverage check runs on the calling thread.  The
        field remains only because a benchmark workload passes ``n_jobs=1``.
    parallel_backend:
        Where the shards of a ``shard_count > 1`` chase live:
        ``"process"`` puts them in seeded worker processes
        (:class:`repro.core.fanout.SaturationFanout`); ``"serial"`` (the
        default) probes the same shards in-process
        (:class:`repro.core.fanout.SerialShardScatter`).  Irrelevant with
        ``shard_count == 1``.
    shard_count:
        Number of row-wise shards the database instance is partitioned into
        for the saturation chase (:mod:`repro.db.sharding`).  ``1`` — the
        default — keeps the chase on the unsharded instance.  Above 1, each
        depth of the batched chase scatters its id-frontier over the shards
        and gathers the per-shard probe answers; with
        ``parallel_backend="process"`` the shards live in seeded worker
        processes (:class:`repro.core.fanout.SaturationFanout`) so the
        per-depth index probes run GIL-free, while the serial backend
        probes the same shards in-process
        (:class:`repro.core.fanout.SerialShardScatter` — the identity
        oracle).  Results are bit-identical to the unsharded chase either
        way; only the cost profile differs.
    fault_policy:
        Degradation ladder of the supervised shard worker pool
        (:mod:`repro.core.supervision`): ``"recover"`` (the default)
        respawns a crashed/hung/desynchronised worker in place, re-seeds it
        and re-dispatches only the lost chunk — demoting to the unsharded
        chase only when the per-pool ``max_recoveries`` budget runs out;
        ``"degrade_serial"`` skips recovery and drops to the unsharded chase
        on the first fault; ``"raise"`` propagates a
        :class:`~repro.core.supervision.FanoutFaultError` immediately.
        Every demotion warns a structured
        :class:`~repro.core.supervision.FanoutFault` carrying the fault
        kind, pool and attempt.  Irrelevant unless ``shard_count > 1`` with
        ``parallel_backend="process"``.
    deadline_policy:
        Per-dispatch timeouts of the supervised pools: base seconds per
        chunk (scaled by ``per_item`` work units, backed off per retry).
        A chunk past its deadline marks the worker hung — it is killed and
        recovered, not waited on.  ``DeadlinePolicy(dispatch_timeout=None)``
        disables deadlines.  The default (120 s) is deliberately far above
        any healthy chunk.
    chaos:
        Deterministic fault injection (:mod:`repro.testing.chaos`): a
        :class:`~repro.testing.chaos.ChaosSpec` naming chunk ordinals at
        which a worker is killed, delayed past its deadline, or denied an
        interner delta.  ``None`` — always the
        production setting — injects nothing; the chaos suite sets it to
        prove recovery yields bit-identical results.  (The ``REPRO_CHAOS``
        environment variable gates the same injector operationally.)
    seed:
        Seed for every random choice (sampling of relevant tuples, of
        ``E+_s`` seeds and of training folds), making runs reproducible.
    use_mds / use_cfds:
        Feature switches used by the baselines: Castor-NoMD runs with both
        off, DLearn-Repaired runs with ``use_cfds=False`` over a repaired
        database, full DLearn runs with both on.
    exact_match_only:
        When true, MDs are honoured only for *exactly* equal values (the
        Castor-Exact baseline).
    restrict_sources:
        When set, bottom-clause construction only gathers tuples from
        relations belonging to the given sources (relations without a source
        tag are always allowed).  Used by the Castor-NoMD baseline, which —
        lacking the MDs — has no way to link the two data sources and
        therefore learns over the target's own source only.
    """

    iterations: int = 3
    sample_size: int | None = 10
    max_chase_frequency: int | None = 12
    top_k_matches: int = 5
    similarity_threshold: float = 0.65
    generalization_sample: int = 10
    max_clauses: int = 10
    min_clause_positive_coverage: int = 2
    min_clause_precision: float = 0.6
    max_generalization_rounds: int = 10
    max_cfd_expansions: int = 64
    max_repair_groups_per_clause: int = 200
    reduce_clauses: bool = True
    n_jobs: int = 1  # Always 1: passed only by perfbench/workloads.py, as ``n_jobs=1``.
    parallel_backend: str = "serial"
    shard_count: int = 1
    fault_policy: FaultPolicy = FaultPolicy()
    deadline_policy: DeadlinePolicy = DeadlinePolicy()
    chaos: ChaosSpec | None = None
    seed: int = 0
    use_mds: bool = True
    use_cfds: bool = True
    exact_match_only: bool = False
    restrict_sources: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations (d) must be >= 1")
        if self.sample_size is not None and self.sample_size < 1:
            raise ValueError("sample_size must be >= 1 or None")
        if self.top_k_matches < 1:
            raise ValueError("top_k_matches (k_m) must be >= 1")
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in (0, 1]")
        if self.max_clauses < 1:
            raise ValueError("max_clauses must be >= 1")
        if not 0.0 <= self.min_clause_precision <= 1.0:
            raise ValueError("min_clause_precision must be in [0, 1]")
        if self.n_jobs != 1:
            raise ValueError("n_jobs must be 1: coverage runs on the calling thread")
        if self.parallel_backend not in ("serial", "process"):
            raise ValueError("parallel_backend must be 'serial' or 'process'")
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not isinstance(self.fault_policy, FaultPolicy):
            raise ValueError("fault_policy must be a FaultPolicy")
        if not isinstance(self.deadline_policy, DeadlinePolicy):
            raise ValueError("deadline_policy must be a DeadlinePolicy")
        if self.chaos is not None and not isinstance(self.chaos, ChaosSpec):
            raise ValueError("chaos must be a ChaosSpec or None")

    def but(self, **changes) -> "DLearnConfig":
        """Return a copy with the given fields changed (sweep helper)."""
        return replace(self, **changes)
