"""``repro.perf`` — deterministic parallel execution.

The paper's headline cost is simulation wall-clock (Table 2 exists
because one filter-bandwidth BER sweep took hours); this package makes
the embarrassingly parallel axes of the verification flow actually
parallel without giving up reproducibility:

* **sweep points** — ``ParameterSweep.run(jobs=...)``;
* **packet batches** — ``WlanTestbench.measure_ber(jobs=...)``;
* **sweeps in a batch** — ``SimulationManager.run_all(jobs=...)``;
* **campaign checks** — ``VerificationCampaign.run(jobs=...)``;
* **characterization analyses** — ``repro.flow.rfsim.characterize``.

Two primitives carry all of it:

:mod:`repro.perf.seeding`
    ``SeedSequence.spawn``-tree derivation: each unit of work draws its
    stream from its *coordinates* (sweep point, packet index), so the
    result is bit-identical however the work is scheduled.

:mod:`repro.perf.pool`
    :func:`parallel_map` — an order-preserving process-pool map with
    serial-equivalent early stop, worker telemetry re-absorption, and a
    ``parallel_efficiency`` gauge.

Two more make the flow survive its own failures:

:mod:`repro.perf.resilience`
    Structured :class:`TaskError` capture, deterministic retries with
    per-attempt seeds (:func:`attempt_seed`), per-task timeouts, and
    graceful degradation to in-process execution on a broken pool.

:mod:`repro.perf.faults`
    Deterministic fault injection (fail/kill/delay/abort at a
    stage/task/attempt coordinate) so the error paths above are
    themselves tested and CI-gated (``repro qa --faults``).

Run settings live in one frozen value:

:mod:`repro.perf.context`
    :class:`RunContext` (jobs, batch size, memoize, retries, task
    timeout, resume, fault plan, in-worker mark), installed for a block
    with :func:`use_context`.  The CLI builds one from its flags;
    library calls with ``jobs=None``, ``retries=None``... resolve
    through it, pool workers receive it explicitly, and nested parallel
    regions degrade to serial inside workers, so the outermost fan-out
    wins.
"""

from repro.perf.context import (
    RunContext,
    cpu_count,
    current_context,
    in_worker,
    resolve_batch_size,
    resolve_jobs,
    resolve_retries,
    resolve_task_timeout,
    set_default_batch_size,
    use_context,
)
from repro.perf.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    parse_fault_spec,
)
from repro.perf.pool import ParallelResult, parallel_map
from repro.perf.rare import (
    WeightedBerMeasurement,
    WeightedBerState,
    auto_boost_db,
    boost_for,
    dimension_capped_boost_db,
    ebn0_for_ber,
    is_incompatibility,
    measure_uncoded_ber,
    noise_log_weight,
    packet_noise_dimension,
    run_adaptive_sweep,
)
from repro.perf.resilience import (
    TaskError,
    TaskFailedError,
    TaskTimeoutError,
    task_timeout_guard,
)
from repro.perf.seeding import (
    RETRY_SCHEME,
    SEEDING_SCHEME,
    SeedLike,
    as_seed_sequence,
    attempt_seed,
    seed_entropy,
    seed_fingerprint,
    spawn,
    stream,
)

__all__ = [
    "RETRY_SCHEME",
    "SEEDING_SCHEME",
    "SeedLike",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ParallelResult",
    "RunContext",
    "TaskError",
    "TaskFailedError",
    "TaskTimeoutError",
    "WeightedBerMeasurement",
    "WeightedBerState",
    "as_seed_sequence",
    "attempt_seed",
    "auto_boost_db",
    "boost_for",
    "cpu_count",
    "current_context",
    "dimension_capped_boost_db",
    "ebn0_for_ber",
    "in_worker",
    "is_incompatibility",
    "measure_uncoded_ber",
    "noise_log_weight",
    "packet_noise_dimension",
    "parallel_map",
    "parse_fault_spec",
    "resolve_batch_size",
    "resolve_jobs",
    "resolve_retries",
    "resolve_task_timeout",
    "run_adaptive_sweep",
    "seed_entropy",
    "seed_fingerprint",
    "set_default_batch_size",
    "spawn",
    "stream",
    "task_timeout_guard",
    "use_context",
]
