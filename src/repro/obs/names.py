"""Canonical metric and span names: the observability catalog.

Every metric or span emitted anywhere in the repository must use a
constant from this module.  Names follow the ``dot.case`` convention
(lowercase segments joined by dots, underscores allowed inside a
segment) and every name must have a row in the catalog table of
``docs/observability.md`` — both properties are enforced by
``tools/check_metric_names.py``.

Spans double as latency metrics: when tracing is enabled, a finished
span ``x.y`` also observes the histogram ``x.y.seconds`` in the
attached registry, so the catalog lists the span name once and the
derived histogram is implied.
"""

from __future__ import annotations

# -- spans (each also emits the histogram "<name>.seconds") -------------

SPAN_EXTEND_NARROW = "extend.narrow"
"""Narrow-band speculative fill: one wave, or one scalar extension."""

SPAN_EXTEND_CHECK = "extend.check"
"""The whole Figure 6 optimality-check workflow for one extension."""

SPAN_EXTEND_RERUN = "extend.rerun"
"""Full-band rerun of an extension that failed its checks."""

SPAN_EXTEND_BATCH = "extend.batch"
"""One lockstep kernel wave of an unchecked engine policy."""

SPAN_CHECK_THRESHOLD = "check.threshold"
"""S1/S2 threshold computation and classification (cases a/b)."""

SPAN_CHECK_ESCORE = "check.escore"
"""The E-score bound on top-entering paths (case c, first check)."""

SPAN_CHECK_EDIT = "check.edit"
"""The edit-distance bound on left-entering paths (case c, second)."""

SPAN_CHECK_ABOVE = "check.above"
"""The above-band sweep (local-target workflow only)."""

SPAN_ALIGNER_SEED = "aligner.seed"
"""Seeding one window, both orientations (SMEM or k-mer lookup); one
orientation on the per-read reference path."""

SPAN_ALIGNER_CHAIN = "aligner.chain"
"""Chaining and filtering the seeds of one orientation."""

SPAN_ALIGNER_TRACEBACK = "aligner.traceback"
"""Host-side traceback of the winning candidate."""

SPAN_HOST_KERNEL = "host.kernel"
"""One software-kernel timing sweep (Figure 3 measurements)."""

SPAN_PIPELINE_WINDOW = "pipeline.batch.window"
"""One window of reads through the deferred-extension scheduler."""

SPAN_PIPELINE_WAVE = "pipeline.batch.wave"
"""One lockstep extension wave (labels: ``side``, ``jobs``)."""

SPAN_PIPELINE_LONGREAD_WINDOW = "pipeline.longread.window"
"""One window of long reads through the three-wave scheduler."""

SPAN_PIPELINE_LONGREAD_FILL_WAVE = "pipeline.longread.fill.wave"
"""One cross-read lockstep gap-fill ladder (labels: ``jobs``)."""

SPAN_OVERLAP_RUN = "overlap.run"
"""One all-vs-all overlap detection run (candidates + verification)."""

SPAN_OVERLAP_WAVE = "overlap.verify.wave"
"""One batched overlap-verification wave (labels: ``jobs``)."""

SPAN_INDEX_BUILD = "index.build"
"""Building one persistent index artifact (SA + FM + k-mer + write)."""

SPAN_INDEX_LOAD = "index.load"
"""Opening one index artifact through the load ladder."""

SPAN_INDEX_VERIFY = "index.verify"
"""CRC-verifying every section of one index artifact."""

# -- counters -----------------------------------------------------------

EXTENSIONS_TOTAL = "seedex.extensions.total"
"""Extensions pushed through the speculate-and-test workflow."""

CHECK_OUTCOME = "seedex.check.outcome"
"""Check decisions by terminal outcome (labels: ``outcome``)."""

CELLS_NARROW = "seedex.cells.narrow"
"""DP cells filled by the narrow-band speculation."""

CELLS_RERUN = "seedex.cells.rerun"
"""DP cells filled by full-band reruns."""

ENGINE_EXTENSIONS = "engine.extensions"
"""Extensions served per engine (labels: ``engine``)."""

ENGINE_CELLS = "engine.cells"
"""DP cells filled per engine (labels: ``engine``)."""

ENGINE_SETTLED = "engine.settled"
"""Extensions settled on the ungapped diagonal with no DP (labels:
``engine``)."""

ALIGNER_READS_TOTAL = "aligner.reads.total"
"""Reads entering the end-to-end aligner."""

ALIGNER_READS_UNMAPPED = "aligner.reads.unmapped"
"""Reads that produced no alignment candidate."""

ALIGNER_SEEDS_TOTAL = "aligner.seeds.total"
"""Seeds found across both orientations of every read."""

ALIGNER_CHAINS_KEPT = "aligner.chains.kept"
"""Chains surviving the filter across every read."""

ALIGNER_CANDIDATES_TOTAL = "aligner.candidates.total"
"""Fully-extended alignment candidates scored."""

FAULTS_INJECTED = "faults.injected"
"""Faults the chaos injector planted (labels: ``site``)."""

FAULTS_DETECTED = "faults.detected"
"""Injected faults that surfaced as typed errors (labels: ``site``)."""

FAULTS_TOLERATED = "faults.tolerated"
"""Injected faults absorbed without consequence (labels: ``site``)."""

RESILIENCE_JOBS = "resilience.jobs.total"
"""Jobs entering the resilient dispatcher."""

RESILIENCE_RETRIES = "resilience.retries.total"
"""Accelerator retries taken by the dispatcher."""

RESILIENCE_TIMEOUTS = "resilience.timeouts.total"
"""Per-attempt timeouts (stalls past the deadline)."""

RESILIENCE_FALLBACKS = "resilience.fallbacks.host"
"""Jobs degraded to the host full-band rerun."""

PIPELINE_BATCH_WAVES = "pipeline.batch.waves"
"""Extension waves dispatched by the scheduler (labels: ``side``)."""

PIPELINE_BATCH_JOBS = "pipeline.batch.jobs"
"""Extension jobs entering a wave (labels: ``side``)."""

PIPELINE_BATCH_TRACEBACK_CELLS = "pipeline.batch.traceback.cells"
"""Matrix cells of the endpoint-clipped jobs a traceback wave filled."""

PIPELINE_BATCH_TRACEBACK_PADDED_CELLS = "pipeline.batch.traceback.padded_cells"
"""Cells the lockstep traceback fills swept, bucket padding included."""

PIPELINE_SHARD_READS = "pipeline.shard.reads"
"""Reads aligned per shard of a sharded run (labels: ``shard``)."""

PIPELINE_SHARD_SNAPSHOTS_MERGED = "pipeline.shard.snapshots_merged"
"""Per-worker metric snapshots folded into the parent registry."""

PIPELINE_SHARD_RESTARTS = "pipeline.shard.restarts"
"""Worker processes the supervisor respawned after a crash or hang."""

PIPELINE_SHARD_HEARTBEATS_MISSED = "pipeline.shard.heartbeats.missed"
"""Workers killed for missing their heartbeat deadline."""

PIPELINE_READS_QUARANTINED = "pipeline.reads.quarantined"
"""Poison reads isolated by bisection and emitted unmapped."""

PIPELINE_INPUT_BAD_RECORDS = "pipeline.input.bad_records"
"""Malformed FASTQ records skipped under ``--on-bad-record quarantine``."""

PIPELINE_LONGREAD_READS = "pipeline.longread.reads"
"""Long reads entering the batched three-wave scheduler."""

PIPELINE_LONGREAD_FILL_JOBS = "pipeline.longread.fill.jobs"
"""Inter-seed gap fills dispatched through the lockstep ladder."""

PIPELINE_LONGREAD_FILL_ESCALATIONS = "pipeline.longread.fill.escalations"
"""Gap fills whose narrow band failed the check and climbed the ladder."""

OVERLAP_CANDIDATES_TOTAL = "overlap.candidates.total"
"""Read pairs the shared-seed pre-filter promoted to verification."""

OVERLAP_ACCEPTED_TOTAL = "overlap.accepted.total"
"""Verified overlaps that met the acceptance threshold."""

OVERLAP_RERUNS_TOTAL = "overlap.reruns.total"
"""Overlap jobs rerun at full band after failing the edge bound."""

PAIRED_RESCUE_WAVES = "paired.rescue.waves"
"""Mate-rescue extension waves dispatched by the batched paired path."""

PAIRED_RESCUE_JOBS = "paired.rescue.jobs"
"""Mate-rescue candidate extensions entering a rescue wave."""

RESILIENCE_BREAKER_TRANSITIONS = "resilience.breaker.transitions"
"""Circuit-breaker state changes (labels: ``to``)."""

RESILIENCE_BREAKER_SHORT_CIRCUITS = "resilience.breaker.short_circuits"
"""Jobs routed straight to the host while the breaker was open."""

RESILIENCE_BREAKER_PROBES = "resilience.breaker.probes"
"""Half-open probe jobs allowed through to the accelerator."""

KERNEL_BUCKET_TOTAL = "kernel.bucket_total"
"""Extension buckets swept: each lockstep-sweep bucket of
``lockstep.extend_batch`` (any backend)."""

KERNEL_BUCKET_PAD_CELLS = "kernel.bucket_pad_cells"
"""Extension DP cells spent on bucket padding: the cells a bucket's
sweep covers minus its jobs' ``cells_computed``."""

DURABILITY_WINDOWS_JOURNALED = "durability.windows.journaled"
"""Read windows whose SAM segment was committed to the journal."""

DURABILITY_WINDOWS_SKIPPED = "durability.windows.skipped"
"""Windows a resumed run skipped because their segment was intact."""

DURABILITY_JOURNAL_BYTES = "durability.journal.bytes"
"""Segment bytes committed to the checkpoint journal."""

SCORE_READS_TOTAL = "score.reads.total"
"""Reads graded against a truth sidecar."""

SCORE_READS_OUTCOME = "score.reads.outcome"
"""Scored reads by outcome class (labels: ``outcome``)."""

SCORE_MAPQ_READS = "score.mapq.reads"
"""Mapped scored reads per MAPQ bin (labels: ``bin``, ``outcome``)."""

SCORE_BAND_READS = "score.band.reads"
"""Scored reads per true-band bucket (labels: ``bucket``, ``outcome``)."""

SERVE_REQUESTS_TOTAL = "serve.requests.total"
"""Requests the server parsed, by verb (labels: ``verb``)."""

SERVE_REQUESTS_SHED = "serve.requests.shed"
"""Requests rejected before batching (labels: ``reason``)."""

SERVE_REQUESTS_TIMEOUT = "serve.requests.timeout"
"""Admitted requests dropped at pop time for an expired deadline."""

SERVE_REQUESTS_SERVED = "serve.requests.served"
"""ALIGN requests answered with a SAM line."""

SERVE_CLIENT_DISCONNECTS = "serve.client.disconnects"
"""Responses abandoned because the client had vanished."""

SERVE_WAL_RECORDS = "serve.wal.records"
"""Write-ahead log records appended (labels: ``op``)."""

INDEX_LOADS = "index.loads.total"
"""Index artifacts opened successfully (labels: ``mode``)."""

INDEX_REBUILDS = "index.rebuilds.total"
"""Artifacts rebuilt after a load refusal (``--rebuild-index``)."""

INDEX_VERIFY_FAILURES = "index.verify.failures"
"""Load-ladder refusals by error kind (labels: ``kind``)."""

# -- histograms ---------------------------------------------------------

CELLS_PER_EXTENSION = "seedex.cells.per_extension"
"""DP cells filled by one extension (labels: ``stage``)."""

ALIGNER_SEEDS_PER_READ = "aligner.seeds.per_read"
"""Seeds found for one read (both orientations)."""

ALIGNER_CHAINS_PER_READ = "aligner.chains.per_read"
"""Chains kept for one read (both orientations)."""

RESILIENCE_ATTEMPTS = "resilience.attempts.per_job"
"""Accelerator attempts one job needed before success/fallback."""

PIPELINE_BATCH_WAVE_JOBS = "pipeline.batch.wave.jobs"
"""Jobs carried by one wave (labels: ``side``)."""

KERNEL_BUCKET_JOBS = "kernel.bucket_jobs"
"""Jobs packed into one extension bucket of the lockstep sweep."""

SERVE_BATCH_READS = "serve.batch.reads"
"""Reads carried by one server micro-batch wave."""

SERVE_REQUEST_SECONDS = "serve.request.seconds"
"""Admission-to-response latency of one served ALIGN request."""

# -- gauges -------------------------------------------------------------

SYSTEM_FPGA_UTILIZATION = "system.fpga.utilization"
"""Fraction of the simulated makespan the device computed (Fig 12)."""

SYSTEM_LOCK_WAIT_MEAN = "system.lock_wait.mean_seconds"
"""Mean FPGA-lock wait per batch in the protocol simulation."""

SYSTEM_THROUGHPUT = "system.throughput.ext_per_s"
"""End-to-end throughput of the simulated timeline."""

SYSTEM_BATCHES_FINISHED = "system.batches.finished"
"""Batches the simulated timeline completed."""

RESILIENCE_OVERHEAD = "resilience.overhead.fraction"
"""Measured dispatcher overhead with faults disabled (<1% target)."""

RESILIENCE_BREAKER_STATE = "resilience.breaker.state"
"""Circuit-breaker state (0=closed, 1=half-open, 2=open)."""

PIPELINE_SHARD_WORKERS = "pipeline.shard.workers"
"""Worker processes the last multi-process run started."""

SCORE_CORRECT_LOCUS_RATE = "score.correct_locus.rate"
"""Correct-locus rate of the most recent scored run."""

SCORE_TOLERANCE = "score.tolerance.bases"
"""Position tolerance window the scorecard used (bases)."""

SERVE_QUEUE_DEPTH = "serve.queue.depth"
"""Admission-queue depth sampled at each wave pop."""

SERVE_CLIENTS_ACTIVE = "serve.clients.active"
"""Client connections currently open."""

INDEX_ARTIFACT_BYTES = "index.artifact.bytes"
"""On-disk size of the most recently built or loaded artifact."""


def all_names() -> dict[str, str]:
    """Map constant identifier -> metric/span name string.

    The lint tool iterates this to validate naming convention and
    catalog coverage; instrumentation sites import the constants.
    """
    return {
        key: value
        for key, value in globals().items()
        if key.isupper() and isinstance(value, str)
    }
