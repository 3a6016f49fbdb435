"""Durability: checkpointed runs that survive crashes and poison input.

PR 2 made a single extension survive a misbehaving datapath and PR 3
scaled the pipeline across processes; this package makes the whole
*run* durable.  Four cooperating pieces:

* :mod:`repro.durability.journal` — a checkpoint journal of completed
  read-window SAM segments (atomic ``tmp + fsync + rename`` writes, a
  CRC'd manifest), so an interrupted run resumes instead of restarting
  and the stitched output is byte-identical to an uninterrupted run;
* :mod:`repro.durability.supervisor` — the policies, heartbeat board,
  poison plan, and quarantine writer behind the shard supervisor in
  :mod:`repro.aligner.parallel`: dead/hung workers are respawned
  within a bounded budget and a reproducibly-crashing shard is
  bisected down to the offending read, which is quarantined instead
  of taking down the run;
* :mod:`repro.durability.breaker` — a circuit breaker for the
  accelerator path: after enough consecutive host fallbacks the
  dispatcher stops burning per-job timeouts and routes straight to the
  (always correct) host full-band kernel, probing the accelerator on
  a half-open schedule;
* :mod:`repro.durability.runner` — the journaled run driver the CLI
  uses: windowing, resume, graceful SIGINT/SIGTERM drain, and the
  final stitch;
* :mod:`repro.durability.wal` — the request write-ahead log behind
  ``repro serve``: every admitted request hits disk before it is
  queued, so a crashed server can name exactly which requests were
  accepted but never answered.

Everything composes with the chaos layer: a ``--chaos`` run that is
killed and resumed still produces byte-identical SAM.  See
``docs/durability.md``.
"""
