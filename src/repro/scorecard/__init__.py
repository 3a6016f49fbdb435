"""Truth-driven accuracy scoring: the quality half of observability.

The pipeline's differential suites prove *bit-identity* against its
own full-band oracle, but bit-identity says nothing about whether
reads land where they came from.  This package closes that loop, in
the spirit of bcbio-nextgen's validate blocks: the read simulator
already records every read's true origin
(:class:`~repro.genome.synth.SimulatedRead`), so a run can be scored
against a *truth sidecar* — a ``.truth.tsv`` written next to the
simulated FASTQ — and graded on

* **correct-locus rate**: mapped within a tolerance window of the
  true position, on the true strand;
* **MAPQ calibration**: empirical accuracy per reported-MAPQ bin
  (a MAPQ-60 bin should be ~always right; a miscalibrated mapper
  shows high-confidence wrong placements here);
* **failure fractions**: unmapped, degraded
  (``XF:Z:degraded_extension``, a tag only SAMs from earlier versions
  carry: the resilience ladder now always answers), and quarantined
  (``XF:Z:quarantined``) — including under ``--chaos``;
* **per-band-bucket accuracy**: accuracy sliced by the read's true
  indel span (its genuine band demand), so wide-band reads — the
  paper's hard 2% — are visible instead of averaged away.

Everything is published through the ``obs`` registry under the
``score.*`` namespace (catalogued in ``docs/observability.md``) and
serialized as a schema-versioned ``scorecard.json``.  Scoring is
strictly read-only over the SAM stream: output bytes are identical
with scoring on or off.
"""
