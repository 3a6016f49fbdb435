"""Fault injection and resilience for the simulated datapath.

SeedEx's correctness story is speculate-and-test: the narrow-band
result is provably optimal or the host reruns it full-band.  This
package makes the *system* around that contract chaos-testable — a
seedable :class:`FaultInjector` corrupts the accelerator at its real
seams (packed memory lines, result records, arbiter streams, batch
dispatch), and the :class:`ResilientDispatcher` survives all of it
through a retry → host-rerun degradation ladder, whose host rung
always answers, while keeping SAM output bit-identical to the
full-band engine.

See ``docs/resilience.md`` for the failure model and ladder diagram.
"""
