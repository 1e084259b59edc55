"""``repro.parallel`` — sharded fault-injection execution.

A process-pool engine (:mod:`repro.parallel.engine`) plus workload
adapters (:mod:`repro.parallel.runners`) that fan the embarrassingly
parallel fault-injection studies — Monte Carlo mutant sweeps, the 16-bug
campaign, rule-knockout ablations — across ``fork`` workers with
deterministic seed partitioning and an exact positional merge: results
are identical to the sequential path for every worker count.

Callers normally reach this through ``workers=`` on
:func:`repro.faults.montecarlo.run_monte_carlo` and
:func:`repro.faults.campaign.run_campaign` (or the CLI's ``--workers``),
not by importing it directly.  The package itself stays empty: the
engine is generic, and :mod:`repro.parallel.runners` (which imports
:mod:`repro.faults` and so the workflow stack) is imported only by the
code that shards fault-injection studies, so importing the engine — as
the guard service does — never loads the campaign.
"""
