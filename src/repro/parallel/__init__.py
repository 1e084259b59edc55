"""``repro.parallel`` — sharded fault-injection execution.

One process-pool engine (:mod:`repro.parallel.engine`) that fans the
embarrassingly parallel fault-injection studies — Monte Carlo mutant
sweeps, the 16-bug campaign, rule-knockout ablations — across ``fork``
workers with deterministic seed partitioning and an exact positional
merge: results are identical for every worker count, and one worker runs
the same tasks in process.

Every sweep calls :func:`repro.parallel.engine.run_sharded` directly,
with its task function next to the code it runs
(:func:`repro.faults.montecarlo.score_mutant`,
:func:`repro.workflow.fuzz.score_dag`, :func:`repro.faults.campaign.
run_bug`); callers reach it through ``workers=`` on
:func:`repro.faults.montecarlo.run_monte_carlo`,
:func:`repro.faults.campaign.run_campaign` and
:func:`repro.faults.campaign.run_bug_matrix` (or the CLI's
``--workers``).  The package itself stays empty, and the engine imports
nothing of the fault or workflow stack, so importing it — as the guard
service does — never loads the campaign.
"""
