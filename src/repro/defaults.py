"""Library defaults that the CLI's parser also shows.

Stdlib only and importing no other :mod:`repro` module, so building
``repro-paper``'s parser (and ``--help``) loads none of the code these
values configure: the engine and the stats pass import them from here too.
"""

#: How failure_mode="fail_fast"/"collect" handle a unit that exhausts its
#: retries: propagate immediately (cancelling the fan-out), or record it
#: as a :class:`~repro.eval.runner.FailedUnit` and keep sweeping.
FAILURE_MODES = ("fail_fast", "collect")

#: Fixed default seed: a bare ``repro-paper matrix --stats`` is reproducible
#: run-to-run without any flag.
DEFAULT_STATS_SEED = 20250807

#: Default bootstrap resample count (CI endpoints stable to ~a point of
#: accuracy at matrix sample sizes).
DEFAULT_RESAMPLES = 1000
