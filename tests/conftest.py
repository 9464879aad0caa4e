"""Settings shared by the test files.

tests/run_mutants.py runs tier-1 with --hypothesis-profile=mutants, the
profile registered here: hypothesis' default phases without the shrink
phase. A mutant's verdict needs only the first failing example, not the
smallest one, and shrinking one can take minutes. Nothing else loads the
profile, so tier-1 keeps hypothesis' defaults.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=[phase for phase in settings.default.phases if phase is not Phase.shrink]
)
