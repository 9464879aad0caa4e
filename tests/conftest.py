"""Settings shared by the test files.

tests/run_mutants.py runs tier-1 with --hypothesis-profile=mutants, the
profile registered here: hypothesis' default phases without the shrink
phase. A mutant's verdict needs only the first failing example, not the
smallest one, and shrinking one can take minutes. Nothing else loads the
profile, so tier-1 keeps hypothesis' defaults. The test files import
emptied_memo from here.
"""

import contextlib

from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=[phase for phase in settings.default.phases if phase is not Phase.shrink]
)


@contextlib.contextmanager
def emptied_memo(module, name, cap=None):
    """The lti._Memo module.name swapped for an empty one, capped at cap if
    given, for the block; yields the empty one's dict."""
    saved = getattr(module, name)
    setattr(module, name, type(saved)(saved.cap if cap is None else cap))
    try:
        yield getattr(module, name).entries
    finally:
        setattr(module, name, saved)
