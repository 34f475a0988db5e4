"""Test-session settings shared by every test module."""

try:
    from hypothesis import settings
except ImportError:  # then only the modules that import it fail to collect
    settings = None

if settings is not None:
    # Derandomized: each property test draws the same examples on every
    # run, so a tier-1 pass or failure repeats.  A test's own @settings
    # still sets its max_examples and deadline on top of this profile.
    settings.register_profile("derandomized", derandomize=True, database=None)
    settings.load_profile("derandomized")
