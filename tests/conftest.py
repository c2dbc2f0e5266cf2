"""Suite-wide settings: hypothesis draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("onlinepack", derandomize=True, deadline=None)
settings.load_profile("onlinepack")
