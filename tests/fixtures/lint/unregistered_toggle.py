"""Seeded bug: a ``REPRO_*`` environment read outside ``RunConfig.from_env``.

``REPRO_TURBO`` is read here directly instead of through a
``repro.config.RunConfig`` field.  Expected finding: ``toggle-unregistered``.
"""

import os

_TURBO = os.environ.get("REPRO_TURBO", "0").strip() == "1"


def turbo_enabled():
    return _TURBO
