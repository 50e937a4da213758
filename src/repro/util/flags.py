"""Central registry for ``REPRO_*`` environment flags.

Every runtime toggle the middleware reads from the environment is
declared here, once, with its default and a docstring. Code elsewhere
must go through :func:`flag_enabled` / :func:`flag_value` instead of
touching ``os.environ`` directly — the ``FLG001`` lint rule enforces
this, so the table below stays the complete inventory.

Values are read from the environment *at call time* (never cached at
import), so tests can flip flags with ``monkeypatch.setenv`` and module
reloads keep working.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["EnvFlag", "FLAGS", "flag", "flag_enabled", "flag_value"]


@dataclass(frozen=True)
class EnvFlag:
    """One declared environment flag.

    ``default`` is the value assumed when the variable is unset.
    Boolean flags use :meth:`enabled`: the flag is on unless its value
    is empty or ``"0"``.
    """

    name: str
    default: str
    doc: str

    def raw(self) -> str:
        """Current value from the environment (or the default)."""
        return os.environ.get(self.name, self.default)

    def enabled(self) -> bool:
        """Boolean reading: on unless unset-default/empty/``"0"``."""
        return self.raw() not in ("", "0")


#: The complete inventory of environment flags, keyed by variable name.
FLAGS: dict[str, EnvFlag] = {
    flag.name: flag
    for flag in (
        EnvFlag(
            "REPRO_REGEN_GOLDEN",
            "0",
            "Set to 1 to regenerate the committed golden trace digests "
            "instead of asserting against them. Read by "
            "tests/obs/test_golden_traces.py.",
        ),
    )
}


def flag(name: str) -> EnvFlag:
    """Look up a declared flag; raises ``KeyError`` for undeclared names."""
    try:
        return FLAGS[name]
    except KeyError:
        raise KeyError(
            f"undeclared environment flag {name!r}; declare it in "
            "repro.util.flags.FLAGS"
        ) from None


def flag_enabled(name: str) -> bool:
    """Boolean value of a declared flag (see :meth:`EnvFlag.enabled`)."""
    return flag(name).enabled()


def flag_value(name: str) -> str:
    """String value of a declared flag (environment or default)."""
    return flag(name).raw()
