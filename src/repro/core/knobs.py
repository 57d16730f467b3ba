"""The one process-wide run selector: the query answer regime.

``repro query --regime`` travels as the ``REPRO_REGIME`` environment
variable, so pool workers inherit it at spawn and resolve the answer
form exactly as the parent did:

* the value is **read from the environment on every call** (tests and
  the CLI flip it without touching module state);
* unset (or empty) means :data:`TRANSACTIONAL`;
* any other unrecognized value is an error — the two regimes print
  different things (graph ids vs embedding roots), so a mistyped value
  must never silently pick one;
* an explicit ``--regime`` flag exports to the environment; no flag
  leaves the environment alone.
"""

from __future__ import annotations

import argparse
import os

from repro.indexes.base import REGIMES, SINGLE_GRAPH, TRANSACTIONAL

__all__ = [
    "REGIME_ENV",
    "REGIMES",
    "TRANSACTIONAL",
    "SINGLE_GRAPH",
    "active_regime",
    "apply_cli_args",
]

#: Environment variable the regime travels in.
REGIME_ENV = "REPRO_REGIME"


def active_regime() -> str:
    """The selected regime, read from the environment now.

    Raises
    ------
    ValueError
        If ``REPRO_REGIME`` is set to anything but one of
        :data:`REGIMES`.
    """
    value = os.environ.get(REGIME_ENV, "").strip().lower()
    if not value:
        return TRANSACTIONAL
    if value not in REGIMES:
        raise ValueError(
            f"{REGIME_ENV}={os.environ[REGIME_ENV]!r} is not a regime; "
            f"expected one of {', '.join(REGIMES)}"
        )
    return value


def apply_cli_args(args: argparse.Namespace) -> None:
    """Export an explicit ``--regime`` on *args* into the environment."""
    value = getattr(args, "regime", None)
    if value is not None:
        os.environ[REGIME_ENV] = value
