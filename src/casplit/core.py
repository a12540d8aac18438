"""Seedable RNG streams, and the config error and kind checks that the
channel and scenario layers share.

All randomness is drawn from named per-carrier streams so that runs sharing
a seed see the same fading regardless of which carriers the splitter
actually uses (common random numbers).
"""

from __future__ import annotations

import dataclasses
import math
import typing
import zlib

import numpy as np

# A TABLE is a fuzzy rule table, held and written flat as ``r0c0,r0c1,r1c0,r1c1``.
TABLE = "table"
NOUN = {int: "an integer", float: "a finite number", str: "a string",
        TABLE: "4 comma-separated finite numbers"}


class ConfigError(ValueError):
    """Scenario configuration rejected; the message names the field."""


def field_kinds(cls) -> dict:
    """The scalar fields of dataclass ``cls`` with their kinds (int, float or str)."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)
            if hints[f.name] in (int, float, str)}


def _is_number(x, kind=float) -> bool:
    """``x`` is an int (not a bool) or, for kind float, also a finite float."""
    return (isinstance(x, int) and not isinstance(x, bool)
            or kind is float and isinstance(x, float) and math.isfinite(x))


def check_kind(where: str, value, kind) -> None:
    """``value`` is of the declared ``kind``; the error names ``where``."""
    if kind is str:
        ok = isinstance(value, str)
    elif kind is TABLE:
        ok = isinstance(value, tuple) and len(value) == 4 and all(map(_is_number, value))
    else:
        ok = _is_number(value, kind)
    if not ok:
        raise ConfigError(f"{where}: expected {NOUN[kind]}, got {value!r}")


def make_rng(seed: int, stream_id: str) -> np.random.Generator:
    """Independent generator for (seed, stream_id).

    The same pair always yields the same sample sequence; distinct stream
    ids yield independent streams.  Stream ids are hashed with crc32 so the
    mapping is stable across processes and platforms.
    """
    tag = zlib.crc32(stream_id.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=(seed, tag))))
