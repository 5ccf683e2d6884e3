"""The paper's core contribution: two query engines over one plan language.

``repro.core.vectorized`` is the Tectorwise-style vector-at-a-time engine,
``repro.core.compiled`` is the Typer-style data-centric code generator.
``repro.core.common`` holds everything both engines share — plans,
expressions, the chaining hash table, and instruction weights — so that,
exactly as in the paper, the only difference between the two engines is
the execution paradigm.

``ENGINES`` is the one place the engine set is known: each canonical
name maps to its label in the paper's tables and to its join hash
function, the one deliberate difference in shared machinery (§4.1).
"""
from __future__ import annotations

from typing import NamedTuple


class Engine(NamedTuple):
    label: str    # column label in the paper's tables
    hash_fn: str  # ``ChainingHashTable`` hash function of its joins


ENGINES = {
    "typer": Engine("Typer", "crc"),
    "tectorwise": Engine("TW", "murmur"),
}
