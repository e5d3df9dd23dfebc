"""Byte-string subjects: corpus loading, prefix slicing, seeded synthetic texts.

A text is a plain ``bytes`` value; the alias :data:`Text` marks that role in
signatures. Texts are opaque byte sequences (no encoding is assumed), and
every algorithm in this package rejects empty input explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

Text = bytes

# Knuth's 64-bit MMIX constants; pinned so generated texts are reproducible
# across implementations and platforms.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_U64 = (1 << 64) - 1

# Symbols are drawn from 'a' upward, so the alphabet must fit in a byte.
_MAX_ALPHABET = 256 - ord("a")


class EmptyInputError(ValueError):
    """An operation that requires a non-empty text received an empty one."""


@dataclass(frozen=True)
class GenSpec:
    """Configuration for deterministic synthetic text generation.

    ``seed`` is reduced modulo 2**64. When ``forced_period`` is set, every
    symbol at index ``i >= forced_period`` copies the symbol ``forced_period``
    places earlier, so that value is a period of the output (not necessarily
    the smallest one).
    """

    alphabet_size: int
    length: int
    seed: int
    forced_period: int | None = None

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise ValueError(f"alphabet_size must be >= 1, got {self.alphabet_size}")
        if self.alphabet_size > _MAX_ALPHABET:
            raise ValueError(
                f"alphabet_size must be <= {_MAX_ALPHABET} to stay in byte range"
            )
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if self.forced_period is not None and not 1 <= self.forced_period <= self.length:
            raise ValueError(
                f"forced_period must lie in [1, {self.length}], got {self.forced_period}"
            )


def gen_text(spec: GenSpec) -> Text:
    """Generate ``spec.length`` bytes, byte-identical for equal specs.

    The state of a 64-bit linear congruential generator is advanced once per
    drawn symbol; the emitted byte is ``'a' + (top 32 state bits mod
    alphabet_size)``. A forced period p draws p symbols and repeats them.
    """
    state = spec.seed & _U64
    head = spec.length if spec.forced_period is None else spec.forced_period
    out = bytearray()
    append = out.append
    for _ in range(head):
        state = (_LCG_MULT * state + _LCG_INC) & _U64
        append(97 + ((state >> 32) % spec.alphabet_size))
    return (bytes(out) * -(-spec.length // head))[: spec.length]


def load_text(path: str | os.PathLike, prefix_len: int | None = None) -> Text:
    """Read a file as raw bytes, truncated to ``prefix_len`` when given.

    A ``prefix_len`` larger than the file is harmless (the whole file is
    returned); a ``prefix_len`` of zero is rejected rather than producing an
    empty text.
    """
    if prefix_len is not None and prefix_len < 1:
        raise ValueError(f"prefix_len must be >= 1, got {prefix_len}")
    with open(path, "rb") as fh:
        data = fh.read() if prefix_len is None else fh.read(prefix_len)
    if not data:
        raise EmptyInputError(f"empty input: {path}")
    return data
