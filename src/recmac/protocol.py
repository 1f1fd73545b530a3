"""One-round authentication: hash the message, mask the tag with a pad.

The sender holds a hash key k1 and a one-time pad k2 and transmits
(x, h_{k1}(x) ^ k2).  The receiver recomputes the masked tag and compares.
k1 is reusable across rounds because the pad hides the hash value; k2 is
consumed.  KeyStream models exactly that split: one k1, a caller-supplied
tuple of pads, each handed out at most once.

This module contains no randomness: pads and keys always come from the
caller, so tests and simulations control every bit.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, PadExhausted
from .families import HashFamily


class AuthKey(NamedTuple):
    k1: int   # hash key, recyclable
    k2: int   # one-time pad, consumed by a single round


class TaggedMessage(NamedTuple):
    x: object   # message, in the family's message space
    t: int      # masked tag, m bits


def authenticate(fam: HashFamily, key: AuthKey, x) -> TaggedMessage:
    """Encode x as (x, h_{k1}(x) ^ k2); fam.tag checks k1 and x, check_tag the pad."""
    return TaggedMessage(x, fam.tag(key.k1, x) ^ fam.check_tag(key.k2, "pad"))


def verify(fam: HashFamily, key: AuthKey, ym: TaggedMessage):
    """Return the message if the tag verifies, None otherwise.

    The expected tag is always computed before the comparison; acceptance and
    rejection run the same shape of work regardless of where the input is
    wrong.
    """
    expected = fam.tag(key.k1, ym.x) ^ fam.check_tag(key.k2, "pad")
    return ym.x if expected == fam.check_tag(ym.t) else None


class KeyStream:
    """One recycled hash key plus a finite supply of one-time pads.

    next_key() pairs k1 with the next unused pad; the cursor only moves
    forward, so reuse is impossible by construction.  k1 and each pad are
    checked by the family's own rules, fam.check_key and fam.check_tag.
    """

    def __init__(self, k1: int, pads: tuple[int, ...], fam: HashFamily):
        self.k1 = fam.check_key(k1)
        self.pads = tuple([fam.check_tag(p, "pad") for p in pads])
        self.cursor = 0

    def next_key(self) -> AuthKey:
        if self.cursor >= len(self.pads):
            raise PadExhausted(
                f"all {len(self.pads)} pads consumed; fresh pads are required"
            )
        key = AuthKey(self.k1, self.pads[self.cursor])
        self.cursor += 1
        return key


def _byte_len(bits: int) -> int:
    return max(1, (bits + 7) // 8)


def pack_tagged(fam: HashFamily, ym: TaggedMessage) -> bytes:
    """Wire form: the message's index, then the tag, each big-endian byte-padded."""
    xv = fam.message_index(ym.x)
    return xv.to_bytes(_byte_len(fam.message_bits), "big") + fam.check_tag(ym.t).to_bytes(
        _byte_len(fam.tag_bits), "big")


def unpack_tagged(fam: HashFamily, data: bytes) -> TaggedMessage:
    nx = _byte_len(fam.message_bits)
    nt = _byte_len(fam.tag_bits)
    if len(data) != nx + nt:
        raise DomainError(
            f"wire message for {fam.descriptor()} must be {nx + nt} bytes, got {len(data)}"
        )
    xv = int.from_bytes(data[:nx], "big")
    t = fam.check_tag(int.from_bytes(data[nx:], "big"))
    return TaggedMessage(fam.message_from_int(xv), t)
