"""Shared 64-bit two's-complement arithmetic helpers.

The machine's execution backends (:mod:`repro.machine.backends`), the
micro-op handlers (:mod:`repro.machine.uops`) and the golden-model IR
interpreter (:mod:`repro.toolchain.interp`) must agree bit-for-bit on
signed 64-bit semantics — the property-based equivalence suite compares
their outputs directly.  They therefore share this single implementation instead of
keeping per-module copies that could drift.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
SIGN_BIT = 1 << 63


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as signed."""
    return value - (1 << 64) if value & SIGN_BIT else value


def truncated_div(dividend: int, divisor: int) -> int:
    """Exact signed division truncating toward zero (C semantics)."""
    quotient = abs(dividend) // abs(divisor)
    return -quotient if (dividend < 0) != (divisor < 0) else quotient
