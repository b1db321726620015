"""Arithmetic over GF(2^8).

RainBar's intra-frame error correction uses Reed-Solomon codes over a
finite field with 256 elements (Section III-B, citing [10]).  This module
builds the field once — exponential/log tables under the conventional
primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D) with generator
alpha = 2 — and provides scalar and polynomial arithmetic on top of it.

Polynomials are NumPy uint8 arrays in **descending** power order, e.g.
``[1, 0, 3]`` is x^2 + 3.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GF256",
    "PRIMITIVE_POLY",
    "gf_add",
    "gf_mul",
    "gf_div",
    "gf_pow",
    "gf_inverse",
    "poly_add",
    "poly_mul",
    "poly_divmod",
    "poly_eval",
    "poly_strip",
]

PRIMITIVE_POLY = 0x11D
_FIELD_SIZE = 256


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(2 * _FIELD_SIZE, dtype=np.int64)
    log = np.zeros(_FIELD_SIZE, dtype=np.int64)
    value = 1
    for power in range(_FIELD_SIZE - 1):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLY
    # Duplicate the table so products of logs index without a modulo.
    exp[_FIELD_SIZE - 1 : 2 * (_FIELD_SIZE - 1)] = exp[: _FIELD_SIZE - 1]
    exp[2 * (_FIELD_SIZE - 1) :] = exp[: 2 * _FIELD_SIZE - 2 * (_FIELD_SIZE - 1)]
    return exp, log


_EXP, _LOG = _build_tables()


class GF256:
    """Namespace holding the field tables (kept as a class for testability)."""

    exp = _EXP
    log = _LOG
    order = _FIELD_SIZE


def gf_add(a: int | np.ndarray, b: int | np.ndarray) -> np.ndarray:
    """Addition (= subtraction) in GF(256): bytewise XOR."""
    return np.bitwise_xor(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))


def gf_mul(a: int | np.ndarray, b: int | np.ndarray) -> int | np.ndarray:
    """Multiplication in GF(256), vectorized over arrays."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = _EXP[(_LOG[a] + _LOG[b]) % 255]
    out = np.where((a == 0) | (b == 0), 0, out)
    if out.ndim == 0:
        return int(out)
    return out


def gf_div(a: int | np.ndarray, b: int | np.ndarray) -> int | np.ndarray:
    """Division in GF(256); raises ZeroDivisionError on b == 0."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if np.any(b == 0):
        raise ZeroDivisionError("division by zero in GF(256)")
    out = _EXP[(_LOG[a] - _LOG[b]) % 255]
    out = np.where(a == 0, 0, out)
    if out.ndim == 0:
        return int(out)
    return out


def gf_pow(a: int, power: int) -> int:
    """a**power in GF(256) (a != 0 or power > 0)."""
    if a == 0:
        if power == 0:
            return 1
        if power < 0:
            raise ZeroDivisionError("0 has no negative powers in GF(256)")
        return 0
    return int(_EXP[(_LOG[a] * power) % 255])


def gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(256)."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(_EXP[255 - _LOG[a]])


def poly_strip(p: np.ndarray) -> np.ndarray:
    """Drop leading zero coefficients (keep at least the constant term)."""
    p = np.asarray(p, dtype=np.int64)
    nz = np.flatnonzero(p)
    if nz.size == 0:
        return np.zeros(1, dtype=np.int64)
    return p[nz[0] :]


def poly_add(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Polynomial addition over GF(256)."""
    p = np.asarray(p, dtype=np.int64)
    q = np.asarray(q, dtype=np.int64)
    n = max(len(p), len(q))
    out = np.zeros(n, dtype=np.int64)
    out[n - len(p) :] ^= p
    out[n - len(q) :] ^= q
    return out


def poly_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Polynomial multiplication over GF(256) (schoolbook)."""
    p = np.asarray(p, dtype=np.int64)
    q = np.asarray(q, dtype=np.int64)
    out = np.zeros(len(p) + len(q) - 1, dtype=np.int64)
    for i, coeff in enumerate(p):
        if coeff:
            out[i : i + len(q)] ^= gf_mul(coeff, q)
    return out


def poly_divmod(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polynomial division: returns ``(quotient, remainder)``.

    The remainder is what systematic RS encoding appends as parity.
    """
    p = poly_strip(p).copy()
    q = poly_strip(q)
    if np.all(q == 0):
        raise ZeroDivisionError("polynomial division by zero")
    if len(p) < len(q):
        return np.zeros(1, dtype=np.int64), p
    lead_inv = gf_inverse(int(q[0]))
    quotient = np.zeros(len(p) - len(q) + 1, dtype=np.int64)
    for i in range(len(quotient)):
        coeff = gf_mul(int(p[i]), lead_inv)
        quotient[i] = coeff
        if coeff:
            p[i : i + len(q)] ^= gf_mul(coeff, q)
    remainder = poly_strip(p[len(quotient) :]) if len(q) > 1 else np.zeros(1, dtype=np.int64)
    return quotient, remainder


def poly_eval(p: np.ndarray, x: int) -> int:
    """Evaluate *p* at *x* via Horner's rule."""
    acc = 0
    for coeff in np.asarray(p, dtype=np.int64):
        acc = gf_mul(acc, x) ^ int(coeff)
    return int(acc)
