"""Systematic Reed-Solomon codes over GF(256).

RainBar embeds RS(n, k) parity in every frame: the code corrects up to
``(n - k) // 2`` byte errors and detects any combination of up to
``n - k`` errors (Section III-B).  The decoder implements the classical
chain — syndromes, Berlekamp-Massey, Chien search, Forney — plus erasure
support (a known-bad position costs one parity byte instead of two),
which the frame-synchronization layer uses for rows that straddle a
rolling-shutter boundary.

A frame carries several codewords, so both directions work on a
``(chunks, n)`` array at once.  Encoding is one table operation: parity
is GF-linear in the message, so each chunk's parity is the XOR of
precomputed per-byte parity rows.  Decoding computes every chunk's
syndromes in one table operation and returns clean chunks at once; only
chunks with nonzero syndromes run Berlekamp-Massey, Chien and Forney,
in plain Python ints, with their polynomials in **ascending** order
(index i = coefficient of x^i), the natural form for the key equation.
The tables of an RS(n, k) code are built once per process and shared by
every :class:`BlockCode` of that shape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .galois import GF256, gf_pow, poly_mul

__all__ = [
    "ReedSolomon",
    "RSDecodeError",
    "BlockCode",
    "CodewordStats",
    "RSDecodeStats",
]


class RSDecodeError(ValueError):
    """Raised when a received word has more errors than the code corrects."""


@dataclass(frozen=True)
class CodewordStats:
    """Correction accounting for one decoded RS codeword.

    ``errors`` counts corrected positions that were *not* declared as
    erasures; ``erasures`` counts the erasure positions supplied to the
    decoder (each costs one parity symbol whether or not it actually
    carried an error).  A codeword whose syndromes were all zero records
    ``errors == erasures == 0``: no correction budget was spent even if
    erasure hints were offered.  ``failed`` marks a codeword the decoder
    gave up on (its other fields then describe the failed attempt).
    """

    errors: int
    erasures: int
    parity: int
    failed: bool = False

    @property
    def corrected(self) -> int:
        """Symbol positions the decoder rewrote (errors + erasures)."""
        return self.errors + self.erasures

    @property
    def budget_used(self) -> int:
        """Parity budget consumed: ``2e + s`` of the ``2e + s <= n - k`` bound."""
        return 2 * self.errors + self.erasures

    @property
    def margin(self) -> float:
        """Remaining correction headroom in [0, 1]; 0.0 for failed codewords."""
        if self.failed or self.parity <= 0:
            return 0.0
        return max(0.0, 1.0 - self.budget_used / self.parity)


@dataclass
class RSDecodeStats:
    """Mutable side-channel accumulating :class:`CodewordStats` per decode.

    Pass one to :meth:`ReedSolomon.decode` (or the :class:`BlockCode`
    wrappers) to observe corrected-symbol and erasure counts without
    changing the decode result — the default ``stats=None`` path is
    byte-identical to not asking.  One object may span several calls
    (e.g. every chunk of a :class:`BlockCode` payload).
    """

    codewords: list[CodewordStats] = field(default_factory=list)

    def add(self, stats: CodewordStats) -> None:
        self.codewords.append(stats)

    @property
    def corrected_symbols(self) -> int:
        """Non-erasure symbol errors corrected across all codewords."""
        return sum(cw.errors for cw in self.codewords if not cw.failed)

    @property
    def erasures(self) -> int:
        """Erasure positions consumed across all successfully decoded codewords."""
        return sum(cw.erasures for cw in self.codewords if not cw.failed)

    @property
    def failed_codewords(self) -> int:
        return sum(1 for cw in self.codewords if cw.failed)

    @property
    def clean_codewords(self) -> int:
        """Codewords that decoded with zero corrections."""
        return sum(1 for cw in self.codewords if not cw.failed and cw.corrected == 0)


def _generator_poly(num_parity: int) -> np.ndarray:
    """g(x) = prod_{i=0}^{num_parity-1} (x - alpha^i), descending order."""
    gen = np.array([1], dtype=np.int64)
    for i in range(num_parity):
        gen = poly_mul(gen, np.array([1, gf_pow(2, i)], dtype=np.int64))
    return gen


# Field tables.  The plain-int lists serve the per-codeword correction.
# The array pair serves whole frames: log(0) maps to a sentinel above any
# sum of two nonzero logs (<= 508), so ``_EXP_Z[_LOG_Z[a] + e]`` is
# ``a * alpha^e`` with zeros masked by the table itself, for any
# exponent e in [0, 254] or e = ``_LOG_Z[b]``.
_EXP: list[int] = GF256.exp.tolist()
_LOG: list[int] = GF256.log.tolist()
_LOG_ZERO = 512
_LOG_Z = GF256.log.copy()
_LOG_Z[0] = _LOG_ZERO
_EXP_Z = np.zeros(2 * _LOG_ZERO + 1, dtype=np.uint8)
_EXP_Z[: len(GF256.exp)] = GF256.exp


def _mul(a: int, b: int) -> int:
    return _EXP[_LOG[a] + _LOG[b]] if a and b else 0


def _inverse(a: int) -> int:
    return _EXP[255 - _LOG[a]]


def _eval(poly: list[int], x: int) -> int:
    """Evaluate an ascending-order polynomial at nonzero *x* (Horner from the top)."""
    log_x = _LOG[x]
    acc = 0
    for coeff in reversed(poly):
        acc = (_EXP[_LOG[acc] + log_x] if acc else 0) ^ coeff
    return acc


def _add(p: list[int], q: list[int]) -> list[int]:
    out = p + [0] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] ^= c
    return out


def _berlekamp_massey(syndromes: list[int], gamma: list[int], num_erasures: int) -> list[int]:
    """Berlekamp-Massey seeded with the erasure locator *gamma*.

    Returns the combined errata locator Lambda(x), ascending order.
    """
    locator = list(gamma)
    prev = list(gamma)
    for k in range(num_erasures, len(syndromes)):
        # Discrepancy delta = sum_i Lambda_i S_{k-i}.
        delta = 0
        for i in range(min(len(locator), k + 1)):
            delta ^= _mul(locator[i], syndromes[k - i])
        prev = [0] + prev  # prev *= x
        if delta:
            update = [_mul(c, delta) for c in prev]
            if len(prev) > len(locator):
                # Degree grows: keep a rescaled copy of the old locator
                # as the new auxiliary polynomial (Massey's B update).
                scale = _inverse(delta)
                locator, prev = _add(locator, update), [_mul(c, scale) for c in locator]
            else:
                locator = _add(locator, update)
    while len(locator) > 1 and locator[-1] == 0:
        locator.pop()
    return locator


def _forney(
    word: list[int], syndromes: list[int], locator: list[int], positions: list[int]
) -> list[int]:
    """*word* corrected at *positions*.

    With roots starting at alpha^0, the magnitude at position p with
    locator X = alpha^{n-1-p} is ``Y = X * Omega(X^{-1}) / Lambda'(X^{-1})``.
    """
    n = len(word)
    num_parity = len(syndromes)
    # Omega(x) = S(x) Lambda(x) mod x^{n-k}, ascending order.
    omega = [0] * num_parity
    for i, s in enumerate(syndromes):
        for j, c in enumerate(locator[: num_parity - i]):
            omega[i + j] ^= _mul(s, c)
    # Formal derivative over GF(2^m): only odd-power terms survive.
    deriv = [c if i % 2 else 0 for i, c in enumerate(locator[1:], 1)] or [0]

    corrected = list(word)
    for pos in positions:
        log_x = n - 1 - pos
        x_inv = _EXP[255 - log_x]
        denom = _eval(deriv, x_inv)
        if denom == 0:
            raise RSDecodeError("Forney denominator zero")
        numer = _mul(_EXP[log_x], _eval(omega, x_inv))
        corrected[pos] ^= _mul(numer, _inverse(denom))
    return corrected


class ReedSolomon:
    """An RS(n, k) code over GF(256) with consecutive roots alpha^0..alpha^(n-k-1).

    Parameters
    ----------
    n:
        Codeword length in bytes, at most 255.
    k:
        Message length in bytes, ``0 < k < n``.
    """

    def __init__(self, n: int, k: int):
        if not 0 < k < n <= 255:
            raise ValueError(f"invalid RS parameters n={n}, k={k} (need 0<k<n<=255)")
        self.n = n
        self.k = k
        self.num_parity = n - k
        gen = _generator_poly(self.num_parity)
        # The codeword polynomial is C(x) = sum_p c_p x^{n-1-p}; byte
        # position p therefore has locator X = alpha^{n-1-p}.
        power = n - 1 - np.arange(n)
        degree = np.arange(self.num_parity + 1)[:, None]
        # S_j = C(alpha^j): the exponent of alpha that scales c_p in S_j.
        self._syndrome_log = (degree[:-1] * power) % 255
        # Chien evaluates Lambda at X^{-1}: the exponent of its x^i term.
        self._chien_log = (-degree * power) % 255
        # Parity is GF-linear in the message: row i is the parity of the
        # unit message e_i, the remainder of x^{n-1-i} mod g(x).  The rows
        # come bottom-up from x^{n-k} mod g(x) = g(x) - x^{n-k} by the
        # LFSR step r(x) <- x r(x) mod g(x), descending order.
        taps = gen[1:].tolist()
        rows = [taps]
        for __ in range(k - 1):
            lead, shifted = rows[-1][0], rows[-1][1:] + [0]
            rows.append([r ^ _mul(lead, t) for r, t in zip(shifted, taps)])
        self._parity_log = _LOG_Z[np.array(rows[::-1], dtype=np.int64)]

    @property
    def max_errors(self) -> int:
        """Errors correctable without erasure information."""
        return self.num_parity // 2

    def encode(self, message: bytes | bytearray | np.ndarray) -> bytes:
        """Append ``n - k`` parity bytes to a ``k``-byte message."""
        msg = np.frombuffer(bytes(message), dtype=np.uint8)
        if len(msg) != self.k:
            raise ValueError(f"message must be exactly {self.k} bytes, got {len(msg)}")
        return self._encode_rows(msg.reshape(1, self.k)).tobytes()

    def check(self, received: bytes | bytearray | np.ndarray) -> bool:
        """True when *received* is a valid codeword (all syndromes zero)."""
        word = np.frombuffer(bytes(received), dtype=np.uint8)
        if len(word) != self.n:
            return False
        return not self._syndromes(word.reshape(1, self.n)).any()

    def decode(
        self,
        received: bytes | bytearray | np.ndarray,
        erasures: list[int] | None = None,
        *,
        stats: RSDecodeStats | None = None,
    ) -> bytes:
        """Return the corrected ``k``-byte message.

        *erasures* lists byte positions (0-based from the start of the
        codeword) known to be unreliable.  The code corrects ``e`` errors
        plus ``s`` erasures whenever ``2 e + s <= n - k``.

        *stats*, when given, receives one :class:`CodewordStats` per call
        (including failed attempts) without altering the decode result.

        Raises :exc:`RSDecodeError` when correction fails.
        """
        word = np.frombuffer(bytes(received), dtype=np.uint8)
        if len(word) != self.n:
            raise ValueError(f"codeword must be exactly {self.n} bytes, got {len(word)}")
        positions = sorted(set(erasures or []))
        if any(not 0 <= e < self.n for e in positions):
            raise ValueError("erasure positions out of range")
        message, __ = self._decode_rows(
            word.reshape(1, self.n), [positions], stats, strict=True
        )
        return message.tobytes()

    def _encode_rows(self, messages: np.ndarray) -> np.ndarray:
        """Codewords of the ``(chunks, k)`` uint8 *messages*, one per row."""
        terms = _EXP_Z[_LOG_Z[messages][:, :, None] + self._parity_log]
        return np.concatenate([messages, np.bitwise_xor.reduce(terms, axis=1)], axis=1)

    def _syndromes(self, words: np.ndarray) -> np.ndarray:
        """``(chunks, n-k)`` syndromes S_j = C(alpha^j) of ``(chunks, n)`` uint8 *words*."""
        terms = _EXP_Z[_LOG_Z[words][:, None, :] + self._syndrome_log]
        return np.bitwise_xor.reduce(terms, axis=2)

    def _decode_rows(
        self,
        words: np.ndarray,
        erasures: list[list[int]],
        stats: RSDecodeStats | None,
        *,
        strict: bool,
    ) -> tuple[np.ndarray, list[int]]:
        """Correct every row of the ``(chunks, n)`` uint8 *words*.

        *erasures* holds each row's sorted, distinct erasure positions.
        Returns the ``(chunks, k)`` messages, in which a failed row keeps
        its received bytes, and the failed row indices.  *stats* gets one
        :class:`CodewordStats` per row in row order.  With *strict* the
        rows end at the first failed one, which raises :exc:`RSDecodeError`.
        """
        syndromes = self._syndromes(words)
        dirty = syndromes.any(axis=1)
        failures: dict[int, str] = {}
        corrected: dict[int, tuple[list[int], int]] = {}
        for row, positions in enumerate(erasures):
            if len(positions) > self.num_parity:
                failures[row] = "more erasures than parity symbols"
            elif dirty[row]:
                try:
                    corrected[row] = self._correct(
                        words[row].tolist(), syndromes[row].tolist(), positions
                    )
                except RSDecodeError as exc:
                    failures[row] = str(exc)
            if strict and failures:
                break

        out = words
        if corrected:
            rows = list(corrected)
            fixed = np.array([corrected[row][0] for row in rows], dtype=np.uint8)
            residual = self._syndromes(fixed).any(axis=1)
            out = words.copy()
            for row, word, bad in zip(rows, fixed, residual):
                if bad:
                    failures[row] = "correction failed (residual syndromes)"
                else:
                    out[row] = word

        first = min(failures, default=len(words))
        if stats is not None:
            for row in range(first + 1 if strict and failures else len(words)):
                if row in failures:
                    errors, erased = 0, len(erasures[row])
                elif row in corrected:
                    errors, erased = corrected[row][1], len(erasures[row])
                else:
                    # Zero syndromes spend no budget, even with erasure hints.
                    errors, erased = 0, 0
                stats.add(
                    CodewordStats(
                        errors=errors,
                        erasures=erased,
                        parity=self.num_parity,
                        failed=row in failures,
                    )
                )
        if strict and failures:
            raise RSDecodeError(failures[first])
        return out[:, : self.k], sorted(failures)

    def _correct(
        self, word: list[int], syndromes: list[int], erasures: list[int]
    ) -> tuple[list[int], int]:
        """Correct one dirty codeword: ``(corrected word, errors)``.

        ``errors`` counts corrected positions that were not erasures.
        """
        # Erasure locator Gamma(x) = prod (1 - X_e x), ascending order.
        gamma = [1]
        for pos in erasures:
            x_e = _EXP[self.n - 1 - pos]
            gamma = [a ^ _mul(b, x_e) for a, b in zip(gamma + [0], [0] + gamma)]

        locator = _berlekamp_massey(syndromes, gamma, len(erasures))
        positions = self._chien_search(locator)
        if positions is None:
            raise RSDecodeError("error locator degree does not match its roots")
        erased = set(erasures)
        errors = sum(1 for p in positions if p not in erased)
        return _forney(word, syndromes, locator, positions), errors

    def _chien_search(self, locator: list[int]) -> list[int] | None:
        """Byte positions whose locators are roots of Lambda; None on mismatch."""
        degree = len(locator) - 1
        if degree == 0:
            return None
        terms = _EXP_Z[_LOG_Z[locator][:, None] + self._chien_log[: degree + 1]]
        positions: list[int] = np.flatnonzero(
            np.bitwise_xor.reduce(terms, axis=0) == 0
        ).tolist()
        if len(positions) != degree:
            return None
        return positions


@functools.lru_cache(maxsize=None)
def _code(n: int, k: int) -> ReedSolomon:
    """The RS(n, k) code shared by every :class:`BlockCode` of that shape."""
    return ReedSolomon(n, k)


@dataclass(frozen=True)
class BlockCode:
    """Chunked RS coding for arbitrary-length payloads.

    Splits a payload into ``k``-byte chunks (zero-padded at the tail),
    encodes each with RS(n, k), and concatenates.  ``decode`` accepts the
    original payload length so padding is stripped.
    """

    n: int
    k: int

    @property
    def rate(self) -> float:
        """Code rate k/n — the fraction of transmitted bytes that is data."""
        return self.k / self.n

    def encoded_length(self, payload_length: int) -> int:
        """Bytes on the wire for a payload of *payload_length* bytes."""
        chunks = max(1, -(-payload_length // self.k))
        return chunks * self.n

    def encode(self, payload: bytes) -> bytes:
        """Encode *payload* into a sequence of RS codewords."""
        rs = _code(self.n, self.k)
        chunks = max(1, -(-len(payload) // self.k))
        padded = bytes(payload).ljust(chunks * self.k, b"\x00")
        messages = np.frombuffer(padded, dtype=np.uint8).reshape(chunks, self.k)
        return rs._encode_rows(messages).tobytes()

    def decode(
        self,
        coded: bytes,
        payload_length: int,
        erasures: list[int] | None = None,
        *,
        stats: RSDecodeStats | None = None,
    ) -> bytes:
        """Decode back to exactly *payload_length* bytes.

        *erasures* indexes into the coded byte stream; indices are routed
        to their chunk.  *stats* accumulates one :class:`CodewordStats`
        per chunk.  Raises :exc:`RSDecodeError` if any chunk fails.
        """
        messages, __ = self._decode(coded, erasures, stats, strict=True)
        return messages.tobytes()[:payload_length]

    def decode_lenient(
        self,
        coded: bytes,
        payload_length: int,
        erasures: list[int] | None = None,
        *,
        stats: RSDecodeStats | None = None,
    ) -> tuple[bytes, list[int]]:
        """Best-effort decode: failed chunks pass through uncorrected.

        Returns ``(payload, failed_chunk_indices)``.  A failed chunk
        contributes its systematic bytes verbatim (parity stripped), so a
        higher coding layer can treat those byte ranges as erasures —
        the layering RDCode's tri-level scheme relies on.  *stats*
        records failed chunks as ``failed=True`` codewords.
        """
        messages, failed = self._decode(coded, erasures, stats, strict=False)
        return messages.tobytes()[:payload_length], failed

    def _decode(
        self,
        coded: bytes,
        erasures: list[int] | None,
        stats: RSDecodeStats | None,
        *,
        strict: bool,
    ) -> tuple[np.ndarray, list[int]]:
        if len(coded) % self.n:
            raise ValueError("coded length is not a multiple of n")
        rs = _code(self.n, self.k)
        chunks = len(coded) // self.n
        per_chunk: list[set[int]] = [set() for __ in range(chunks)]
        for idx in erasures or []:
            if 0 <= idx // self.n < chunks:
                per_chunk[idx // self.n].add(idx % self.n)
        words = np.frombuffer(bytes(coded), dtype=np.uint8).reshape(chunks, self.n)
        return rs._decode_rows(
            words, [sorted(positions) for positions in per_chunk], stats, strict=strict
        )
