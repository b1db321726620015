"""The batched Reed-Solomon decoder against the scalar one it replaced.

GF(256) arithmetic is exact, so the batched path (one table operation for
every chunk's syndromes, plain-int correction only on dirty chunks) must
reproduce the scalar decoder's output exactly: the same bytes, the same
exception type and message (``FrameResult.failure`` embeds it) and the
same ``RSDecodeStats.codewords`` list.  The oracle below is the scalar
implementation copied verbatim, with only its two class names changed;
it shares ``RSDecodeError`` and the stats classes with the module under
test so outcomes compare directly.

The patterns are seeded per chunk over RS(32,24) (the frame code),
RS(10,8) (t = 1, miscorrects easily) and RS(32,26): clean chunks,
erasure hints on clean chunks, errors within and past capacity, erasures
within the n - k budget and past it, and a failure in a middle chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.coding.galois import gf_inverse, gf_mul, gf_pow, poly_divmod, poly_mul
from repro.coding.reed_solomon import (
    BlockCode,
    CodewordStats,
    ReedSolomon,
    RSDecodeError,
    RSDecodeStats,
)

CODES = [(32, 24), (10, 8), (32, 26)]
KINDS = ("clean", "hinted", "within", "past", "erased", "overflow")

# --- oracle: the scalar decoder, verbatim --------------------------------


def _generator_poly(num_parity: int) -> np.ndarray:
    """g(x) = prod_{i=0}^{num_parity-1} (x - alpha^i), descending order."""
    gen = np.array([1], dtype=np.int64)
    for i in range(num_parity):
        gen = poly_mul(gen, np.array([1, gf_pow(2, i)], dtype=np.int64))
    return gen


# --- ascending-order helpers local to the decoder ------------------------


def _asc_eval(poly: list[int], x: int) -> int:
    """Evaluate an ascending-order polynomial at *x* (Horner from the top)."""
    acc = 0
    for coeff in reversed(poly):
        acc = gf_mul(acc, x) ^ coeff
    return acc


def _asc_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] ^= gf_mul(a, b)
    return out


def _asc_scale(p: list[int], s: int) -> list[int]:
    return [gf_mul(c, s) for c in p]


def _asc_add(p: list[int], q: list[int]) -> list[int]:
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] ^= c
    for i, c in enumerate(q):
        out[i] ^= c
    return out


def _asc_trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _asc_derivative(p: list[int]) -> list[int]:
    """Formal derivative over GF(2^m): only odd-power terms survive."""
    out = [p[i] if i % 2 == 1 else 0 for i in range(1, len(p))]
    return out or [0]


class ScalarReedSolomon:
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
        self._gen = _generator_poly(self.num_parity)

    @property
    def max_errors(self) -> int:
        """Errors correctable without erasure information."""
        return self.num_parity // 2

    def encode(self, message: bytes | bytearray | np.ndarray) -> bytes:
        """Append ``n - k`` parity bytes to a ``k``-byte message."""
        msg = np.frombuffer(bytes(message), dtype=np.uint8).astype(np.int64)
        if len(msg) != self.k:
            raise ValueError(f"message must be exactly {self.k} bytes, got {len(msg)}")
        shifted = np.concatenate([msg, np.zeros(self.num_parity, dtype=np.int64)])
        __, remainder = poly_divmod(shifted, self._gen)
        parity = np.zeros(self.num_parity, dtype=np.int64)
        parity[self.num_parity - len(remainder) :] = remainder
        return bytes(np.concatenate([msg, parity]).astype(np.uint8))

    # The codeword polynomial is C(x) = sum_i c_i x^{n-1-i}; byte position
    # p therefore has locator X = alpha^{n-1-p}.

    def _syndromes(self, word: np.ndarray) -> list[int]:
        """S_j = C(alpha^j) for j = 0..n-k-1 (all zero iff valid codeword)."""
        out = []
        for j in range(self.num_parity):
            x = gf_pow(2, j)
            acc = 0
            for byte in word:
                acc = gf_mul(acc, x) ^ int(byte)
            out.append(acc)
        return out

    def check(self, received: bytes | bytearray | np.ndarray) -> bool:
        """True when *received* is a valid codeword (all syndromes zero)."""
        word = np.frombuffer(bytes(received), dtype=np.uint8).astype(np.int64)
        if len(word) != self.n:
            return False
        return not any(self._syndromes(word))

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
        word = np.frombuffer(bytes(received), dtype=np.uint8).astype(np.int64)
        if len(word) != self.n:
            raise ValueError(f"codeword must be exactly {self.n} bytes, got {len(word)}")
        erasures = sorted(set(erasures or []))
        if any(not 0 <= e < self.n for e in erasures):
            raise ValueError("erasure positions out of range")
        if len(erasures) > self.num_parity:
            if stats is not None:
                stats.add(
                    CodewordStats(
                        errors=0,
                        erasures=len(erasures),
                        parity=self.num_parity,
                        failed=True,
                    )
                )
            raise RSDecodeError("more erasures than parity symbols")

        syndromes = self._syndromes(word)
        if not any(syndromes):
            if stats is not None:
                stats.add(CodewordStats(errors=0, erasures=0, parity=self.num_parity))
            return bytes(word[: self.k].astype(np.uint8))

        try:
            # Erasure locator Gamma(x) = prod (1 - X_e x), ascending order.
            gamma = [1]
            for pos in erasures:
                x_e = gf_pow(2, self.n - 1 - pos)
                gamma = _asc_mul(gamma, [1, x_e])

            locator = self._berlekamp_massey(syndromes, gamma, len(erasures))
            positions = self._chien_search(locator)
            if positions is None:
                raise RSDecodeError("error locator degree does not match its roots")

            corrected = self._forney(word, syndromes, locator, positions)
            if any(self._syndromes(corrected)):
                raise RSDecodeError("correction failed (residual syndromes)")
        except RSDecodeError:
            if stats is not None:
                stats.add(
                    CodewordStats(
                        errors=0,
                        erasures=len(erasures),
                        parity=self.num_parity,
                        failed=True,
                    )
                )
            raise
        if stats is not None:
            erased = set(erasures)
            errors = sum(1 for p in positions if p not in erased)
            stats.add(
                CodewordStats(
                    errors=errors, erasures=len(erasures), parity=self.num_parity
                )
            )
        return bytes(corrected[: self.k].astype(np.uint8))

    def _berlekamp_massey(
        self, syndromes: list[int], gamma: list[int], num_erasures: int
    ) -> list[int]:
        """Berlekamp-Massey seeded with the erasure locator *gamma*.

        Returns the combined errata locator Lambda(x), ascending order.
        """
        locator = list(gamma)
        prev = list(gamma)
        for step in range(self.num_parity - num_erasures):
            k = num_erasures + step
            # Discrepancy delta = sum_i Lambda_i S_{k-i}.
            delta = 0
            for i, coeff in enumerate(locator):
                if k - i < 0:
                    break
                delta ^= gf_mul(coeff, syndromes[k - i])
            prev = [0] + prev  # prev *= x
            if delta != 0:
                if len(prev) > len(locator):
                    # Degree grows: keep a rescaled copy of the old locator
                    # as the new auxiliary polynomial (Massey's B update).
                    new_prev = _asc_scale(locator, gf_inverse(delta))
                    locator = _asc_add(locator, _asc_scale(prev, delta))
                    prev = new_prev
                else:
                    locator = _asc_add(locator, _asc_scale(prev, delta))
        return _asc_trim(locator)

    def _chien_search(self, locator: list[int]) -> list[int] | None:
        """Byte positions whose locators are roots of Lambda; None on mismatch."""
        degree = len(_asc_trim(locator)) - 1
        if degree == 0:
            return None
        positions = []
        for pos in range(self.n):
            x_inv = gf_pow(2, (255 - (self.n - 1 - pos)) % 255)
            if _asc_eval(locator, x_inv) == 0:
                positions.append(pos)
        if len(positions) != degree:
            return None
        return positions

    def _forney(
        self,
        word: np.ndarray,
        syndromes: list[int],
        locator: list[int],
        positions: list[int],
    ) -> np.ndarray:
        """Correct *word* in place (on a copy) at *positions*.

        With roots starting at alpha^0, the magnitude at position p with
        locator X is ``Y = X * Omega(X^{-1}) / Lambda'(X^{-1})``.
        """
        # Omega(x) = S(x) Lambda(x) mod x^{2t}, ascending order.
        omega = _asc_mul(syndromes, locator)[: self.num_parity]
        deriv = _asc_derivative(locator)

        corrected = word.copy()
        for pos in positions:
            x = gf_pow(2, self.n - 1 - pos)
            x_inv = gf_inverse(x)
            denom = _asc_eval(deriv, x_inv)
            if denom == 0:
                raise RSDecodeError("Forney denominator zero")
            numer = gf_mul(x, _asc_eval(omega, x_inv))
            corrected[pos] ^= gf_mul(numer, gf_inverse(denom))
        return corrected


@dataclass(frozen=True)
class ScalarBlockCode:
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
        rs = ScalarReedSolomon(self.n, self.k)
        chunks = max(1, -(-len(payload) // self.k))
        padded = payload.ljust(chunks * self.k, b"\x00")
        return b"".join(
            rs.encode(padded[i * self.k : (i + 1) * self.k]) for i in range(chunks)
        )

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
        if len(coded) % self.n:
            raise ValueError("coded length is not a multiple of n")
        rs = ScalarReedSolomon(self.n, self.k)
        per_chunk: dict[int, list[int]] = {}
        for idx in erasures or []:
            per_chunk.setdefault(idx // self.n, []).append(idx % self.n)
        out = bytearray()
        for chunk_idx in range(len(coded) // self.n):
            chunk = coded[chunk_idx * self.n : (chunk_idx + 1) * self.n]
            out.extend(rs.decode(chunk, per_chunk.get(chunk_idx), stats=stats))
        return bytes(out[:payload_length])

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
        if len(coded) % self.n:
            raise ValueError("coded length is not a multiple of n")
        rs = ScalarReedSolomon(self.n, self.k)
        per_chunk: dict[int, list[int]] = {}
        for idx in erasures or []:
            per_chunk.setdefault(idx // self.n, []).append(idx % self.n)
        out = bytearray()
        failed = []
        for chunk_idx in range(len(coded) // self.n):
            chunk = coded[chunk_idx * self.n : (chunk_idx + 1) * self.n]
            try:
                out.extend(rs.decode(chunk, per_chunk.get(chunk_idx), stats=stats))
            except RSDecodeError:
                failed.append(chunk_idx)
                out.extend(chunk[: self.k])
        return bytes(out[:payload_length]), failed


# --- damage patterns -----------------------------------------------------


def _damage(word: bytearray, kind: str, n: int, k: int, rng: np.random.Generator) -> list[int]:
    """Damage one codeword in place as *kind* says; return its erasure hints.

    Error positions always change; erased positions change with
    probability 1/2 (an erasure at a clean position must be harmless).
    """
    parity = n - k
    t = parity // 2
    if kind == "clean":
        return []
    if kind == "hinted":
        return rng.choice(n, int(rng.integers(1, parity + 1)), replace=False).tolist()
    if kind == "within":
        num_errors = int(rng.integers(0, t + 1))
        num_erased = int(rng.integers(0 if num_errors else 1, parity - 2 * num_errors + 1))
    elif kind == "past":
        num_errors = int(rng.integers(t + 1, parity + 1))
        num_erased = int(rng.integers(0, min(3, n - num_errors + 1)))
    else:  # overflow: more erasures than parity symbols
        num_errors = int(rng.integers(0, 2))
        num_erased = int(rng.integers(parity + 1, min(n - num_errors, parity + 3) + 1))
    positions = rng.choice(n, num_errors + num_erased, replace=False).tolist()
    erased, errors = positions[:num_erased], positions[num_erased:]
    for pos in errors + [p for p in erased if rng.random() < 0.5]:
        word[pos] ^= int(rng.integers(1, 256))
    return erased


def _frame(n: int, k: int, kinds: list[str], seed: int) -> tuple[bytes, list[int]]:
    """A damaged multi-chunk stream and its erasure hints as stream indices."""
    rng = np.random.default_rng([n, k, seed])
    payload = bytes(rng.integers(0, 256, k * len(kinds), dtype=np.uint8))
    coded = bytearray(ScalarBlockCode(n, k).encode(payload))
    hints = []
    for chunk, kind in enumerate(kinds):
        word = coded[chunk * n : (chunk + 1) * n]
        hints += [chunk * n + p for p in _damage(word, kind, n, k, rng)]
        coded[chunk * n : (chunk + 1) * n] = word
    return bytes(coded), hints


def _outcome(call):
    """``(result or (exception type, message), recorded codeword stats)``."""
    stats = RSDecodeStats()
    try:
        result = call(stats)
    except (RSDecodeError, ValueError) as exc:
        result = (type(exc), str(exc))
    return result, stats.codewords


def _assert_block_decodes_match(n: int, k: int, coded: bytes, hints: list[int]) -> list:
    new, old = BlockCode(n, k), ScalarBlockCode(n, k)
    length = len(coded) // n * k - 3
    outcomes = []
    for erasures in (hints, None):
        for method in ("decode", "decode_lenient"):
            got = _outcome(
                lambda s, m=method: getattr(new, m)(coded, length, erasures, stats=s)
            )
            want = _outcome(
                lambda s, m=method: getattr(old, m)(coded, length, erasures, stats=s)
            )
            assert got == want, (method, erasures)
            outcomes.append(want)
    return outcomes


# --- tests ---------------------------------------------------------------


@pytest.mark.parametrize("n,k", CODES)
def test_encode_matches_scalar(n, k):
    rng = np.random.default_rng([n, k])
    new_rs, old_rs = ReedSolomon(n, k), ScalarReedSolomon(n, k)
    messages = [bytes(k), b"\x00" * (k - 1) + b"\x01", b"\xff" * k]
    messages += [bytes(rng.integers(0, 256, k, dtype=np.uint8)) for __ in range(20)]
    for message in messages:
        assert new_rs.encode(message) == old_rs.encode(message)
    for length in (0, 1, k - 1, k, k + 1, 3 * k, 5 * k - 2):
        payload = bytes(rng.integers(0, 256, length, dtype=np.uint8))
        assert BlockCode(n, k).encode(payload) == ScalarBlockCode(n, k).encode(payload)


@pytest.mark.parametrize("n,k", CODES)
@pytest.mark.parametrize("kind", ["clean", "hinted", "within", "past", "overflow"])
def test_codeword_decode_matches_scalar(n, k, kind):
    new_rs, old_rs = ReedSolomon(n, k), ScalarReedSolomon(n, k)
    rng = np.random.default_rng([n, k, KINDS.index(kind)])
    for __ in range(12):
        message = bytes(rng.integers(0, 256, k, dtype=np.uint8))
        word = bytearray(old_rs.encode(message))
        erasures = _damage(word, kind, n, k, rng)
        assert new_rs.check(bytes(word)) == old_rs.check(bytes(word))
        for hints in (erasures, None):
            got = _outcome(lambda s, h=hints: new_rs.decode(bytes(word), h, stats=s))
            want = _outcome(lambda s, h=hints: old_rs.decode(bytes(word), h, stats=s))
            assert got == want


@pytest.mark.parametrize("n,k", CODES)
@pytest.mark.parametrize("seed", range(8))
def test_block_decode_matches_scalar(n, k, seed):
    rng = np.random.default_rng([seed, n])
    kinds = rng.choice(KINDS[:-1], size=int(rng.integers(1, 7))).tolist()
    if seed % 4 == 0:
        kinds[len(kinds) // 2] = "overflow"
    coded, hints = _frame(n, k, kinds, seed)
    # Duplicate and out-of-stream hints are routed (or dropped) the same way.
    hints += hints[:2] + [-1, len(coded) + n]
    _assert_block_decodes_match(n, k, coded, hints)


@pytest.mark.parametrize("n,k", CODES)
@pytest.mark.parametrize("failing", ["past", "overflow"])
def test_middle_chunk_failure_matches_scalar(n, k, failing):
    """decode records every chunk up to and including the first failed one."""
    for seed in range(4):
        kinds = ["within", "hinted", failing, "within", "clean"]
        coded, hints = _frame(n, k, kinds, 100 + seed)
        outcomes = _assert_block_decodes_match(n, k, coded, hints)
        strict_result, strict_stats = outcomes[0]
        if isinstance(strict_result, tuple):
            assert len(strict_stats) <= 3
            assert strict_stats[-1].failed
        lenient_stats = outcomes[1][1]
        assert len(lenient_stats) == len(kinds)


def test_patterns_reach_every_scalar_failure():
    """The corpus drives each failure branch the oracle has, plus miscorrection."""
    messages = set()
    miscorrected = 0
    for n, k in CODES:
        old_rs = ScalarReedSolomon(n, k)
        rng = np.random.default_rng([n, k, 99])
        for kind in ("past", "overflow"):
            for __ in range(40):
                message = bytes(rng.integers(0, 256, k, dtype=np.uint8))
                word = bytearray(old_rs.encode(message))
                erasures = _damage(word, kind, n, k, rng)
                result, __ = _outcome(lambda s: old_rs.decode(bytes(word), erasures, stats=s))
                if isinstance(result, tuple):
                    messages.add(result[1])
                elif result != message:
                    miscorrected += 1
    assert {
        "more erasures than parity symbols",
        "error locator degree does not match its roots",
    } <= messages
    assert miscorrected > 0


def test_invalid_inputs_raise_like_scalar():
    new_rs, old_rs = ReedSolomon(32, 24), ScalarReedSolomon(32, 24)
    word = old_rs.encode(bytes(24))
    for args in ((word[:-1], None), (word, [32]), (word, [-1])):
        got = _outcome(lambda s, a=args: new_rs.decode(*a, stats=s))
        assert got == _outcome(lambda s, a=args: old_rs.decode(*a, stats=s))
    for message in (b"", bytes(23), bytes(25)):
        with pytest.raises(ValueError) as new_exc:
            new_rs.encode(message)
        with pytest.raises(ValueError) as old_exc:
            old_rs.encode(message)
        assert str(new_exc.value) == str(old_exc.value)
    assert not new_rs.check(word[:-1]) and not old_rs.check(word[:-1])
    for method in ("decode", "decode_lenient"):
        got = _outcome(lambda s, m=method: getattr(BlockCode(32, 24), m)(word[:-1], 8))
        want = _outcome(lambda s, m=method: getattr(ScalarBlockCode(32, 24), m)(word[:-1], 8))
        assert got == want


def test_empty_stream_matches_scalar():
    for method in ("decode", "decode_lenient"):
        assert getattr(BlockCode(32, 24), method)(b"", 0) == getattr(
            ScalarBlockCode(32, 24), method
        )(b"", 0)
