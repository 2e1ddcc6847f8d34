"""The seeding words and first normals of many RandomStreams at once, for
``RandomStream.derive_many`` and ``RandomStream._normal_rows``.

A RandomStream seeds ``PCG64`` from ``SeedSequence(entropy=seed,
spawn_key=(experiment, trial)).generate_state(4, np.uint64)``.  This module
computes those words for a range of trials in one pass and hands them to
``PCG64`` through ``SeedWords``.  It is numpy's SeedSequence with its
default pool of four 32-bit words (the hashmix and mix of O'Neill's
seed_seq) over the entropy words: the seed's, zero-padded to four, then the
experiment's, then the trial's.  The pool after the seed and experiment
words is the same for every trial, so it is mixed once in Python ints; only
the trial's word and the output hash run over the vector of trials, where
uint32 products wrap as numpy's do.

``standard_normals`` turns a block of those words into each stream's first
k ``standard_normal`` draws without building a generator per stream: PCG64's
seeding and k steps as broadcast 128-bit arithmetic in uint64 limbs, then
numpy's ziggurat fast path on each raw output.  A row with a draw that path
rejects is drawn by its own generator, so every row is bit-identical to the
stream's.

Importing this module imports numpy.random, so ``qcore`` imports it on first
use.
"""

from __future__ import annotations

import base64
import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

BLOCK = 4096  # trials per seed_words pass in derive_many; the words do not depend on it

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, [0] for 0."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(start: int, mult: int, count: int) -> list[int]:
    """``count + 1`` successive values of a hash constant."""
    values = [start]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    return values


# the output hash of generate_state(4, np.uint64): eight 32-bit words,
# cycling twice over the pool
_OUT = _hash_constants(_INIT_B, _MULT_B, 8)
_OUT_XOR = np.array(_OUT[:-1], dtype=np.uint32)
_OUT_MULT = np.array(_OUT[1:], dtype=np.uint32)
_OUT_POOL = np.array([0, 1, 2, 3, 0, 1, 2, 3])


def seed_words(seed: int, experiment: int, trials: range) -> np.ndarray:
    """(n, 4) uint64: ``SeedSequence(entropy=seed, spawn_key=(experiment, t))
    .generate_state(4, np.uint64)`` for every t of ``trials``, each of which
    must lie in [0, 2^32); seed in [0, 2^64), experiment >= 0."""
    entropy = _uint32_words(seed)
    entropy += [0] * (4 - len(entropy)) + _uint32_words(experiment)
    hc = _INIT_A  # the hash constant, advanced by every hashmix call

    def hashmix(value: int) -> int:
        nonlocal hc
        value ^= hc
        hc = hc * _MULT_A & _MASK32
        value = value * hc & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    # the trial's word, mixed into each pool word, then the output hash
    consts = _hash_constants(hc, _MULT_A, 4)
    t = np.fromiter(trials, dtype=np.uint32, count=len(trials))[:, None]
    h = (t ^ np.array(consts[:-1], dtype=np.uint32)) * np.array(consts[1:], dtype=np.uint32)
    h ^= h >> 16
    mixed = np.array([_MIX_MULT_L * p & _MASK32 for p in pool], dtype=np.uint32) \
        - h * np.uint32(_MIX_MULT_R)
    mixed ^= mixed >> 16
    out = (mixed[:, _OUT_POOL] ^ _OUT_XOR) * _OUT_MULT
    out ^= out >> 16
    # as generate_state: little-endian word pairs, in native byte order
    return out.astype("<u4", order="C", copy=False).view("<u8").astype(np.uint64)


class SeedWords(ISeedSequence):
    """A SeedSequence stand-in that hands PCG64 one row of ``seed_words``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("SeedWords holds the four uint64 words PCG64 asks for")
        return self.words


# ---------------------------------------------------------------------------
# The first standard normals of many seeded streams at once
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341  # PCG64's 128-bit LCG multiplier

# numpy's ziggurat tables for standard_normal: ki_double (uint64) then
# wi_double (float64), little-endian, read off the installed numpy by probing
# PCG64 outputs (tests/test_qcore.py re-probes every entry).  wi at the one
# index whose ki is 0 is never used, and is stored as 0.
_TABLES = np.frombuffer(base64.b64decode(
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvvDgCq"
    "RPoKRxkPABjL/2HtNw8AXCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM8YYPAN4l"
    "g1emjw8A2tBNxySXDwAJ9dsHqZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5GGf7sA8AxnRT"
    "jZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9DwBXbP9gMMAPAEiiNxCCwg8A0VvieqbEDwAx7nqX"
    "osYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8AmeyPTbXODwAwyR2/B9APAObE1k1G"
    "0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7AidYPADLoyKlu1w8A6Ah7VEjY"
    "DwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8W1z52w8AfZq5653cDwCdchiBO90P"
    "AJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8AQO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8A"
    "TLgoPFnhDwCZP7yMx+EPAKoc2+kx4g8AkRvahZjiDwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/"
    "rZ7pEOQPADR31EZn5A8AXAlM07rkDwAkldKuC+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ"
    "2W825g8AeNXGdXvmDwCqER5mvuYPAPL05VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3"
    "jfDnDwCM8FOQKOgPADoXNfte6A8AZAiE3JPoDwC8zvBBx+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJ"
    "WekPAKKak/uG6Q8AZkhxrLPpDwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLqDwAslTKrWuoPABp01aaB"
    "6g8A8Bzel6fqDwAg2fOFzOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A+oTi9Hbr"
    "DwAUIOZflusPAHydz/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwP"
    "AJbxKf1b7A8A9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8A"
    "t5F/xP7sDwAohTV3E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCC"
    "qeRXg+0PAMgspAaU7Q8ABLeFK6TtDwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZ"
    "kA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A4AaQVx7uDwAkZUtzKe4PALzkChU07g8APJu4"
    "PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGXWAtq7g8Aegc+bHHuDwCCezJY"
    "eO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahRmO4PAFxIEw6c"
    "7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6BM6o7g8AOzPoS6nu"
    "DwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A2uQiHaLuDwAkIDUun+4P"
    "AC6vJryb7g8A5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2rojuDwD9PX+Ogu4PAIi4p9577g8A"
    "/zf/m3TuDwBevanDbO4PAH4AnlJk7g8AiCijRVvuDwC2V06ZUe4PAM8GAEpH7g8AUCzhUzzuDwDY"
    "KuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqiCe4PAMxJ4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5"
    "zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8ANqg4HH/tDwArwLnSae0PAACuBo1T7Q8AIqTe"
    "QTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/sDwC4tw4Q1OwPALRulQi37A8AwTAStpjsDwB4qQ0K"
    "eewPAP4xD/VX7A8AYsmGZjXsDwA1s7RMEewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKFyeFv"
    "6w8Anh+t00LrDwBLLQuwE+sPAOkCGlni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATq"
    "DwA7Vi/WxekPAKRHqTuE6Q8AKEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgP"
    "AMAzgkir5w8ApWofdUznDwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8A"
    "WPQ21IvkDwA3Hv2/+eMPAJyx7jVd4w8A/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCq"
    "cSuwgt8PAKr+fsWH3g8A/TvGCXXdDwATvynlRtwPAIICLvj42g8Adbqy4YXZDwAEz0jv5tcPAAtl"
    "va0T1g8AEvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u0scPAO0iHi8rww8AOrjA"
    "gWW9DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oaDwB52RV4"
    "O0nPPAAAAAAAAAAAtFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgvTQCcPHRydFov"
    "rJ08w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88"
    "ozwvsaLBnr2jPFWb/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mum"
    "PHAFAJKi0qY8pvhG09o2pzx3KrMQrZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k8"
    "6h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdiqjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6"
    "n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8SLeADp8erTwQH+QpnWetPMO4"
    "IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj22FT2Ua88rteH"
    "nm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyE"
    "fa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqn"
    "ibE8iG3uURuosTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRb"
    "sjx/0x1mKnmyPBvXGceBlrI82i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiez"
    "PKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSysm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8"
    "dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae33q0PC+PSDK6lrQ8XUEC9oeytDzc"
    "EbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndYtTx4X1UOAHS1PBSF"
    "DsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8Cya3"
    "BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3"
    "Jw+3PMYUaVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NM"
    "z7c8595zjNbqtzwf6oakZwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQ"
    "uDxDwAWSjqy4PJwMoatlyLg8J2pEUUnkuDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5"
    "PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8"
    "W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71Ws14yLo8NrOL4bTlujwa"
    "ocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXba7W7PKLA"
    "LmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2"
    "vY+qvDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0"
    "c4m9PHBuIJkJqr08Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8A"
    "cr48Cr8qSyGUvjwIb/fAgba+PDqnEHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88aAHJIF9m"
    "vzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjBWfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTA"
    "PMf1Pk7aR8A8frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeWwDzEwHF1zarAPEjU7tE9v8A8"
    "MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8Oy5gSGRVwTzz"
    "7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHM"
    "BJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uW"
    "MdTQwjz1eKmxDe7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5w"
    "dazDPKYEF7Mnz8M8dfRgqtvywzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51z"
    "t8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kW"
    "xjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMGCVaVecc8jM7W9C3Uxzw08ikFAznI"
    "PBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmCtDvNPA=="
), dtype="<u8")
# indexed by a raw output's low nine bits, the box and the sign: wi * +-1
# scales rabs as numpy's rabs * wi and negation do, -0.0 included
_KI9 = np.tile(_TABLES[:256].astype(np.uint64), 2)
_WI9 = np.concatenate([_TABLES[256:].view("<f8"), -_TABLES[256:].view("<f8")])
_U32, _U63 = np.uint64(32), np.uint64(63)
_SEED_SHIFT = np.array([0, 0, 1, 1], dtype=np.uint64)


def _limbs(values: list[int]) -> tuple[np.ndarray, ...]:
    """128-bit ints as uint64 arrays of their shape: the high word, the
    low word, and the low word's high and low 32-bit halves."""
    hi = np.array([[v >> 64 for v in row] for row in values], dtype=np.uint64)
    lo = np.array([[v & _MASK64 for v in row] for row in values], dtype=np.uint64)
    return hi, lo, lo >> _U32, lo & np.uint64(_MASK32)


@functools.lru_cache(maxsize=64)
def _step_constants(k: int) -> tuple[np.ndarray, ...]:
    """The (2, k) limbs of P_j = A^(j+1) and Q_j = A^(j+1) + C_(j+1),
    j = 1..k, where A is PCG64's multiplier and C_m = 1 + A + ... + A^(m-1):
    the state before output j of a stream seeded with value w and increment
    inc is P_j w + Q_j inc (mod 2^128)."""
    power, partial = _PCG_MULT, 1  # A^(j+1) and C_(j+1), from j = 0
    p, q = [], []
    for _ in range(k):
        partial = (partial + power) & _MASK128
        power = power * _PCG_MULT & _MASK128
        p.append(power)
        q.append((power + partial) & _MASK128)
    return _limbs([p, q])


def _mulhi(a: np.ndarray, b1: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products a * b, b given by its 32-bit
    halves, broadcast."""
    a1, a0 = a >> _U32, a & np.uint64(_MASK32)
    u = a0 * b0
    u >>= _U32
    u += a1 * b0
    v = a0 * b1
    v += u & np.uint64(_MASK32)
    v >>= _U32
    u >>= _U32
    v += u
    v += a1 * b1
    return v


def raw_outputs(words: np.ndarray, k: int) -> np.ndarray:
    """(n, k) uint64: ``PCG64(SeedWords(row)).random_raw(k)`` for every row of
    an (n, 4) ``seed_words`` block, by PCG64's arithmetic in uint64 limbs.

    PCG64 seeds the value w = w0:w1 and the increment inc = (w2:w3 << 1) | 1
    as state = (inc + w) A + inc; output j is the XSL-RR of the state j
    steps on, P_j w + Q_j inc (``_step_constants``), so all k outputs come
    from one broadcast 128-bit product of the (n, 2) seeds [w, inc] with the
    (2, k) constants [P, Q], summed over the pair.  uint64 arrays wrap
    silently."""
    c_hi, c_lo, c_lo1, c_lo0 = _step_constants(k)
    seeds = words << _SEED_SHIFT  # w0, w1, then inc's words
    seeds[:, 2] |= words[:, 3] >> _U63
    seeds[:, 3] |= np.uint64(1)
    s_hi, s_lo = seeds[:, 0::2, None], seeds[:, 1::2, None]
    lo_terms = s_lo * c_lo
    lo = lo_terms[:, 0] + lo_terms[:, 1]
    hi_terms = _mulhi(s_lo, c_lo1, c_lo0)
    hi_terms += s_lo * c_hi
    hi_terms += s_hi * c_lo
    hi = hi_terms[:, 0] + hi_terms[:, 1]
    hi += lo < lo_terms[:, 0]  # the carry out of the low words' sum
    lo ^= hi  # XSL: the xor of the halves, rotated right by the top six bits
    hi >>= np.uint64(58)
    out = lo >> hi
    np.negative(hi, out=hi)
    hi &= _U63
    lo <<= hi
    out |= lo
    return out


def standard_normals(words: np.ndarray, k: int) -> np.ndarray:
    """(n, k) float64: ``Generator(PCG64(SeedWords(row))).standard_normal(k)``
    for every row of an (n, 4) ``seed_words`` block, bit for bit.

    Each raw output takes numpy's ziggurat fast path: the low byte picks the
    box, bit 8 the sign and bits 9-60 the magnitude rabs, which is accepted
    when below the box's ki and then scaled by its wi.  A row with a draw the
    fast path rejects (1.5 % of draws, so 11 % of rows at k = 8) is drawn in
    full by its own generator, which is what numpy would run."""
    raw = raw_outputs(words, k)
    low9 = raw & np.uint64(0x1FF)
    raw >>= np.uint64(9)
    raw &= np.uint64((1 << 52) - 1)  # rabs
    out = raw.astype(np.float64)
    out *= _WI9.take(low9)
    rejected = np.flatnonzero((raw >= _KI9.take(low9)).any(axis=1))
    redrawn = np.empty((len(rejected), k))
    for row, seeds in zip(redrawn, words[rejected]):
        np.random.Generator(np.random.PCG64(SeedWords(seeds))).standard_normal(out=row)
    out[rejected] = redrawn
    return out
