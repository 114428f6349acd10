"""Exact coefficient rings: the integers, Z/m, prime fields and the rationals.

Ring elements are plain Python ints, always kept in canonical form:
representatives in [0, m) for Z/m and GF(p), any int for Z.  Over Q an
integral value is its int and any other value a reduced ``Fraction`` with
denominator > 1, so integral data runs on int arithmetic.  ``CoeffRing.canon``
maps any value to that form; it is applied where values enter the package
(matrix constructors fed by users, files and generators, and the scalar
methods ``add``, ``mul``, ...).  Code that computes on canonical elements
only reduces what its arithmetic can push out of range: a ``% m`` over Z/m
and GF(p), nothing over Z, and over Q a computed ``Fraction`` with
denominator 1 becomes its int (see ``matrix``).  In instance files an
element is a string (``elem_to_str``) and every integer field a JSON
integer (``json_int``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, List, Tuple


def json_int(v, what: str) -> int:
    """An integer read from an instance file (a rank, degree, position, shape
    or modulus); a float or a bool is rejected, not truncated."""
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


def q_canon(x):
    """A rational computed from canonical ones (an int or a ``Fraction``) in
    Q's canonical form: its int when it is integral."""
    return x.numerator if x.denominator == 1 else x


# An integer as instance files write it: one or more ASCII digits, after at
# most one leading "-".  ``matrix`` builds its check of a whole batch of
# entries from the same pattern.
_INT = "-?[0-9]+"
_is_int_str = re.compile(_INT).fullmatch


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on the bases above is exact below this bound (Sorenson &
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a ValueError above ``_MR_BOUND``, where
    these bases no longer decide primality."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: "
                         f"a GF modulus must be below {_MR_BOUND}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper divisor of a composite n with no prime factor below 1000:
    Pollard's rho with Brent's cycle search (BIT 20, 1980)."""
    for c in range(1, n):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g
    raise ArithmeticError(f"no divisor of {n} found")


@lru_cache(maxsize=128)
def _prime_powers(m: int) -> List[Tuple[int, int]]:
    """The factorization of 2 <= m < ``_MR_BOUND`` as [(p, k), ...], primes
    increasing: trial division below 1000, then ``_is_prime`` and ``_rho`` on
    the cofactor left.  Kept per modulus, so every solve over one Z/m after
    the first factors nothing; callers must not change the list."""
    counts: Dict[int, int] = {}
    p = 2
    while p < 1000 and p * p <= m:
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
        p += 1
    left = [m] if m > 1 else []
    while left:
        n = left.pop()
        if _is_prime(n):
            counts[n] = counts.get(n, 0) + 1
        else:
            d = _rho(n)
            left += [d, n // d]
    return sorted(counts.items())


@dataclass(frozen=True)
class CoeffRing:
    """One of Integers, IntegersMod(m), PrimeField(p) or Rationals."""

    kind: str  # "Z" | "Zmod" | "GF" | "Q"
    modulus: int = 0

    def __post_init__(self):
        if self.kind not in ("Z", "Zmod", "GF", "Q"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Zmod" and not 2 <= self.modulus < _MR_BOUND:
            raise ValueError(f"an IntegersMod modulus must be >= 2 and below {_MR_BOUND}")
        if self.kind == "GF" and not _is_prime(self.modulus):
            raise ValueError(f"{self.modulus} is not prime")
        if self.kind in ("Z", "Q") and self.modulus:
            raise ValueError("modulus only allowed for Zmod/GF")

    @property
    def is_field(self) -> bool:
        return self.kind in ("GF", "Q")

    @property
    def is_modular(self) -> bool:
        return self.kind in ("Zmod", "GF")

    def zero(self):
        """0, an int in every ring."""
        return 0

    def one(self):
        """1, an int in every ring."""
        return 1

    def canon(self, x):
        """Reduce x to the canonical representative: an int, or over Q a
        reduced ``Fraction`` when x is not integral."""
        if self.kind == "Q":
            return x if type(x) is int else q_canon(Fraction(x))
        x = int(x)
        return x % self.modulus if self.is_modular else x

    def add(self, a, b):
        return self.canon(a + b)

    def sub(self, a, b):
        return self.canon(a - b)

    def mul(self, a, b):
        return self.canon(a * b)

    def neg(self, a):
        return self.canon(-a)

    def is_unit(self, a) -> bool:
        a = self.canon(a)
        if self.kind == "Z":
            return a in (1, -1)
        if self.kind == "Q":
            return a != 0
        return gcd(a, self.modulus) == 1

    def inv(self, a):
        a = self.canon(a)
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit in {self}")
        if self.kind == "Z":
            return a
        if self.kind == "Q":
            return q_canon(Fraction(1) / a)
        return pow(a, -1, self.modulus)

    def elem_to_str(self, a) -> str:
        """An int as its decimal digits, a non-integral rational as "n/d"."""
        return str(a)

    def elem_from_str(self, s: str):
        """Parse an element written by ``elem_to_str``: the ASCII digits of
        an integer, "-" first if negative, and over Q also "n/d" with n and d
        so written and d nonzero.  Anything else is rejected, such as "+3",
        " 2 " or "1_0", which ``int`` would read."""
        if type(s) is not str:
            raise ValueError(f"a ring element must be a string, got {s!r}")
        if _is_int_str(s):
            return int(s) if self.kind == "Q" else self.canon(int(s))
        num, slash, den = s.partition("/")
        if not (slash and self.kind == "Q" and _is_int_str(num) and _is_int_str(den)):
            raise ValueError(f"not an element of {self}: {s!r}")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return q_canon(Fraction(int(num), d))

    def to_json(self) -> dict:
        d = {"kind": self.kind}
        if self.is_modular:
            d["modulus"] = self.modulus
        return d

    @staticmethod
    def from_json(d: dict) -> "CoeffRing":
        return CoeffRing(d["kind"], json_int(d.get("modulus", 0), "modulus"))

    def reads_as(self, d) -> bool:
        """``from_json(d)`` would return this ring: a cheaper test than
        reading d, which also checks that the ring is valid."""
        if type(d) is not dict:
            return False
        m = d.get("modulus", 0)
        return d.get("kind") == self.kind and type(m) is int and m == self.modulus

    def __str__(self):
        if self.kind == "Z":
            return "Z"
        if self.kind == "Q":
            return "Q"
        if self.kind == "GF":
            return f"GF({self.modulus})"
        return f"Z/{self.modulus}"


ZZ = CoeffRing("Z")
QQ = CoeffRing("Q")


def Zmod(m: int) -> CoeffRing:
    return CoeffRing("Zmod", m)


def GF(p: int) -> CoeffRing:
    return CoeffRing("GF", p)


def ring_from_name(name: str) -> CoeffRing:
    """Parse a ring name such as 'Z', 'Q', 'Z/4' or 'F5'."""
    name = name.strip()
    if name in ("Z", "ZZ"):
        return ZZ
    if name in ("Q", "QQ"):
        return QQ
    if name.startswith("Z/"):
        return Zmod(int(name[2:]))
    if name.startswith("F"):
        return GF(int(name[1:]))
    if name.startswith("GF(") and name.endswith(")"):
        return GF(int(name[3:-1]))
    raise ValueError(f"cannot parse ring name {name!r}")
