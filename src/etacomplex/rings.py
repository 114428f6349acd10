"""Exact coefficient rings: the integers, Z/m, prime fields and the rationals.

Ring elements are plain Python ints (Fraction for the rationals), always kept
in canonical form: representatives in [0, m) for Z/m and GF(p), reduced
fractions for Q.  ``CoeffRing.canon`` maps any value to that form; it is
applied where values enter the package (matrix constructors fed by users,
files and generators, and the scalar methods ``add``, ``mul``, ...).  Code
that computes on canonical elements only reduces what its arithmetic can
push out of range: a ``% m`` over Z/m and GF(p), nothing over Z and Q (see
``matrix``).  In instance files an element is a string (``elem_to_str``)
and every integer field a JSON integer (``json_int``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def json_int(v, what: str) -> int:
    """An integer read from an instance file (a rank, degree, position, shape
    or modulus); a float or a bool is rejected, not truncated."""
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class CoeffRing:
    """One of Integers, IntegersMod(m), PrimeField(p) or Rationals."""

    kind: str  # "Z" | "Zmod" | "GF" | "Q"
    modulus: int = 0

    def __post_init__(self):
        if self.kind not in ("Z", "Zmod", "GF", "Q"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Zmod" and self.modulus < 2:
            raise ValueError("IntegersMod modulus must be >= 2")
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
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def canon(self, x):
        """Reduce x to the canonical representative."""
        if self.kind == "Q":
            return Fraction(x)
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
        from math import gcd

        return gcd(a, self.modulus) == 1

    def inv(self, a):
        a = self.canon(a)
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit in {self}")
        if self.kind == "Z":
            return a
        if self.kind == "Q":
            return Fraction(1) / a
        return pow(a, -1, self.modulus)

    def elem_to_str(self, a) -> str:
        if self.kind == "Q":
            f = Fraction(a)
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        return str(a)

    def elem_from_str(self, s: str):
        """Parse an element written by ``elem_to_str``; anything but a string
        of an integer (or a fraction over Q) is rejected."""
        if type(s) is not str:
            raise ValueError(f"a ring element must be a string, got {s!r}")
        if self.kind == "Q":
            if "/" in s:
                num, den = s.split("/")
                if int(den) == 0:
                    raise ValueError(f"zero denominator in {s!r}")
                return Fraction(int(num), int(den))
            return Fraction(int(s))
        return self.canon(int(s))

    def to_json(self) -> dict:
        d = {"kind": self.kind}
        if self.is_modular:
            d["modulus"] = self.modulus
        return d

    @staticmethod
    def from_json(d: dict) -> "CoeffRing":
        return CoeffRing(d["kind"], json_int(d.get("modulus", 0), "modulus"))

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
