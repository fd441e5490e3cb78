"""Parameter validation and the exact arithmetic every other module builds on.

The model takes a rational p/q in (0,1) with pq even.  All derived constants
are rationals over omega = p+q, so integer arithmetic scaled by omega is exact;
the Fraction-valued functions here are the reference surface, and the sweep
code works with the scaled integers directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rat = Fraction
RatLike = Union[Fraction, int]


class PlaidError(Exception):
    """Base class for errors raised by this package."""


class InvalidParameter(PlaidError, ValueError):
    """The pair (p, q) is not an even rational parameter."""


class OddIntegerClass(PlaidError, ArithmeticError):
    """A value fell in the odd-integer class mod 2, which has no open-interval
    representative.  Mass and capacity computations must never see this."""


def mod2_reduce(x: RatLike) -> Rat:
    """Reduce x into the fundamental branch [-2, 2).

    The branch has width 4: its left endpoint is included, the right wraps,
    and the result differs from x by an even integer (a multiple of 4).
    This is the coordinate convention of the oriented double cover and of the
    raw local classifying formulas.
    """
    x = Fraction(x)
    return x - 4 * ((x + 2) // 4)


def normalize_open(x: RatLike) -> Rat:
    """Reduce x mod 2 into the open interval (-1, 1).

    Raises OddIntegerClass when x is an odd integer mod 2, since that class
    has no representative in (-1, 1).
    """
    x = Fraction(x)
    r = x - 2 * ((x + 1) // 2)
    if r == -1:
        raise OddIntegerClass(f"{x} is an odd integer mod 2")
    return r


@dataclass(frozen=True)
class Param:
    """A validated even rational parameter p/q with its derived constants.

    omega = p+q, bigP = 2p/omega, bigQ = 2q/omega (so bigP + bigQ = 2),
    tau = alpha/omega where 2*alpha*p = +-1 mod omega with alpha in
    (0, omega/2), and adj is the remote-adjacency offset a with
    2*a*p = -1 mod omega, a in (0, omega).
    """

    p: int
    q: int
    omega: int
    bigP: Rat
    bigQ: Rat
    alpha: int
    tau: Rat
    tune_sign: int
    adj: int

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def make_param(p: int, q: int) -> Param:
    """Validate (p, q) and derive all constants.

    Rejects, with distinct diagnostics: non-positive input, p >= q,
    gcd(p, q) != 1, and p*q odd.
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        raise InvalidParameter(f"p and q must be integers, got {p!r}, {q!r}")
    if p < 1 or q < 2:
        raise InvalidParameter(f"need p >= 1 and q >= 2, got p={p}, q={q}")
    if p >= q:
        raise InvalidParameter(f"need p < q, got p={p} >= q={q}")
    if math.gcd(p, q) != 1:
        raise InvalidParameter(f"p and q must be coprime, gcd({p},{q})={math.gcd(p, q)}")
    if (p * q) % 2 != 0:
        raise InvalidParameter(f"p*q must be even, got p={p}, q={q} both odd")
    omega = p + q
    # gcd(2p, omega) = 1 because omega is odd and coprime to p.
    inv = pow(2 * p, -1, omega)
    if 2 * inv < omega:
        alpha, sign = inv, +1
    else:
        alpha, sign = omega - inv, -1
    adj = (omega - inv) % omega
    return Param(
        p=p,
        q=q,
        omega=omega,
        bigP=Fraction(2 * p, omega),
        bigQ=Fraction(2 * q, omega),
        alpha=alpha,
        tau=Fraction(alpha, omega),
        tune_sign=sign,
        adj=adj,
    )


def even_rationals(max_omega: int):
    """All even rational parameters with omega <= max_omega, ordered by (omega, p).

    omega is forced odd: coprime p, q with pq even means exactly one is even.
    """
    out = []
    for omega in range(3, max_omega + 1, 2):
        for p in range(1, (omega + 1) // 2):
            if math.gcd(p, omega) == 1:
                out.append(make_param(p, omega - p))
    return out


def sym_reduce(t: int, modulus: int) -> int:
    """Reduce the integer t into [-modulus/2, modulus/2) modulo `modulus`."""
    half = modulus // 2
    return (t + half) % modulus - half
