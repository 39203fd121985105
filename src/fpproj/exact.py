"""Exact integer/rational comparisons against rational powers of p.

Bound checks in this package compare exact counts with expressions of
the form ``const + coeff * p**(r/q)``.  For fractional exponents the
power is irrational, so comparisons are done by cross-multiplying and
raising both sides to the q-th power; floating point never decides a
pass/fail.
"""

from __future__ import annotations

import json
import numbers
from fractions import Fraction


def int_nth_root(x: int, q: int) -> int:
    """floor(x ** (1/q)) for x >= 0, exact integer Newton iteration."""
    if x < 0 or q < 1:
        raise ValueError("need x >= 0 and q >= 1")
    if q == 1 or x in (0, 1):
        return x
    # start above the true root, then descend
    r = 1 << (-(-x.bit_length() // q))
    while True:
        nr = ((q - 1) * r + x // r ** (q - 1)) // q
        if nr >= r:
            return r
        r = nr


def le_affine_pow(lhs, const, coeff, p: int, expo) -> bool:
    """Exact test of ``lhs <= const + coeff * p**expo`` (coeff >= 0)."""
    rem = Fraction(lhs) - Fraction(const)
    if rem <= 0:
        return True
    coeff = Fraction(coeff)
    if coeff < 0:
        raise ValueError("coeff must be nonnegative")
    if coeff == 0:
        return False
    e = Fraction(expo)
    q, r = e.denominator, e.numerator
    # rem, coeff > 0: rem <= coeff * p^(r/q)  <=>  rem^q <= coeff^q * p^r
    if r >= 0:
        return rem**q <= coeff**q * p**r
    return rem**q * p ** (-r) <= coeff**q


def le_pow(lhs, coeff, p: int, expo) -> bool:
    """Exact test of ``lhs <= coeff * p**expo``."""
    return le_affine_pow(lhs, 0, coeff, p, expo)


def floor_mul_pow(coeff, p: int, expo) -> int:
    """floor(coeff * p**expo) for rational coeff >= 0 and rational expo."""
    c = Fraction(coeff)
    if c < 0:
        raise ValueError("coeff must be nonnegative")
    if c == 0:
        return 0
    e = Fraction(expo)
    q, r = e.denominator, e.numerator
    if r >= 0:
        a, b = c.numerator**q * p**r, c.denominator**q
    else:
        a, b = c.numerator**q, c.denominator**q * p ** (-r)
    # largest t with t^q * b <= a
    t = int_nth_root(a // b, q)
    while (t + 1) ** q * b <= a:
        t += 1
    while t > 0 and t**q * b > a:
        t -= 1
    return t


def floor_pow(p: int, expo) -> int:
    """floor(p**expo) for rational expo >= 0."""
    if Fraction(expo) < 0:
        raise ValueError("expo must be nonnegative")
    return floor_mul_pow(1, p, expo)


# A decimal exponent beyond this is refused before 10^exponent is built: Python's
# default limit on the digits of an int read from a string.
MAX_DECIMAL_EXPONENT = 4300
# An integer below 2^MAX_POWER_BITS has at most MAX_DECIMAL_EXPONENT digits (2^14284 < 10^4300).
MAX_POWER_BITS = (10**MAX_DECIMAL_EXPONENT).bit_length() - 1


def parse_fraction(text) -> Fraction:
    """Parse 'a/b', decimal strings, ints or floats to an exact Fraction.

    Floats go through their shortest decimal repr, so the JSON literal
    1.3 becomes 13/10 rather than its binary expansion.  A bool is an
    int to Python but no rational to a config, so it is refused, and
    so are a value that is neither a number nor a string, a zero
    denominator and a decimal exponent beyond MAX_DECIMAL_EXPONENT.
    """
    if isinstance(text, bool):
        raise ValueError(f"expected a rational number, got the bool {text}")
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        return Fraction(repr(text))
    if not isinstance(text, (numbers.Number, str)):  # a JSON null, list or object, in the config's spelling
        raise ValueError(f"expected a rational number, got {json.dumps(text, default=repr)}")
    text = str(text).strip()
    _, e, exponent = text.lower().partition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > MAX_DECIMAL_EXPONENT):
        raise ValueError(f"decimal exponent {exponent} is beyond +-{MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None
