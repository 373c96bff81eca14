"""Exception types shared across the package."""


class WalshLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WalshLabError, ValueError):
    """A mathematically invalid input: non-primitive modulus, inverse of zero,
    a parameter outside the structure it must live in, and so on."""


class UnsupportedError(WalshLabError, ValueError):
    """Operation not defined for this field shape (e.g. relative trace needs m = 2t)."""


class NonInvertibleError(DomainError):
    """Raised by mod_inverse when gcd(d, n) != 1; carries the offending gcd."""

    def __init__(self, d: int, n: int, gcd: int):
        super().__init__(f"{d} is not invertible modulo {n}: gcd is {gcd}")
        self.d = d
        self.n = n
        self.gcd = gcd
