"""Exception types, and the input rules that several routes share: each
range or shape rule is implemented once, here, below every other module,
and called wherever it applies.  The helpers take positional arguments,
since some run in every scalar call."""


class PoleError(ValueError):
    """A gamma-type function was evaluated at a pole (nonpositive integer)."""


class DenominatorPoleError(PoleError):
    """A denominator Pochhammer factor vanishes inside a terminating series."""


class DomainError(ValueError):
    """A point lies outside the admissible domain of an operation."""


class NonFiniteIntegrandError(ArithmeticError):
    """An integrand evaluated to a non-finite value at a quadrature node."""


def _check_weight(value, name: str) -> float:
    """``value`` as a float if it is a weight parameter in range (the ball
    weight mu or a Gegenbauer lambda): > -1/2 and != 0."""
    if not value > -0.5 or value == 0.0:
        raise ValueError(f"{name} must satisfy {name} > -1/2 and {name} != 0 "
                         f"(the norms have a Gamma({name}) pole at 0)")
    return float(value)


def _check_decay(value, name: str) -> None:
    """Refuse a decay parameter (a, a1, a2) that is not positive."""
    if not value > 0:
        raise ValueError(f"decay parameter must satisfy {name} > 0")


def _check_order(n, name: str) -> int:
    """``n`` as an int if it is a nonnegative integer (a degree or order)."""
    if n < 0 or n != int(n):
        raise ValueError(f"{name} must be a nonnegative integer")
    return int(n)


def _check_jacobi_exponents(alpha, beta) -> None:
    """Refuse Jacobi exponents alpha, beta unless both exceed -1."""
    if alpha <= -1 or beta <= -1:
        raise ValueError("Jacobi exponents must satisfy alpha, beta > -1")


def _check_vectors(x, r: int, name: str):
    """The array ``x`` if its shape is (..., r): length-r points or
    frequency vectors."""
    if x.ndim == 0 or x.shape[-1] != r:
        raise ValueError(f"{name} must have shape (..., {r})")
    return x


def _check_lower(params, n: int) -> None:
    """Refuse lower parameters of an order-n terminating series if q + k = 0
    for one of them and an integer 0 <= k < n: its Pochhammer symbol
    (q)_k vanishes inside the sum."""
    for q in map(complex, params):
        if q.imag == 0.0 and q.real <= 0.0 and q.real == int(q.real) and q.real > -n:
            raise DenominatorPoleError("a lower parameter's Pochhammer factor vanishes "
                                       "within the summation range")
