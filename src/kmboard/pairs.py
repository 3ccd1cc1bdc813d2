"""Collapsing-map pairs and time-label permutations.

A coupling order ``k`` fixes even labels ``2, 4, ..., 2k``.  A collapsing
map ``mu`` sends each even label ``2j`` to some index below it (with
``mu(2) = 1``), and a signature array picks a ``+`` or ``-`` per label.
Both extend to odd labels by ``mu(2l+1) = mu(2l)`` and
``sgn(2l+1) = sgn(2l)``; permutations of the even labels extend by
``rho(2l+1) = rho(2l) + 1``.  The extensions are derived on access and
never stored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    BoardError,
    CapExceeded,
    ConstraintViolation,
    KMismatch,
    LengthMismatch,
    OutOfRange,
)

SIGNS = ("+", "-")

#: Exhaustive enumeration refuses to run above this coupling order.
ENUMERATION_CAP = 10


@dataclass(frozen=True)
class CollapsingPair:
    """A collapsing map with its signature array.

    ``mu[j-1]`` holds ``mu(2j)`` and ``sgn[j-1]`` holds ``sgn(2j)`` for
    ``j = 1..k``; all I/O uses the even labels themselves.
    """

    k: int
    mu: tuple[int, ...]
    sgn: tuple[str, ...]

    def __post_init__(self):
        _check_pair(self.k, self.mu, self.sgn)

    def mu_of(self, label: int) -> int:
        """Extended collapsing map on labels ``2..2k+1``."""
        if not 2 <= label <= 2 * self.k + 1:
            raise OutOfRange(f"label {label} not in 2..{2 * self.k + 1}")
        return self.mu[(label - 2) // 2] if label % 2 == 0 else self.mu[(label - 3) // 2]

    def sgn_of(self, label: int) -> str:
        """Extended signature on labels ``2..2k+1``."""
        if not 2 <= label <= 2 * self.k + 1:
            raise OutOfRange(f"label {label} not in 2..{2 * self.k + 1}")
        return self.sgn[(label - 2) // 2] if label % 2 == 0 else self.sgn[(label - 3) // 2]

    @property
    def even_labels(self) -> range:
        return range(2, 2 * self.k + 1, 2)

    def unsigned(self) -> "CollapsingPair":
        """The same map with every sign forced to ``+``."""
        return CollapsingPair(self.k, self.mu, ("+",) * self.k)

    def to_json(self) -> dict:
        return {"k": self.k, "mu": list(self.mu), "sgn": list(self.sgn)}

    @classmethod
    def from_json(cls, obj: dict) -> "CollapsingPair":
        return validate_pair(obj["k"], obj["mu"], obj["sgn"])

    def __str__(self):
        return f"mu={','.join(map(str, self.mu))} sgn={','.join(self.sgn)}"


def _check_pair(k: int, mu, sgn) -> None:
    if k < 1:
        raise LengthMismatch(f"k must be >= 1, got {k}")
    if len(mu) != k or len(sgn) != k:
        raise LengthMismatch(f"expected {k} entries, got mu:{len(mu)} sgn:{len(sgn)}")
    for j0, s in enumerate(sgn):
        if s not in SIGNS:
            raise ConstraintViolation(j0 + 1, f"sign entry {s!r} at j={j0 + 1} is not + or -")
    if mu[0] != 1:
        raise ConstraintViolation(1, f"mu(2) must be 1, got {mu[0]}")
    for j in range(1, k + 1):
        v = mu[j - 1]
        if not 1 <= v <= 2 * j - 1:
            raise ConstraintViolation(j, f"mu({2 * j})={v} violates 1 <= mu(2j) < 2j")


def validate_pair(k: int, mu, sgn=None) -> CollapsingPair:
    """Validate raw arrays and return the pair.

    ``sgn`` may be omitted for unsigned work, in which case all signs
    are ``+``.  Raises :class:`LengthMismatch` or
    :class:`ConstraintViolation` (naming the first bad index).
    """
    if sgn is None:
        sgn = ("+",) * k
    return CollapsingPair(k, tuple(mu), tuple(sgn))


def enumerate_mus(k: int, cap: int = ENUMERATION_CAP) -> Iterator[tuple[int, ...]]:
    """All legal collapsing maps for order ``k`` in lexicographic order."""
    if k < 1:
        raise LengthMismatch(f"k must be >= 1, got {k}")
    if k > cap:
        raise CapExceeded(f"k={k} exceeds enumeration cap {cap}")
    yield from itertools.product(*(range(1, 2 * j) for j in range(1, k + 1)))


def enumerate_pairs(
    k: int, signed: bool = True, cap: int = ENUMERATION_CAP
) -> Iterator[CollapsingPair]:
    """Deterministic stream of every legal pair, exactly once.

    Ordering is lexicographic on ``mu`` and then on the sign array with
    ``+`` before ``-``.  Unsigned mode fixes every sign to ``+`` and
    yields ``(2k-1)!!`` items; signed mode yields ``(2k-1)!! * 2**k``.
    """
    all_plus = ("+",) * k
    for mu in enumerate_mus(k, cap=cap):
        if signed:
            for sgn in itertools.product(SIGNS, repeat=k):
                yield CollapsingPair(k, mu, sgn)
        else:
            yield CollapsingPair(k, mu, all_plus)


def random_pair(k: int, rng, signed: bool = True) -> CollapsingPair:
    """Uniformly random legal pair, drawn from ``rng``."""
    mu = tuple(rng.randint(1, 2 * j - 1) if j > 1 else 1 for j in range(1, k + 1))
    sgn = tuple(rng.choice(SIGNS) for _ in range(k)) if signed else ("+",) * k
    return CollapsingPair(k, mu, sgn)


def double_factorial_odd(k: int) -> int:
    """(2k-1)!! = 1 * 3 * ... * (2k-1)."""
    out = 1
    for j in range(1, k + 1):
        out *= 2 * j - 1
    return out


@dataclass(frozen=True)
class TimePermutation:
    """A permutation of the even labels ``2, 4, ..., 2k``.

    ``image[j-1]`` holds ``rho(2j)``.  Odd labels follow by
    ``rho(2l+1) = rho(2l) + 1`` and label 1 is fixed.
    """

    k: int
    image: tuple[int, ...]

    def __post_init__(self):
        evens = tuple(range(2, 2 * self.k + 1, 2))
        if len(self.image) != self.k:
            raise LengthMismatch(f"expected {self.k} images, got {len(self.image)}")
        if tuple(sorted(self.image)) != evens:
            raise ConstraintViolation(1, f"image {self.image} is not a permutation of {evens}")

    @classmethod
    def identity(cls, k: int) -> "TimePermutation":
        return cls(k, tuple(range(2, 2 * k + 1, 2)))

    @classmethod
    def transposition(cls, k: int, a: int, b: int) -> "TimePermutation":
        """The swap of even labels ``a`` and ``b``."""
        image = list(range(2, 2 * k + 1, 2))
        ia, ib = (a - 2) // 2, (b - 2) // 2
        image[ia], image[ib] = image[ib], image[ia]
        return cls(k, tuple(image))

    def of(self, label: int) -> int:
        """Apply the extended permutation; label 1 is fixed."""
        if label == 1:
            return 1
        if not 2 <= label <= 2 * self.k + 1:
            raise OutOfRange(f"label {label} not in 1..{2 * self.k + 1}")
        if label % 2 == 0:
            return self.image[(label - 2) // 2]
        return self.image[(label - 3) // 2] + 1

    def compose(self, other: "TimePermutation") -> "TimePermutation":
        """self after other: ``(self . other)(x) = self(other(x))``."""
        if self.k != other.k:
            raise KMismatch(f"cannot compose k={self.k} with k={other.k}")
        return TimePermutation(self.k, tuple(self.of(x) for x in other.image))

    def inverse(self) -> "TimePermutation":
        image = [0] * self.k
        for j, v in enumerate(self.image):
            image[(v - 2) // 2] = 2 * (j + 1)
        return TimePermutation(self.k, tuple(image))

    @property
    def is_identity(self) -> bool:
        return all(v == 2 * (j + 1) for j, v in enumerate(self.image))

    def to_json(self) -> dict:
        return {"k": self.k, "image": list(self.image)}


def all_permutations(k: int, cap: int = ENUMERATION_CAP) -> Iterator[TimePermutation]:
    """Every permutation of the even labels (k! of them)."""
    if k > cap:
        raise CapExceeded(f"k={k} exceeds enumeration cap {cap}")
    for image in itertools.permutations(range(2, 2 * k + 1, 2)):
        yield TimePermutation(k, image)


def parse_mu(text: str) -> tuple[int, ...]:
    """Parse a CLI-style ``1,1,1,2,3`` list."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise BoardError(f"mu must be a comma list of integers, got {text!r}") from None


def parse_sgn(text: str) -> tuple[str, ...]:
    """Parse a CLI-style ``+,+,-,-,+`` list."""
    return tuple(part.strip() for part in text.split(","))
