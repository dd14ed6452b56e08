"""Seeded random generators for scalars, vectors, matrices and elements.

All randomness in the package flows through :class:`random.Random`
instances created from an explicit seed, so every sampled check is
reproducible and the command line tool can promise identical reports for
identical inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

from .errors import BasiskitError
from .groups import AffineTransform, GroupElement, boost_2d, rotation_2d
from .matrices import Matrix
from .scalars import Backend

__all__ = [
    "random_fraction",
    "random_vector",
    "random_invertible_matrix",
    "random_special_linear_matrix",
    "random_affine_transform",
    "sample_group_element",
]


def random_fraction(rng: Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_vector(rng: Random, n: int, backend: Backend) -> tuple:
    if backend.is_exact:
        return tuple([random_fraction(rng) for _ in range(n)])
    return tuple([rng.uniform(-3.0, 3.0) for _ in range(n)])


def _random_square(rng: Random, n: int, backend: Backend) -> Matrix:
    return Matrix.from_rows([random_vector(rng, n, backend) for _ in range(n)], backend)


def random_invertible_matrix(rng: Random, n: int, backend: Backend) -> Matrix:
    """Rejection-sample an invertible matrix.

    Float candidates are additionally required to be well conditioned in
    the crude sense of ``|det| > 0.01``, so downstream inversions stay far
    from the comparison tolerance.  Either way the result passes
    :meth:`Matrix.is_invertible`, the membership test of ``GL``.
    """
    return _invertible_with_det(rng, n, backend)[0]


def _invertible_with_det(rng: Random, n: int, backend: Backend) -> tuple:
    """``(m, det(m))`` for the matrix :func:`random_invertible_matrix` draws."""
    for _ in range(1000):
        m = _random_square(rng, n, backend)
        det = m.det()
        if backend.is_exact:
            if det != 0:
                return m, det
        elif abs(det) > max(0.01, backend.tolerance):
            return m, det
    raise BasiskitError("failed to sample an invertible matrix")


def random_special_linear_matrix(rng: Random, n: int, backend: Backend) -> Matrix:
    m, det = _invertible_with_det(rng, n, backend)
    scaled_first = tuple(x / det for x in m.entries[0])
    return Matrix((scaled_first,) + m.entries[1:], backend)


def random_affine_transform(rng: Random, n: int, backend: Backend) -> AffineTransform:
    return AffineTransform(
        random_invertible_matrix(rng, n, backend), random_vector(rng, n, backend)
    )


def sample_group_element(group, rng: Random) -> GroupElement:
    """Draw a random element of a group.

    Stored elements are sampled uniformly.  Matrix families without a
    store fall back to family-specific generators where one exists.  A
    sampled ``GL`` or ``AFFINE`` element is invertible by construction,
    which is all their membership tests decide, so it is not tested again;
    neither is an exact ``SL`` sample, whose determinant is 1 by
    construction.
    """
    if group.store is not None:
        return rng.choice(group.store)
    family = getattr(group, "family", None)
    if family == "GL":
        return GroupElement(
            group, random_invertible_matrix(rng, group.dim, group.backend)
        )
    if family == "SL":
        m = random_special_linear_matrix(rng, group.dim, group.backend)
        # over the rationals det = 1 by construction; a float sample is tested
        return GroupElement(group, m) if group.backend.is_exact else group.element(m)
    if family == "AFFINE":
        return GroupElement(
            group, random_affine_transform(rng, group.dim, group.backend)
        )
    if family == "SO":
        p, q = group.signature
        if (p, q) == (2, 0):
            return group.element(
                rotation_2d(rng.uniform(0.0, 2.0 * math.pi), group.backend)
            )
        if (p, q) == (1, 1):
            return group.element(boost_2d(rng.uniform(-2.0, 2.0), group.backend))
    raise BasiskitError(f"no sampler for {group!r} without stored elements")
