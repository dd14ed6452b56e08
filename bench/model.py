"""The benchmark's own mathematics, independent of basiskit.

The workload generators build every input from these constructions and
derive each job's expected verdict from them, so the oracle never asks
basiskit what the answer is.  Everything here is plain Python over ints,
``Fraction`` and ``float``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# -- finite groups as permutations --------------------------------------------


def perm_compose(p: tuple, q: tuple) -> tuple:
    """The permutation applying ``q`` first, then ``p``."""
    return tuple(p[x] for x in q)


def perm_inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, image in enumerate(p):
        inv[image] = i
    return tuple(inv)


def cyclic_perms(n: int) -> list:
    """Z_n as the rotations of n points; its table is addition mod n."""
    return [tuple((x + k) % n for x in range(n)) for k in range(n)]


def dihedral_perms(n: int) -> list:
    """D_n (order 2n) acting on the n vertices of a regular polygon."""
    rotations = [tuple((x + k) % n for x in range(n)) for k in range(n)]
    reflections = [tuple((k - x) % n for x in range(n)) for k in range(n)]
    return rotations + reflections


def symmetric_perms(n: int) -> list:
    return list(itertools.permutations(range(n)))


def quaternion_perms() -> list:
    """Q8 through its left-regular action on itself (a faithful permutation
    representation on eight points)."""
    unit_product = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"),
        ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"), ("j", "1"): (1, "j"),
        ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"),
        ("k", "k"): (-1, "1"),
    }
    elems = [(s, u) for u in "1ijk" for s in (1, -1)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(a, b):
        sign, unit = unit_product[(a[1], b[1])]
        return (a[0] * b[0] * sign, unit)

    return [tuple(index[mul(a, b)] for b in elems) for a in elems]


def cayley_table(perms: list) -> list:
    """``table[a][b]`` is the index of ``perms[a] o perms[b]``."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[perm_compose(p, q)] for q in perms] for p in perms]


def relabel(table: list, perms: list, sigma: list) -> tuple:
    """Rename element ``i`` to ``sigma[i]``; returns the new table and the
    permutations listed under their new indices."""
    n = len(table)
    new_table = [[0] * n for _ in range(n)]
    new_perms = [None] * n
    for a in range(n):
        new_perms[sigma[a]] = perms[a]
        for b in range(n):
            new_table[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return new_table, new_perms


def action_truth(table: list, perms: list, npoints: int) -> dict:
    """Facts about ``g -> perms[g]`` as a left action, by brute force.

    Used for the planted defects, whose verdicts are not obvious from the
    construction alone: the side law, the inverse law, the variance and the
    classification of the assignment.
    """
    n = len(table)
    identity_perm = tuple(range(npoints))
    identity = next(
        e for e in range(n) if all(table[e][a] == a for a in range(n))
    )
    inverses = [next(b for b in range(n) if table[a][b] == identity) for a in range(n)]
    side_law = perms[identity] == identity_perm and all(
        perms[table[a][b]][u] == perms[a][perms[b][u]]
        for a in range(n)
        for b in range(n)
        for u in range(npoints)
    )
    inverse_law = all(perms[inverses[g]] == perm_inverse(perms[g]) for g in range(n))
    homo = all(
        perms[table[a][b]] == perm_compose(perms[a], perms[b])
        for a in range(n)
        for b in range(n)
    )
    anti = all(
        perms[table[b][a]] == perm_compose(perms[a], perms[b])
        for a in range(n)
        for b in range(n)
    )
    return {
        "side_law": side_law,
        "inverse_law": inverse_law,
        "variance": homo or anti,
        **orbit_facts(perms, npoints, identity),
    }


def orbit_facts(perms: list, npoints: int, identity: int) -> dict:
    """Transitivity, kernel and freeness of the assignment ``g -> perms[g]``."""
    identity_perm = tuple(range(npoints))
    kernel = [g for g, p in enumerate(perms) if p == identity_perm]
    reach = {p[0] for p in perms}
    transitive = len(reach) == npoints
    free = all(
        sum(1 for p in perms if p[u] == v) == 1
        for u in range(npoints)
        for v in range(npoints)
    )
    return {
        "transitive": transitive,
        "effective": kernel == [identity],
        "kernel_size": len(kernel),
        "regular": transitive and free,
    }


def orbits_of(perms: list, npoints: int) -> list:
    """Orbits of the points under the assigned permutations."""
    seen, out = set(), []
    for u in range(npoints):
        if u in seen:
            continue
        orbit = {p[u] for p in perms}
        seen |= orbit
        out.append(orbit)
    return out


def permutation_matrix(perm: tuple) -> list:
    """Matrix sending basis column ``j`` to column ``perm[j]``."""
    n = len(perm)
    rows = [[0] * n for _ in range(n)]
    for j, image in enumerate(perm):
        rows[image][j] = 1
    return rows


# -- exact linear algebra -------------------------------------------------------


def identity(n: int, one=1) -> list:
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def matmul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def det(a: list):
    """Determinant by Gaussian elimination over ``Fraction``."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    result = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            result = -result
        result *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return result


def inverse(a: list) -> list:
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for k in range(n):
        pivot = next(r for r in range(k, n) if m[r][k] != 0)
        m[k], m[pivot] = m[pivot], m[k]
        p = m[k][k]
        m[k] = [x / p for x in m[k]]
        for r in range(n):
            if r != k and m[r][k] != 0:
                f = m[r][k]
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return [row[n:] for row in m]


def signed_perm_closure(generators: list) -> list:
    """All products of signed permutations, identity first, breadth first.

    An element is a tuple of ``(column, sign)`` per row: row ``i`` of its
    matrix holds ``sign`` in ``column``.
    """
    n = len(generators[0])
    start = tuple((i, 1) for i in range(n))
    seen = {start}
    out, frontier = [start], [start]
    while frontier:
        nxt = []
        for current in frontier:
            for g in generators:
                product = tuple((g[c][0], s * g[c][1]) for c, s in current)
                if product not in seen:
                    seen.add(product)
                    out.append(product)
                    nxt.append(product)
        frontier = nxt
    return out


def signed_perm_matrix(element: tuple) -> list:
    n = len(element)
    rows = [[0] * n for _ in range(n)]
    for i, (col, sign) in enumerate(element):
        rows[i][col] = sign
    return rows


def signed_perm_det(element: tuple) -> int:
    """Sign of the permutation times the product of the signs."""
    cols = [c for c, _ in element]
    inversions = sum(1 for i in range(len(cols)) for j in range(i) if cols[j] > cols[i])
    result = -1 if inversions % 2 else 1
    for _, sign in element:
        result *= sign
    return result


def to_json_scalar(x: Fraction):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def flat_exact(m: list) -> list:
    return [to_json_scalar(x) for row in m for x in row]


def rows_exact(m: list) -> list:
    return [[to_json_scalar(x) for x in row] for row in m]


# -- float geometry -------------------------------------------------------------


def rotation2(angle: float) -> list:
    c, s = math.cos(angle), math.sin(angle)
    return [[c, -s], [s, c]]


def boost2(rapidity: float) -> list:
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    return [[ch, sh], [sh, ch]]


def rotation3(axis, angle: float) -> list:
    """Rodrigues' rotation about ``axis`` by ``angle``."""
    norm = math.sqrt(sum(a * a for a in axis))
    x, y, z = (a / norm for a in axis)
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    return [
        [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
        [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
        [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
    ]


PHI = (1.0 + math.sqrt(5.0)) / 2.0

# Generators of the tetrahedral (order 12), octahedral (24) and
# icosahedral (60) rotation groups.
SO3_GROUPS = {
    "T": [rotation3((1, 1, 1), 2 * math.pi / 3), rotation3((0, 0, 1), math.pi)],
    "O": [rotation3((0, 0, 1), math.pi / 2), rotation3((1, 1, 1), 2 * math.pi / 3)],
    "I": [rotation3((0, 1, PHI), 2 * math.pi / 5), rotation3((1, 1, 1), 2 * math.pi / 3)],
}


def dihedral_so3(m: int) -> list:
    """Generators of D_m inside SO(3) (order 2m): a turn about z and a
    half-turn about x."""
    return [rotation3((0, 0, 1), 2 * math.pi / m), rotation3((1, 0, 0), math.pi)]


def transpose(m: list) -> list:
    return [list(col) for col in zip(*m)]


def random_rotation3(rng) -> list:
    axis = [rng.gauss(0.0, 1.0) for _ in range(3)]
    return rotation3(axis, rng.uniform(0.0, 2 * math.pi))


def conjugate(r: list, g: list) -> list:
    """``r g r^T`` for an orthogonal ``r``."""
    return matmul(matmul(r, g), transpose(r))


def metric_frame(rng, p: int, q: int) -> list:
    """Rows of a random basis that is orthonormal for ``diag(+1^p, -1^q)``.

    Starts from the standard basis and mixes it with plane rotations inside
    each sign block and bounded boosts across blocks, all of which preserve
    the metric.
    """
    n = p + q
    frame = identity(n, 1.0)

    def apply(i, j, mix):
        for row in frame:
            a, b = row[i], row[j]
            row[i], row[j] = mix[0][0] * a + mix[0][1] * b, mix[1][0] * a + mix[1][1] * b

    for block in (range(p), range(p, n)):
        for i, j in itertools.combinations(block, 2):
            apply(i, j, rotation2(rng.uniform(0.0, 2 * math.pi)))
    for i in range(p):
        for j in range(p, n):
            apply(i, j, boost2(rng.uniform(-0.8, 0.8)))
    return frame
