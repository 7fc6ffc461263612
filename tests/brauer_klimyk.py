"""Brauer-Klimyk over W_K, the one expansion the whole-table tests share
(tests/test_dirac_index.py and tests/test_holomorphic.py): a sum of K-types
tensored with a virtual character of T, split into K-types.

It reads only W_K's records and K's roots, and works in doubled coordinates
of T: X = 2mu + s + 2rho_K, made K-dominant by w, adds m c det(w) at
w X - 2rho_K unless w X is singular.  W_K acts by signed permutations on
the groups it is used on, so |w X| = |X| in the max norm.
"""

from kbranch.groups import matvec


def add(*vs):
    return tuple(map(sum, zip(*vs)))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def dominant(g, x):
    """(w x, det w) for the w in W_K that makes x K-dominant."""
    for w in g.k_weyl:
        wx = matvec(w.matrix, x)
        if all(dot(wx, a) >= 0 for a in g.k_roots.simples):
            return wx, w.det
    raise AssertionError(f"no W_K element makes {x} dominant")


def rho2_k(g):
    """2rho_K, the sum of K's positive roots."""
    return add((0,) * g.k_roots.rank, *g.k_roots.positives)


def brauer_klimyk(g, rows, weights, radius):
    """{nu: coefficient} of the K-types (mu, m) of rows tensored with the
    virtual T-character {s: c} of weights, s and nu doubled, read on
    |nu| <= radius: only an X with |X| <= radius + |2rho_K| reaches it."""
    rho2 = rho2_k(g)
    reach = radius + max(map(abs, rho2))
    xs = {}
    for mu, m in rows:
        for s, c in weights.items():
            x = add([2 * y for y in mu], s, rho2)
            if max(map(abs, x)) <= reach:
                xs[x] = xs.get(x, 0) + m * c
    out = {}
    for x, c in xs.items():
        x, det = dominant(g, x)
        if any(dot(x, a) == 0 for a in g.k_roots.simples):
            continue  # singular: no K-type
        nu = tuple(a - b for a, b in zip(x, rho2))
        if max(map(abs, nu)) <= radius:
            out[nu] = out.get(nu, 0) + c * det
    return {nu: c for nu, c in out.items() if c}
