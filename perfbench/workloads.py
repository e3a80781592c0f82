"""Seeded job lists for the two workloads.

A job is a tuple of CLI arguments for ``ordcensus``, plus any cover files the
job reads (name -> JSON text).  The seed chooses the covers and the
``classify --seed`` value; it never changes a job's shape (field, genus,
place degrees and pole orders), so that runs on different seeds cost the same
and their timings are comparable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    args: tuple
    files: dict = field(default_factory=dict, compare=False, hash=False)

    def key(self) -> str:
        """Stable identity of the job: its arguments with file names replaced
        by the files' contents, so that a key does not depend on where the
        files were written."""
        return " ".join(self.files.get(a, a) for a in self.args)


# -- polynomials over F_p, lists of ints, lowest degree first ---------------

def _trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _pmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv % p
        for j, y in enumerate(b):
            a[i + j] = (a[i + j] - c * y) % p
    return _trim(a[:len(b) - 1])


def _pgcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _monics(p, d):
    for n in range(p ** d):
        yield [n // p ** i % p for i in range(d)] + [1]


def _irreducibles(p, d):
    return [f for f in _monics(p, d)
            if all(_pmod(f, g, p) for e in range(1, d // 2 + 1) for g in _monics(p, e))]


def _squarefree(f, p):
    df = _trim([i * c % p for i, c in enumerate(f)][1:])
    return bool(df) and len(_pgcd(f, df, p)) == 1


def _text(f):
    return ",".join(str(c) for c in f)


# -- oracle covers ------------------------------------------------------------

def _local(rng, p, size, order):
    """Random normal-form local part: zero at indices divisible by p, top nonzero."""
    cs = [0 if j % p == 0 else rng.randrange(size) for j in range(1, order)]
    return cs + [rng.randrange(1, size)]


def as_cover(rng, p, shape, inf_order):
    """Artin-Schreier cover over F_p with fixed (place degree, pole order)
    pairs; the seed picks distinct places and the coefficients."""
    used = set()
    branch = []
    for deg, order in shape:
        choices = [f for f in _irreducibles(p, deg) if _text(f) not in used]
        place = _text(rng.choice(choices))
        used.add(place)
        branch.append({"place": place, "local": _local(rng, p, p ** deg, order)})
    inf = _local(rng, p, p, inf_order) if inf_order else None
    return {"q": p, "p": p, "branch": branch, "infinity": inf}


def se_cover_f2(rng, n, degrees):
    """Superelliptic cover over F_2 with parts of fixed degrees."""
    while True:
        parts = [[rng.randrange(2) for _ in range(d)] + [1] for d in degrees]
        if all(len(f) == 1 or _squarefree(f, 2) for f in parts) and all(
                len(_pgcd(f, g, 2)) == 1
                for i, f in enumerate(parts) for g in parts[i + 1:]):
            return {"q": 2, "n": n, "parts": [_text(f) for f in parts]}


# F_4 = F_2[t]/(t^2 + t + 1), elements 0, 1, t, t + 1 coded as 0..3.
_F4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def se_cover_f4(rng, n, degrees):
    """Superelliptic cover over F_4 whose parts are products of distinct
    linear factors x + a, so they are squarefree and pairwise coprime."""
    roots = rng.sample(range(4), sum(degrees))
    parts = []
    for d in degrees:
        f = [1]
        for a in roots[:d]:
            # (x + a) * f
            f = [_F4_MUL[a][c] ^ (f[i - 1] if i else 0) for i, c in enumerate(f + [0])]
        roots = roots[d:]
        parts.append(f)
    return {"q": 4, "n": n, "parts": [_text(f) for f in parts]}


def oracle_covers(seed: int) -> list:
    """Eleven covers of genus 2 to 5, one per stratum."""
    rng = random.Random(seed)
    return [
        as_cover(rng, 2, [(1, 1), (1, 1), (2, 1)], None),    # m = 8, g = 3
        as_cover(rng, 2, [(1, 1), (1, 1)], 3),               # m = 8 with inf, g = 3
        as_cover(rng, 2, [(1, 3), (3, 1)], None),            # m = 10, g = 4
        as_cover(rng, 2, [(2, 1), (1, 3)], 1),               # m = 10 with inf, g = 4
        as_cover(rng, 2, [(2, 1), (1, 1)], 5),               # m = 12 with inf, g = 5
        as_cover(rng, 3, [(1, 1), (1, 1)], None),            # q = 3, m = 4, g = 2
        as_cover(rng, 3, [(1, 2)], 1),                       # q = 3, m = 5 with inf, g = 3
        se_cover_f2(rng, 3, (3, 1)),                         # branch count 5, g = 3
        se_cover_f2(rng, 3, (3, 2)),                         # branch count 6, g = 4
        se_cover_f4(rng, 3, (2, 1)),                         # q = 4, branch count 4, g = 2
        se_cover_f2(rng, 5, (2, 1, 0, 0)),                   # n = 5, branch count 4, g = 4
    ]


# Census jobs over prime fields: dirichlet series, superelliptic's three
# routes, polys gcd/factor work; fields runs only its k = 1 path.
CENSUS_PRIME = [
    "census as --q 2 --p 2 --max-m 12 --mode both",
    "census as --q 3 --p 3 --max-m 8 --mode both --include-infinity",
    "census as --q 2 --p 2 --max-m 40",
    "census as --q 3 --p 3 --max-m 30",
    "census se --q 2 --n 3 --max-m 12",
    "census se --q 2 --n 5 --max-m 7",
    "report-table1",
    "constants --q 3 --p 3",
]

# The same census code over q in {4, 8, 9}: many cheap base-field operations
# with k > 1 and many small residue fields (90 for AS q = 4, m <= 8), where a
# field layer that builds a table per field would pay.
CENSUS_NONPRIME = [
    "census se --q 4 --n 3 --max-m 5",
    "census as --q 4 --p 2 --max-m 8 --mode both",
    "census as --q 8 --p 2 --max-m 6 --mode both",
    "census as --q 9 --p 3 --max-m 5 --mode both",
]

WORKLOADS = ("oracle", "census")


def jobs(workload: str, seed: int) -> list:
    """The workload's job list for a seed, in the order it is run."""
    rng = random.Random(seed)
    if workload == "oracle":
        out = []
        for i, cover in enumerate(oracle_covers(seed)):
            name = f"cover{i}.json"
            out.append(Job(("oracle", "--cover", name),
                           {name: json.dumps(cover, sort_keys=True)}))
        return out
    if workload != "census":
        raise ValueError(f"unknown workload {workload!r}")
    lines = CENSUS_PRIME + CENSUS_NONPRIME + [
        f"classify --sample 50 --q 4 --n 5 --max-m 5 --seed {rng.randrange(10 ** 6)}"]
    rng.shuffle(lines)
    return [Job(tuple(line.split())) for line in lines]
