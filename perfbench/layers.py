"""Layer rows: time the hot public calls of single layers, in-process.

    python3 perfbench/layers.py SEED

Each row warms up first, then reports the median of several timed repeats.
Prints one JSON object, row name -> value in the row's unit.
"""

import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ordcensus import _polyarith as pa  # noqa: E402
from ordcensus.artin_schreier import census_analytic  # noqa: E402
from ordcensus.fields import FieldSpec  # noqa: E402
from ordcensus.oracle import extension_field  # noqa: E402
from ordcensus.superelliptic import census_a_euler  # noqa: E402

REPEATS = 7


def per_call(fn, args_list, repeats=REPEATS):
    """Median over repeats of the mean time of one call, in seconds."""
    for args in args_list:
        fn(*args)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(args_list))
    return statistics.median(times)


def rows(seed: int) -> dict:
    rng = random.Random(seed)
    f4 = FieldSpec(2, 2)
    base_pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(2000)]
    ext = extension_field(FieldSpec(2), 12)  # the oracle's F_{2^12}
    ext_pairs = [(ext.from_index(rng.randrange(ext.size)),
                  ext.from_index(rng.randrange(ext.size))) for _ in range(200)]
    f2 = FieldSpec(2)

    def poly(d):
        return tuple(rng.randrange(2) for _ in range(d)) + (1,)
    poly_pairs = [(f2, poly(24), poly(12)) for _ in range(100)]
    return {
        "fields.base_mul_ns": per_call(f4.mul, base_pairs) * 1e9,
        "fields.base_add_ns": per_call(f4.add, base_pairs) * 1e9,
        "fields.ext_mul_ns": per_call(ext.mul, ext_pairs) * 1e9,
        "fields.ext_add_ns": per_call(ext.add, ext_pairs) * 1e9,
        "_polyarith.divmod_us": per_call(pa.divmod_, poly_pairs) * 1e6,
        "_polyarith.gcd_us": per_call(pa.gcd, poly_pairs) * 1e6,
        "superelliptic.euler_coeff_s": per_call(census_a_euler, [(f2, 3, 22)], 5),
        "artin_schreier.analytic_m40_s": per_call(census_analytic, [(f2, 40)], 5),
    }


if __name__ == "__main__":
    print(json.dumps(rows(int(sys.argv[1]))))
