"""Watch Toeplitz determinants lock onto a partition function.

The generating series of a chamber can be read off as the determinant of a
banded Toeplitz matrix built from a fixed Laurent symbol. Finite sections of
the matrix only approximate the answer; past a certain size every extra row
and column stops changing the truncated determinant. That size is proven: no
configuration of the chamber below the cutoff has more rows than the row
bound of its step table, read with every slice as it is or transposed,
whichever needs fewer; the toeplitz engine reports that bound as its size. This
script prints the whole approach for the single-vertex geometry and for the
small resolved chamber, the proven size, and its certificate: the next pivot
is 1 to the cutoff, while one size fewer fails that check.
"""

from crystalmelt import (
    StabilizationFailureError,
    c3_chamber,
    chamber_prefactor,
    chamber_symbol,
    conifold_product,
    conifold_theta,
    macmahon,
    stabilized_toeplitz,
)
from crystalmelt.engines import engine_series

DEGREE = 6


def march(spec, target, label):
    print(f"{label} (cutoff {DEGREE})")
    symbol = chamber_symbol(spec, DEGREE)
    size = engine_series("toeplitz", spec, DEGREE)[1]["stabilized_at"]
    result = stabilized_toeplitz(symbol, DEGREE, size)
    prev = None
    for n in range(1, size + 2):
        det = result.history[n]
        marks = []
        if prev is not None and det == prev:
            marks.append("= previous")
        if det == target:
            marks.append("matches the target series")
        note = ("  <- " + ", ".join(marks)) if marks else ""
        print(f"  size {n:2d}: {len(det.terms):2d} monomials{note}")
        prev = det
    agree = "agrees with" if result.value == target else "DISAGREES with"
    print(f"  proven size {size}: the pivot u_{size + 1} is 1 to the cutoff")
    try:
        stabilized_toeplitz(symbol, DEGREE, size - 1)
        print(f"  size {size - 1} passes the same certificate")
    except StabilizationFailureError:
        print(f"  size {size - 1} fails it: the pivot u_{size} is not 1")
    print(f"  value at the proven size {agree} the target\n")
    return result


def main():
    march(c3_chamber(), macmahon(DEGREE), "single vertex, symbol determinant")

    n = 1
    pref = chamber_prefactor(conifold_theta(n), DEGREE)
    bare_target = conifold_product(n, DEGREE) * pref.invert()
    result = march(
        conifold_theta(n),
        bare_target.truncate(DEGREE),
        f"resolved chamber n={n}, bare symbol determinant",
    )
    scaled = (pref * result.value).truncate(DEGREE)
    verdict = "equals" if scaled == conifold_product(n, DEGREE) else "DOES NOT EQUAL"
    print(f"prefactor * bare determinant {verdict} the chamber product formula")


if __name__ == "__main__":
    main()
