"""Watch Toeplitz determinants lock onto a partition function.

The generating series of a chamber can be read off as the determinant of a
banded Toeplitz matrix built from a fixed Laurent symbol. Finite sections of
the matrix only approximate the answer; past a certain size every extra row
and column stops changing the truncated determinant. This script prints the
whole approach for the single-vertex geometry and for the small resolved
chamber, showing exactly where each one stabilizes.
"""

from crystalmelt import (
    c3_chamber,
    chamber_prefactor,
    chamber_symbol,
    conifold_product,
    conifold_theta,
    macmahon,
    stabilized_toeplitz,
    toeplitz_det,
)

DEGREE = 6


def march(symbol, target, label):
    print(f"{label} (cutoff {DEGREE})")
    result = stabilized_toeplitz(symbol, DEGREE)
    prev = None
    for size in range(1, result.stabilized_at + 2):
        det = result.history.get(size)
        if det is None:
            det = toeplitz_det(symbol, size).truncate(DEGREE)
        marks = []
        if prev is not None and det == prev:
            marks.append("= previous")
        if det == target:
            marks.append("matches the target series")
        note = ("  <- " + ", ".join(marks)) if marks else ""
        print(f"  size {size:2d}: {len(det.terms):2d} monomials{note}")
        prev = det
    agree = "agrees with" if result.value == target else "DISAGREES with"
    print(
        f"  plateau certified at size {result.stabilized_at}; "
        f"stabilized value {agree} the target\n"
    )
    return result


def main():
    march(chamber_symbol(c3_chamber(), DEGREE), macmahon(DEGREE), "single vertex, symbol determinant")

    n = 1
    pref = chamber_prefactor(conifold_theta(n), DEGREE)
    bare_target = conifold_product(n, DEGREE) * pref.invert()
    result = march(
        chamber_symbol(conifold_theta(n), DEGREE),
        bare_target.truncate(DEGREE),
        f"resolved chamber n={n}, bare symbol determinant",
    )
    scaled = (pref * result.value).truncate(DEGREE)
    verdict = "equals" if scaled == conifold_product(n, DEGREE) else "DOES NOT EQUAL"
    print(f"prefactor * bare determinant {verdict} the chamber product formula")


if __name__ == "__main__":
    main()
