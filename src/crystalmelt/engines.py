"""Which route computes which chamber.

Every engine computes the same partition function Z_theta of a chamber
(L, rho, theta); engine_series picks the engine's route by looking at the
chamber itself, so a chamber gets the same routes however it was named on
the command line. The command line runs every engine through here, and
verify_all takes the product and Toeplitz values it checks from here.

- enumerate: the slice sweep over the window of the potential step table
  (chambers.potential_steps), pruned by the least potential still to pay
  read off the same table, for every chamber.
- product: the root-data product of products.chamber_product, for every
  chamber.
- toeplitz: the Toeplitz determinant of the chamber's walker symbol times
  its prefactor, both read off the potential step table
  (matrixmodel.chamber_symbol, matrixmodel.chamber_prefactor), for every
  chamber. Its size is chambers.row_bound over the symbol's kept steps,
  certified by one more pivot (matrixmodel.stabilized_toeplitz).
- lgv: the determinant of the walker path matrix, summed by in-place
  transfer over the potential step table (lgv.walker_path_matrix), for
  every chamber, with chambers.row_bound of that table as the walker count.
"""

from .chambers import potential_steps, row_bound
from .enumeration import enumerate_z
from .lgv import walker_path_matrix
from .matrixmodel import _split_steps, chamber_prefactor, chamber_symbol, stabilized_toeplitz
from .products import chamber_product
from .series import det_division_free

ENGINES = ("enumerate", "product", "toeplitz", "lgv")


def _walkers(spec, degree):
    """The lgv route's walker count: the row bound, and at least one walker."""
    return max(row_bound(potential_steps(spec, degree), degree), 1)


def engine_series(name, spec, degree):
    """Run one engine on one chamber to the given degree.

    Returns (series, extras): extras holds what the route reports beyond
    its series, which is the proven determinant size "stabilized_at" for
    toeplitz and nothing otherwise.
    """
    if name == "enumerate":
        return enumerate_z(spec, degree), {}
    if name == "lgv":
        return det_division_free(walker_path_matrix(spec, _walkers(spec, degree), degree)), {}
    if name == "product":
        return chamber_product(spec, degree), {}
    if name == "toeplitz":
        size = row_bound(_split_steps(spec, degree)[0], degree)
        res = stabilized_toeplitz(chamber_symbol(spec, degree), degree, size)
        return chamber_prefactor(spec, degree) * res.value, {"stabilized_at": res.stabilized_at}
    raise ValueError(f"unknown engine {name!r}")
