"""Which route computes which chamber.

Every engine computes the same partition function Z_theta of a chamber
(L, rho, theta); engine_series picks the engine's route by looking at the
chamber itself, so a chamber gets the same routes however it was named on
the command line. The command line runs every engine through here, and
verify_all takes the product and Toeplitz values it checks from here.

- enumerate: the slice sweep over the runs between the steps of the
  potential step table (chambers.potential_steps), the 2D + 1 steps priced
  within the degree D, pruned by the least potential still to pay read off
  the same table, for every chamber.
- product: the root-data product of products.chamber_product, for every
  chamber.
- toeplitz: the Toeplitz determinant of the chamber's walker symbol times
  its prefactor, both read off the potential step table
  (matrixmodel.chamber_symbol, matrixmodel.chamber_prefactor), for every
  chamber. Its size is chambers.row_bound over the symbol's kept steps,
  certified by one more pivot (matrixmodel.stabilized_toeplitz).
- lgv: the determinant of the walker path matrix, summed by in-place
  transfer over the potential step table (lgv._walker_transfer), for
  every chamber, with chambers.row_bound of that table as the walker count.

Both determinant routes read their table in whichever orientation needs
fewer rows: as it is, or with every relation flipped, which transposes
every slice and leaves Z unchanged (chambers.row_bound). On a tie the lgv
route keeps the table as it is, and the Toeplitz route follows the rule of
matrixmodel._split_steps. Each route settles its orientation and size once
per (chamber, degree).

Every route reads the same 2D + 1 steps, so none does work that grows with
the chamber's distance from the identity.
"""

from functools import lru_cache

from .chambers import _flipped, row_bound, potential_steps
from .enumeration import enumerate_z
from .lgv import _walker_transfer
from .matrixmodel import _split_steps, chamber_prefactor, chamber_symbol, stabilized_toeplitz
from .products import chamber_product
from .series import det_division_free

ENGINES = ("enumerate", "product", "toeplitz", "lgv")


@lru_cache(maxsize=None)
def _lgv_route(spec, degree):
    """The lgv route's walker count and step table: the potential step table
    as it is or with every relation flipped, whichever has the smaller row
    bound (as it is on a tie), and that bound as the walker count, at least
    one."""
    table = potential_steps(spec, degree)
    plain, flipped = row_bound(table, degree)
    if flipped < plain:
        return max(flipped, 1), _flipped(table)
    return max(plain, 1), table


def engine_series(name, spec, degree):
    """Run one engine on one chamber to the given degree.

    Returns (series, extras): extras holds what the route reports beyond
    its series, which is the proven determinant size "stabilized_at" for
    toeplitz and nothing otherwise.
    """
    if name == "enumerate":
        return enumerate_z(spec, degree), {}
    if name == "lgv":
        walkers, steps = _lgv_route(spec, degree)
        return det_division_free(_walker_transfer(spec.L, walkers, degree, steps)), {}
    if name == "product":
        return chamber_product(spec, degree), {}
    if name == "toeplitz":
        size = _split_steps(spec, degree).size
        res = stabilized_toeplitz(chamber_symbol(spec, degree), degree, size)
        return chamber_prefactor(spec, degree) * res.value, {"stabilized_at": res.stabilized_at}
    raise ValueError(f"unknown engine {name!r}")
