"""Group shapes Z_n x Z_kn realized by elliptic curves over finite fields.

Library layout:
  arith          exact 64-bit-range number theory (primality, sieves, totients)
  realizability  the admissibility engine deciding single shapes, with witnesses
  counting       bulk realizable/missed surveys, the missed-count series, prime
                 witness totals by two independent routes
  special_sets   candidate vs realizable n-sets, degree-2 exceptional classes,
                 deep degree searches, balanced-shape sets, diophantine scans
  heuristics     prime-density miss model, expected-miss grids, constants
  curve_oracle   curve groups over tiny fields by numpy exhaustion (ground truth);
                 its scalar cross-check is tests/scalar_oracle.py
  cli            the ecgroups command-line tool
"""

__version__ = "0.1.0"

from .realizability import GroupShape  # noqa: F401
