"""Numerical limits of uncloneable encryption of classical messages.

The package models quantum encryption of classical messages (QECM),
builds the explicit cloning attacks that bound their uncloneable
security from below, and verifies the resulting closed-form values and
inequalities numerically:

* ``linalg`` -- dense complex matrix kernel and seeded randomness;
* ``schemes`` -- the QECM data model, Haar block schemes and BB84;
* ``attacks`` -- superposition cloner, projector strategies,
  measure-and-share attacks, and the success-probability functionals;
* ``optimize`` -- Helstrom discrimination, fixed-point discrimination,
  and the product-measurement seesaw;
* ``o2h`` -- the two-party oracle-guessing counterexample;
* ``stats`` -- the Erlang max-over-sum constant and its Monte Carlo estimate;
* ``meg`` -- monogamy-of-entanglement games and the reduction check;
* ``cli`` -- seeded, reproducible experiment runner.
"""

from .version import __version__

__all__ = ["__version__"]
