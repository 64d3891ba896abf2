"""Exact-arithmetic verification of Farkas-type divisor-sum convolution
identities for quartic Dirichlet characters modulo primes."""

from .characters import DirichletCharacter, canonical_quartic, quartic_pair
from .foundations import GaussianRational
from .identities import (
    ConfiguredIdentity,
    IdentityConstants,
    VerificationReport,
    constants_for,
    verify_farkas,
    verify_id1,
    verify_id2,
)
from .qseries import QSeries, bernoulli_B2_psi

__all__ = [
    "ConfiguredIdentity",
    "DirichletCharacter",
    "GaussianRational",
    "IdentityConstants",
    "QSeries",
    "VerificationReport",
    "bernoulli_B2_psi",
    "canonical_quartic",
    "constants_for",
    "quartic_pair",
    "verify_farkas",
    "verify_id1",
    "verify_id2",
]

__version__ = "0.1.0"
