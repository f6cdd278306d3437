"""liftspin: exact local Euler factors of lifted Siegel eigenforms.

The package constructs the local factors of the Hecke, symmetric-power,
tensor, spinor and standard L-functions attached to elliptic eigenforms
and their odd- and even-genus lifts, entirely in exact arithmetic, and
verifies the factorization identities among them both symbolically and
from real eigenvalue data.
"""

from .satake import SatakeParams, elliptic_satake, ikeda_satake, miyawaki_satake
from .euler import LocalFactor
from .qexp import EigenformData, QExpansion, eigenform
from .identities import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "SatakeParams",
    "LocalFactor",
    "QExpansion",
    "EigenformData",
    "VerificationReport",
    "eigenform",
    "elliptic_satake",
    "ikeda_satake",
    "miyawaki_satake",
    "__version__",
]
