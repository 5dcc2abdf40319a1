"""Fourier analysis of vector-valued functions on compact groups.

Provides concrete compact groups with truncated duals and exact Haar
quadrature, the Fourier transform and synthesis of functions valued in
C^m, weighted spectral Sobolev norms, and a verification harness for the
associated embedding inequalities.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .groups import *
from .transform import *
from .sobolev import *

#: The verification harness and its names, loaded on first use (PEP 562): no norm needs them
_HARNESS = """verify DEFAULT_CONFIG InequalityRecord RecordTable RunConfig VerificationReport
    run_suite check_block_comparison check_continuity_modulus check_hausdorff_young
    check_l2_embedding check_lq_embedding check_monotone_embedding check_sup_embedding
    check_vector_norm_comparison""".split()

__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_HARNESS))


def __getattr__(name):
    if name not in _HARNESS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    verify = _import_module(".verify", __name__)
    return verify if name == "verify" else getattr(verify, name)


def __dir__():
    return sorted({*globals(), *__all__})
