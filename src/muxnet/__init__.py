"""Multiplier-free table-resident NN inference: compiler, bit-exact engine,
signal front end, early-stop voting, and hardware cost accounting.

The top level holds the names the README's library example uses; everything
else is imported from its submodule (``muxnet.frontend``, ``muxnet.costmodel``,
...).
"""

from .compiler import compile_model, default_float_model
from .engine import MpuEngine
from .reference import reference_logits

__all__ = ["MpuEngine", "compile_model", "default_float_model", "reference_logits"]

__version__ = "0.1.0"
